//! Throughput and advancement latency under message loss: 3V's
//! fault-tolerant control plane vs the global-2PC baseline.
//!
//! The fault plane injects {0%, 5%, 20%} loss (plus 5% duplication when
//! lossy). The scoping matches what each protocol's *commit machinery*
//! is: for 3V, loss lands on the coordinator↔node control links — the
//! advancement protocol retransmits through it while user transactions
//! flow on the clean data plane, so committed throughput holds and only
//! advancement latency pays. For 2PC the commit protocol IS the data
//! plane (every prepare/decision travels node↔node), so the same loss
//! rate lands on all links — and with no retransmission layer, in-flight
//! transactions stall where a message died. Both planes assume reliable
//! subtransaction delivery otherwise, as the paper does (§6 leaves the
//! network layer out of scope).
//!
//! Writes `BENCH_faults.json` at the repository root (via the shared
//! [`threev_bench::report`] writer) so the numbers land in version
//! control next to the code they measure.

use std::time::Duration;

use criterion::{criterion_group, Criterion};
use threev_analysis::TxnStatus;
use threev_baselines::two_pc::{TwoPcCluster, TwoPcConfig};
use threev_bench::report::{write_bench_report, JsonObject, JsonValue};
use threev_core::advance::AdvancementPolicy;
use threev_model::{NodeId, PartitionId};
use threev_shard::{ShardedCluster, ShardedConfig};
use threev_sim::{FaultPlane, FaultScope, SimDuration, SimTime};
use threev_workload::HospitalWorkload;

const N_NODES: u16 = 4;
const SEED: u64 = 0xFA17;
/// Loss rates under test, in parts per million.
const LOSS_PPM: [u32; 3] = [0, 50_000, 200_000];

fn hospital() -> HospitalWorkload {
    HospitalWorkload {
        departments: N_NODES,
        patients: 100,
        rate_tps: 2_000.0,
        read_pct: 20,
        max_fanout: 3,
        duration: SimDuration::from_millis(200),
        zipf_s: 0.8,
        seed: SEED,
    }
}

/// 3V control-plane fault scope: every coordinator↔node link, both ways.
fn control_plane(loss_ppm: u32) -> FaultPlane {
    let coord = NodeId(N_NODES);
    FaultPlane {
        drop_ppm: loss_ppm,
        dup_ppm: if loss_ppm > 0 { 50_000 } else { 0 },
        scope: FaultScope::Links(
            (0..N_NODES)
                .flat_map(|i| [(coord, NodeId(i)), (NodeId(i), coord)])
                .collect(),
        ),
        ..FaultPlane::default()
    }
}

/// 2PC fault scope: the commit protocol is the data plane, so loss lands
/// everywhere.
fn all_links(loss_ppm: u32) -> FaultPlane {
    FaultPlane {
        drop_ppm: loss_ppm,
        dup_ppm: if loss_ppm > 0 { 50_000 } else { 0 },
        ..FaultPlane::default()
    }
}

struct Measurement {
    committed: u64,
    stalled: u64,
    committed_per_vsec: f64,
    advancements: usize,
    mean_adv_latency_us: f64,
    dropped: u64,
    duplicated: u64,
}

fn run_threev(loss_ppm: u32) -> Measurement {
    let w = hospital();
    let mut cfg =
        ShardedConfig::new(1, N_NODES)
            .seed(SEED)
            .advancement(AdvancementPolicy::Periodic {
                first: SimDuration::from_millis(20),
                period: SimDuration::from_millis(20),
            });
    cfg.sim.faults = control_plane(loss_ppm);
    cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
    let mut cluster = ShardedCluster::new(&w.schema(), cfg, vec![w.arrivals()]);
    let p0 = PartitionId(0);
    // Periodic advancement re-arms forever: run to a horizon, not
    // quiescence. One virtual second covers the 200ms arrival window plus
    // a wide drain margin even at 20% control loss.
    cluster.run_until(SimTime(1_000_000));
    let committed = cluster
        .partition_records(p0)
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count() as u64;
    let total = cluster.partition_records(p0).len() as u64;
    let advs = cluster.advancements(p0);
    let mean_adv = if advs.is_empty() {
        0.0
    } else {
        advs.iter()
            .map(|a| a.total().as_micros() as f64)
            .sum::<f64>()
            / advs.len() as f64
    };
    let stats = cluster.sim_stats(p0);
    Measurement {
        committed,
        stalled: total - committed,
        committed_per_vsec: committed as f64 / (cluster.now().0 as f64 / 1e6),
        advancements: advs.len(),
        mean_adv_latency_us: mean_adv,
        dropped: stats.dropped,
        duplicated: stats.duplicated,
    }
}

fn run_two_pc(loss_ppm: u32) -> Measurement {
    let w = hospital();
    let mut sim = threev_sim::SimConfig::seeded(SEED);
    sim.faults = all_links(loss_ppm);
    let mut cluster = TwoPcCluster::new(
        &w.schema(),
        N_NODES,
        sim,
        TwoPcConfig::default(),
        w.arrivals(),
    );
    cluster.run(SimTime(1_000_000));
    let committed = cluster
        .records()
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count() as u64;
    let total = cluster.records().len() as u64;
    let stats = cluster.sim_stats();
    Measurement {
        committed,
        stalled: total - committed,
        committed_per_vsec: committed as f64 / (cluster.now().0 as f64 / 1e6),
        advancements: 0,
        mean_adv_latency_us: 0.0,
        dropped: stats.dropped,
        duplicated: stats.duplicated,
    }
}

// ---------------------------------------------------------------- DES cost

/// Host cost of the fault machinery itself: simulating the same window
/// with the plane off and at 20% control loss (retransmit traffic and
/// fault bookkeeping included).
fn bench_des_fault_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("faults_sim_4node");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    for (name, loss) in [("no_faults", 0u32), ("loss_20pct", 200_000)] {
        g.bench_function(name, |b| {
            b.iter(|| run_threev(loss).committed);
        });
    }
    g.finish();
}

criterion_group!(benches, bench_des_fault_cost);

// ------------------------------------------------------------------ report

fn row(m: &Measurement, with_adv: bool) -> JsonObject {
    let mut obj = JsonObject::new()
        .field("committed", m.committed)
        .field("stalled", m.stalled)
        .field(
            "committed_per_vsec",
            JsonValue::Float(m.committed_per_vsec, 0),
        )
        .field("dropped", m.dropped)
        .field("duplicated", m.duplicated);
    if with_adv {
        obj = obj.field("advancements", m.advancements).field(
            "mean_adv_latency_us",
            JsonValue::Float(m.mean_adv_latency_us, 0),
        );
    }
    obj
}

fn write_report() {
    let mut report = JsonObject::new()
        .field("bench", "faults")
        .field("n_nodes", N_NODES)
        .field("seed", SEED)
        .field(
            "loss_scope",
            JsonObject::new()
                .field("threev", "coordinator links (control plane)")
                .field("two_pc", "all links (commit protocol is the data plane)"),
        );
    for loss in LOSS_PPM {
        let tv = run_threev(loss);
        let tpc = run_two_pc(loss);
        println!(
            "loss {:>3}‰: 3V {:>4} committed ({} adv, mean {:.0}us) | 2PC {:>4} committed, {} stalled",
            loss / 1_000,
            tv.committed,
            tv.advancements,
            tv.mean_adv_latency_us,
            tpc.committed,
            tpc.stalled,
        );
        report = report.field(
            format!("{loss}ppm"),
            JsonObject::new()
                .field("threev", row(&tv, true))
                .field("two_pc", row(&tpc, false)),
        );
    }
    write_bench_report("faults", &report);
}

fn main() {
    benches();
    write_report();
}
