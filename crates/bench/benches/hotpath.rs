//! Hot-path engine bench: how fast does a saturated 8-node cluster drain,
//! and where do its cycles go?
//!
//! Two products, both written to `BENCH_hotpath.json` at the repo root:
//!
//! 1. **Throughput** — committed transactions and events/s of the
//!    shipping configuration (`ThreadedRun::run`: batched delivery of
//!    cloned messages, one store and lock table per node) on a hospital
//!    workload pushed far past saturation, peak-folded over rounds.
//! 2. **Stage breakdown** — a separate profiled run (`ProfileMode::On`
//!    with the harness's monotonic clock), aggregated over all 8 nodes:
//!    validate / lock / store / counter / wal shares of the dispatch
//!    envelope. Profiling adds clock reads, so throughput always comes
//!    from the *unprofiled* runs; the profiled run only shapes the
//!    breakdown.

use std::time::Duration;

use threev_bench::prof::{breakdown_json, mono_ns};
use threev_bench::report::{write_bench_report, JsonObject, JsonValue};
use threev_core::cluster::ClusterActor;
use threev_core::node::{ProfileMode, StageBreakdown};
use threev_runtime::ThreadedRun;
use threev_shard::threaded::build_sharded_actors;
use threev_shard::ShardedConfig;
use threev_sim::SimDuration;
use threev_workload::HospitalWorkload;

const N_NODES: u16 = 8;
/// Rounds, peak-folded: background load on a shared box is one-sided
/// noise.
const ROUNDS: usize = 5;
const WINDOW_MS: u64 = 2_000;

fn hospital(seed: u64) -> HospitalWorkload {
    HospitalWorkload {
        departments: N_NODES,
        patients: 200,
        rate_tps: 200_000.0, // far past saturation: the runs measure drain rate
        read_pct: 20,
        max_fanout: 3,
        duration: SimDuration::from_millis(WINDOW_MS),
        zipf_s: 0.8,
        seed,
    }
}

struct Probe {
    committed: u64,
    committed_per_sec: f64,
    events_per_sec: f64,
}

fn engine_probe(profile: ProfileMode) -> (Probe, Option<StageBreakdown>) {
    let w = hospital(0xE17);
    let mut cfg = ShardedConfig::new(1, N_NODES);
    cfg.protocol.node.profile = profile;
    let actors = build_sharded_actors(&w.schema(), &cfg, vec![w.arrivals()]);
    let (actors, report) = ThreadedRun::run(
        actors,
        cfg.sim.clone(),
        Duration::from_millis(WINDOW_MS),
        Duration::from_millis(100),
    );
    let mut committed = 0u64;
    let mut breakdown = StageBreakdown::default();
    let mut profiled = false;
    for a in &actors {
        match a {
            ClusterActor::Client(c) => {
                committed += c
                    .records()
                    .iter()
                    .filter(|r| r.status == threev_analysis::TxnStatus::Committed)
                    .count() as u64;
            }
            ClusterActor::Node(n) => {
                if let Some(b) = n.stage_breakdown() {
                    breakdown.merge(b);
                    profiled = true;
                }
            }
            _ => {}
        }
    }
    let events: u64 = report.messages_per_actor.iter().sum();
    let secs = report.elapsed.as_secs_f64();
    (
        Probe {
            committed,
            committed_per_sec: committed as f64 / secs,
            events_per_sec: events as f64 / secs,
        },
        profiled.then_some(breakdown),
    )
}

fn peak(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::MIN, f64::max)
}

fn main() {
    let mut runs = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (probe, _) = engine_probe(ProfileMode::Off);
        println!(
            "round {round}: committed {} ({:.0}/s), events {:.0}/s",
            probe.committed, probe.committed_per_sec, probe.events_per_sec
        );
        runs.push(probe);
    }
    let committed_per_sec = peak(runs.iter().map(|p| p.committed_per_sec));
    let events_per_sec = peak(runs.iter().map(|p| p.events_per_sec));
    let committed = runs.iter().map(|p| p.committed).max().unwrap_or(0);
    println!("hotpath: peak {committed_per_sec:.0} committed/s, {events_per_sec:.0} events/s");

    // One profiled pass for the stage shares; its absolute throughput
    // does not feed the figures above.
    let (_, breakdown) = engine_probe(ProfileMode::On(mono_ns));
    let breakdown = breakdown.expect("profiled run yields a breakdown");

    let report = JsonObject::new()
        .field("bench", "hotpath")
        .field("n_nodes", N_NODES)
        .field("rounds", ROUNDS)
        .field("window_ms", WINDOW_MS)
        .field("committed", committed)
        .field("committed_per_sec", JsonValue::Float(committed_per_sec, 0))
        .field("events_per_sec", JsonValue::Float(events_per_sec, 0))
        .field("stage_breakdown", breakdown_json(&breakdown))
        .field(
            "notes",
            "Stage spans are wall-clock and include preemption; on an \
             oversubscribed box the shares are meaningful, the absolute ns \
             are not. lock and wal are legitimately 0 for a commuting, \
             durability-off workload; 'other' is routing, message \
             construction, and channel delivery.",
        );
    write_bench_report("hotpath", &report);
}
