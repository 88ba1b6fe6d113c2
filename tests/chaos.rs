//! Chaos matrix: the 3V engine across hostile network conditions —
//! WAN-scale latency, heavy-tailed spikes, reordering vs FIFO links — and,
//! through the injectable [`FaultPlane`], control-plane message loss and
//! node crash-restarts, always with racing advancement. Safety (audit +
//! version bound) must hold in every cell; liveness (drain + advancement
//! completion) too.
//!
//! The full-hostility cell reads its seed from `THREEV_FAULT_SEED`, so the
//! CI fault matrix can sweep seeds without recompiling.

use threev::analysis::{Auditor, TxnStatus};
use threev::core::advance::AdvancementPolicy;
use threev::core::node::DurabilityMode;
use threev::model::{NodeId, PartitionId};
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{
    FaultPlane, FaultScope, LatencyModel, NodeCrash, SimConfig, SimDuration, SimTime,
};
use threev::workload::TelecomWorkload;

const N_SWITCHES: u16 = 4;

/// The one partition every run here uses.
const P0: PartitionId = PartitionId(0);

/// Loss + duplication scoped to the coordinator↔node control links. The
/// data plane stays clean, matching the paper's §6 assumption of reliable
/// subtransaction delivery; the advancement protocol retransmits through
/// the lossy control plane.
fn control_plane(loss_ppm: u32) -> FaultPlane {
    let coord = NodeId(N_SWITCHES);
    FaultPlane {
        drop_ppm: loss_ppm,
        dup_ppm: 50_000,
        scope: FaultScope::Links(
            (0..N_SWITCHES)
                .flat_map(|i| [(coord, NodeId(i)), (NodeId(i), coord)])
                .collect(),
        ),
        ..FaultPlane::default()
    }
}

/// Add a crash-restart of switch 1 well after the 300ms arrival window
/// (no in-flight user transactions to lose) but in the middle of the
/// periodic advancement cadence.
fn with_crash(mut plane: FaultPlane) -> FaultPlane {
    plane.crashes = vec![NodeCrash {
        node: NodeId(1),
        at: SimTime(600_000),
        restart_after: SimDuration::from_millis(5),
    }];
    plane
}

fn run_cell(latency: LatencyModel, fifo: bool, seed: u64) {
    run_cell_with(latency, fifo, seed, FaultPlane::default());
}

fn run_cell_with(latency: LatencyModel, fifo: bool, seed: u64, faults: FaultPlane) {
    let workload = TelecomWorkload {
        switches: N_SWITCHES,
        accounts: 30,
        rate_tps: 2_000.0,
        read_pct: 20,
        inter_region_pct: 75,
        duration: SimDuration::from_millis(300),
        zipf_s: 1.1,
        seed,
    };
    let schema = workload.schema();
    let arrivals = workload.arrivals();
    let n = arrivals.len();
    let lossy = faults.drop_ppm > 0;
    let crashy = !faults.crashes.is_empty();
    let mut cfg = ShardedConfig::new(1, N_SWITCHES).advancement(AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(30),
        period: SimDuration::from_millis(60),
    });
    cfg.sim = SimConfig {
        latency,
        local_latency: SimDuration::from_micros(1),
        fifo,
        seed,
        faults,
        ..SimConfig::default()
    };
    // Hostile planes need the fault-tolerant control plane: retransmission
    // rides over loss and carries a restarted node's rejoin; crashed nodes
    // need a WAL to restart from.
    if lossy || crashy {
        cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
    }
    if crashy {
        cfg = cfg.durability(DurabilityMode::Memory {
            checkpoint_every: 64,
        });
    }
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
    // Generous horizon: WAN spikes can stretch a tree's lifetime a lot.
    cluster.run_until(SimTime(20_000_000));

    let label =
        format!("latency={latency:?} fifo={fifo} seed={seed} lossy={lossy} crashy={crashy}");
    assert!(cluster.all_quiescent(), "undrained: {label}");
    assert!(
        cluster.max_versions_high_water() <= 3,
        "version bound: {label}"
    );
    let records = cluster.partition_records(P0);
    assert_eq!(records.len(), n);
    assert!(
        records.iter().all(|r| r.status == TxnStatus::Committed),
        "incomplete transactions: {label}"
    );
    let audit = Auditor::new(records).check();
    assert!(audit.clean(), "{label}: {audit:?}");
    assert!(
        !cluster.advancements(P0).is_empty(),
        "advancement starved: {label}"
    );
}

#[test]
fn chaos_lan_reordering() {
    run_cell(LatencyModel::lan(), false, 101);
}

#[test]
fn chaos_lan_fifo() {
    run_cell(LatencyModel::lan(), true, 102);
}

#[test]
fn chaos_wan_reordering() {
    run_cell(LatencyModel::wan(), false, 103);
}

#[test]
fn chaos_wan_fifo() {
    run_cell(LatencyModel::wan(), true, 104);
}

#[test]
fn chaos_spiky_heavy_tail() {
    // 5% of messages take 50x the base latency: maximal straggler pressure
    // across advancement switchovers.
    run_cell(
        LatencyModel::Spiky {
            base: SimDuration::from_micros(500),
            spike_ppm: 50_000,
            spike_factor: 50,
        },
        false,
        105,
    );
}

#[test]
fn chaos_extreme_jitter_window() {
    // Latencies spanning two orders of magnitude; reordering everywhere.
    run_cell(
        LatencyModel::Uniform {
            min: SimDuration::from_micros(50),
            max: SimDuration::from_millis(8),
        },
        false,
        106,
    );
}

#[test]
fn chaos_wan_control_loss() {
    // 5% control-plane loss (plus duplication) on WAN latency with
    // reordering: advancement must still make rounds and the data plane
    // must drain untouched.
    run_cell_with(LatencyModel::wan(), false, 107, control_plane(50_000));
}

#[test]
fn chaos_crash_restart_under_jitter() {
    // A switch crash-restarts amid extreme jitter while periodic
    // advancement keeps firing; recovery from checkpoint + WAL must rejoin
    // it without losing a transaction.
    run_cell_with(
        LatencyModel::Uniform {
            min: SimDuration::from_micros(50),
            max: SimDuration::from_millis(8),
        },
        false,
        108,
        with_crash(FaultPlane::default()),
    );
}

#[test]
fn chaos_full_hostility_at_env_seed() {
    // Everything at once — heavy-tailed latency, lossy duplicated control
    // plane, a crash-restart — at a seed the CI fault matrix pins via
    // `THREEV_FAULT_SEED`.
    let seed = threev::testutil::fault_seed_or(0xFA17);
    run_cell_with(
        LatencyModel::Spiky {
            base: SimDuration::from_micros(500),
            spike_ppm: 50_000,
            spike_factor: 50,
        },
        false,
        seed,
        with_crash(control_plane(50_000)),
    );
}
