//! Crash-restart recovery on real threads with a **file-backed WAL**.
//!
//! The DES suite (`tests/recovery_under_crashes.rs` at the workspace root)
//! proves the recovery protocol deterministic-correct; this test proves the
//! durability layer survives contact with the operating system: each node
//! logs to an actual on-disk WAL ([`DurabilityMode::File`]), the crash is
//! injected by the same fault plane driving the DES kernel, and the node's
//! thread rebuilds its engine from checkpoint + log tail while the other
//! threads keep running.

use std::path::{Path, PathBuf};
use std::time::Duration;

use threev::shard::threaded::build_sharded_actors;
use threev::shard::ShardedConfig;
use threev_analysis::TxnStatus;
use threev_core::advance::AdvancementPolicy;
use threev_core::client::Arrival;
use threev_core::cluster::ClusterActor;
use threev_core::node::{DurabilityMode, ThreeVNode};
use threev_model::{Key, KeyDecl, NodeId, Schema, SubtxnPlan, TxnPlan, UpdateOp, Value, VersionNo};
use threev_runtime::ThreadedRun;
use threev_sim::{NodeCrash, SimConfig, SimDuration, SimTime};

const N_NODES: u16 = 3;
const CRASHED: usize = 1;

fn k(i: u64) -> Key {
    Key(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// Wall-clock milliseconds as kernel time (the threaded driver ties
/// `SimTime` to elapsed microseconds).
fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

fn schema() -> Schema {
    Schema::new(vec![
        KeyDecl::counter(k(1), n(0), 0),
        KeyDecl::journal(k(11), n(0)),
        KeyDecl::counter(k(2), n(1), 0),
        KeyDecl::journal(k(12), n(1)),
        KeyDecl::counter(k(3), n(2), 0),
        KeyDecl::journal(k(13), n(2)),
    ])
}

fn visit(amount: i64, tag: u32) -> TxnPlan {
    TxnPlan::commuting(
        SubtxnPlan::new(n(0))
            .update(k(1), UpdateOp::Add(amount))
            .update(k(11), UpdateOp::Append { amount, tag })
            .child(
                SubtxnPlan::new(n(1))
                    .update(k(2), UpdateOp::Add(amount))
                    .update(k(12), UpdateOp::Append { amount, tag }),
            )
            .child(
                SubtxnPlan::new(n(2))
                    .update(k(3), UpdateOp::Add(amount))
                    .update(k(13), UpdateOp::Append { amount, tag }),
            ),
    )
}

/// Data plane finishes in the first ~25ms of wall time; the advancement
/// (and the crash) comes much later, so the crash only races the control
/// plane — same shape as the DES acceptance tests.
fn arrivals() -> Vec<Arrival> {
    (0..20)
        .map(|i| Arrival::at(ms(i), visit(1 + i as i64 % 5, i as u32)))
        .collect()
}

/// Canonical store image (journals sorted — append order is meaningless
/// for commuting updates and genuinely varies across thread schedules).
fn store_image(node: &ThreeVNode) -> Vec<String> {
    let mut keys: Vec<Key> = node.store().keys().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| {
            let layout = node.store().layout(key).expect("key exists");
            let canon: Vec<String> = layout
                .into_iter()
                .map(|(v, value)| match value {
                    Value::Journal(mut entries) => {
                        entries.sort_by_key(|e| (e.txn, e.amount, e.tag));
                        format!("{v:?}:jrn{entries:?}")
                    }
                    other => format!("{v:?}:{other:?}"),
                })
                .collect();
            format!("{key:?} => {canon:?}")
        })
        .collect()
}

struct Outcome {
    stores: Vec<Vec<String>>,
    recoveries: u64,
    wal_records: u64,
}

/// One threaded run with per-node WALs under `dir`. The directory is
/// recreated fresh so the constructor takes the cold-start path (initial
/// checkpoint) rather than recovering a previous test's state.
fn run_threaded(dir: &Path, crashes: Vec<NodeCrash>) -> Outcome {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create WAL dir");

    let mut cfg = ShardedConfig::new(1, N_NODES)
        .advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(150),
            period: SimDuration::from_millis(10_000),
        })
        .durability(DurabilityMode::File {
            dir: dir.to_path_buf(),
            checkpoint_every: 32,
        });
    cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
    cfg.sim = SimConfig::seeded(7);
    cfg.sim.faults.crashes = crashes;
    let actors = build_sharded_actors(&schema(), &cfg, vec![arrivals()]);

    let (actors, _report) = ThreadedRun::run(
        actors,
        cfg.sim.clone(),
        Duration::from_millis(400),
        Duration::from_millis(400),
    );

    // Every visit commits in both the clean and the crashed run: the data
    // plane drained long before the crash window opens.
    let ClusterActor::Client(client) = &actors[N_NODES as usize + 1] else {
        panic!("last actor is the client");
    };
    let committed = client
        .records()
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count();
    assert_eq!(committed, arrivals().len(), "every visit commits");

    let ClusterActor::Coordinator(coord) = &actors[N_NODES as usize] else {
        panic!("actor N is the coordinator");
    };
    assert_eq!(coord.records().len(), 1, "exactly one advancement");

    let mut stores = Vec::new();
    let mut recoveries = 0;
    let mut wal_records = 0;
    for (i, actor) in actors.iter().take(N_NODES as usize).enumerate() {
        let ClusterActor::Node(node) = actor else {
            panic!("actors 0..N are nodes");
        };
        assert_eq!(
            (node.vu(), node.vr()),
            (VersionNo(2), VersionNo(1)),
            "node {i} version window after advancement"
        );
        assert!(node.is_quiescent(), "node {i} left in-flight state");
        stores.push(store_image(node));
        if i == CRASHED {
            recoveries = node.stats().recoveries;
            wal_records = node.stats().wal_records;
        }
    }
    Outcome {
        stores,
        recoveries,
        wal_records,
    }
}

fn temp_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("threev-recovery-{}-{label}", std::process::id()))
}

/// Acceptance: a node crashed mid-advancement on real threads restarts
/// from its on-disk checkpoint + WAL tail, rejoins via version skew, and
/// the cluster converges to the clean run's stores.
#[test]
fn file_backed_crash_recovery_converges_on_threads() {
    let clean_dir = temp_dir("clean");
    let crash_dir = temp_dir("crash");

    let clean = run_threaded(&clean_dir, Vec::new());
    assert!(clean.wal_records > 0, "file WAL saw traffic");

    // 155ms: five wall-clock milliseconds after the advancement trigger —
    // inside or immediately around the four-phase window. 30ms of dead
    // time guarantees the node misses live phase traffic and must be
    // carried by coordinator retransmits after restart.
    let crashed = run_threaded(
        &crash_dir,
        vec![NodeCrash {
            node: n(CRASHED as u16),
            at: ms(155),
            restart_after: SimDuration::from_millis(30),
        }],
    );
    assert!(
        crashed.recoveries >= 1,
        "node {CRASHED} never recovered from its file WAL"
    );
    for (i, (c, f)) in clean.stores.iter().zip(&crashed.stores).enumerate() {
        assert_eq!(c, f, "node {i} diverged after file-backed crash-restart");
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}
