//! Cross-driver equivalence: the discrete-event simulator and the
//! real-thread runtime run the *same* sans-io engine code, so a commuting
//! workload must leave bit-identical final stores under both drivers.
//!
//! Timing differs wildly (virtual LAN latencies vs OS scheduling), so
//! per-transaction latencies and journal *entry order* are driver-specific.
//! But journals are semantically sets (appends commute; see
//! `threev_model::value`), so the comparison canonicalises each journal by
//! sorting its entries. Counters need no canonicalisation: addition
//! commutes outright. Everything else — which versions exist, which keys
//! hold what — must match exactly.

use std::time::Duration;

use threev::shard::threaded::build_sharded_actors;
use threev::shard::{ShardedCluster, ShardedConfig};
use threev_core::client::Arrival;
use threev_core::cluster::ClusterActor;
use threev_core::node::ThreeVNode;
use threev_model::{Key, NodeId, PartitionId, TxnId, Value};
use threev_runtime::ThreadedRun;
use threev_sim::{SimDuration, SimTime};
use threev_workload::HospitalWorkload;

use threev_analysis::TxnStatus;

fn workload() -> HospitalWorkload {
    HospitalWorkload {
        departments: 3,
        patients: 10,
        rate_tps: 1_000.0,
        read_pct: 20,
        max_fanout: 3,
        duration: SimDuration::from_millis(50),
        zipf_s: 0.8,
        seed: 0xD21,
    }
}

/// Canonical per-node store image: every key, every version, with journal
/// entries sorted (order carries no meaning for commuting appends).
fn store_image(node: &ThreeVNode) -> Vec<String> {
    let mut keys: Vec<Key> = node.store().keys().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let layout = node.store().layout(k).expect("key exists");
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
            format!("{k:?} => {canon:?}")
        })
        .collect()
}

/// One driver's outcome: committed transaction ids and the store images.
struct Outcome {
    committed: Vec<TxnId>,
    stores: Vec<Vec<String>>,
}

fn des_outcome(arrivals: Vec<Arrival>) -> Outcome {
    let w = workload();
    // `THREEV_BACKEND=paged` runs the DES side over the on-disk backend
    // (fresh scratch dir); the threaded side keeps its own hook below, so
    // the equivalence also spans storage backends.
    let cfg = ShardedConfig::new(1, w.departments)
        .backend(threev::testutil::backend_from_env("driver-eq-des"));
    let mut cluster = ShardedCluster::new(&w.schema(), cfg, vec![arrivals]);
    cluster.run(SimTime::MAX);
    let mut committed: Vec<TxnId> = cluster
        .partition_records(PartitionId(0))
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .map(|r| r.id)
        .collect();
    committed.sort_unstable();
    Outcome {
        committed,
        stores: (0..w.departments)
            .map(|i| store_image(cluster.node(NodeId(i))))
            .collect(),
    }
}

fn threaded_outcome(arrivals: Vec<Arrival>) -> Outcome {
    let w = workload();
    let cfg = ShardedConfig::new(1, w.departments)
        .backend(threev::testutil::backend_from_env("driver-eq-threaded"));
    let actors = build_sharded_actors(&w.schema(), &cfg, vec![arrivals]);
    let (actors, report) = ThreadedRun::run(
        actors,
        cfg.sim.clone(),
        // The 50ms arrival window plus a wide completion margin: CI boxes
        // under load must still drain every in-flight tree.
        Duration::from_millis(400),
        Duration::from_millis(300),
    );
    let batches: u64 = report.batches_per_actor.iter().sum();
    assert!(batches > 0, "threaded run must batch");
    // The unified transport with faults disabled must behave as a pure
    // pipe on the wire, too: no drops, duplicates, or fault reorderings.
    let mut totals = threev_sim::LinkStats::default();
    for t in &report.transport_per_actor {
        totals.add(t);
    }
    assert!(totals.sent > 0, "transport must carry the run's traffic");
    assert_eq!(
        (totals.dropped, totals.duplicated, totals.reordered),
        (0, 0, 0),
        "no-fault threaded run must not drop/duplicate/reorder"
    );
    let mut stores = Vec::new();
    let mut committed = Vec::new();
    for actor in &actors {
        match actor {
            ClusterActor::Node(n) => stores.push(store_image(n)),
            ClusterActor::Client(c) => {
                for r in c.records() {
                    assert_eq!(
                        r.status,
                        TxnStatus::Committed,
                        "txn {:?} unfinished — raise the drain margin?",
                        r.id
                    );
                    committed.push(r.id);
                }
            }
            ClusterActor::Coordinator(_) => {}
        }
    }
    committed.sort_unstable();
    Outcome { committed, stores }
}

#[test]
fn des_and_threads_reach_identical_stores() {
    let arrivals = workload().arrivals();
    assert!(!arrivals.is_empty());

    let des = des_outcome(arrivals.clone());
    assert_eq!(
        des.committed.len(),
        arrivals.len(),
        "DES commits everything"
    );

    let threaded = threaded_outcome(arrivals);
    assert_eq!(des.committed, threaded.committed, "txn sets");
    for (i, (d, t)) in des.stores.iter().zip(&threaded.stores).enumerate() {
        assert_eq!(d, t, "node {i} store diverged");
    }
}
