//! Property: version advancement is fault-tolerant.
//!
//! The coordinator's four-phase protocol runs over the unified transport
//! with the fault plane enabled on every coordinator↔node link: messages
//! drop, duplicate, suffer delay spikes — and one database node is paused
//! across the advancement window. With retransmission enabled
//! ([`threev::core::advance::CoordinatorConfig::retransmit`]) and every
//! handler idempotent, the advancement must still complete exactly once:
//! every node reaches `vr + 1`, and the final stores are identical to a
//! zero-fault run of the same workload.
//!
//! Faults are scoped to the *control plane* only (the coordinator's
//! links). The data plane stays clean, so completion counters balance and
//! convergence is well-defined; making subtransaction delivery itself
//! reliable is a different protocol (§6 of the paper leaves it to the
//! network layer).

use proptest::prelude::*;
use threev::analysis::TxnStatus;
use threev::core::advance::AdvancementPolicy;
use threev::core::client::Arrival;
use threev::core::node::ThreeVNode;
use threev::model::{
    Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, TxnPlan, UpdateOp, Value, VersionNo,
};
use threev::shard::{ShardOutcome, ShardedCluster, ShardedConfig};
use threev::sim::{FaultPlane, FaultScope, LatencyModel, NodePause, SimDuration, SimTime};

const N_NODES: u16 = 3;

/// The one partition every run here uses.
const P0: PartitionId = PartitionId(0);
/// Actor id of the coordinator (nodes occupy `0..N_NODES`).
const COORD: NodeId = NodeId(N_NODES);
/// The node paused across the advancement window.
const PAUSED: NodeId = NodeId(1);

fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

fn k(i: u64) -> Key {
    Key(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// Hospital-style schema: one balance counter and one charge journal per
/// node.
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

/// A visit: root on node 0 charging all three nodes.
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

fn arrivals() -> Vec<Arrival> {
    (0..20)
        .map(|i| Arrival::at(ms(i), visit(1 + i as i64 % 5, i as u32)))
        .collect()
}

/// Every coordinator↔node link, both directions. Client links are
/// excluded (the client is not part of the advancement protocol).
fn control_plane_links() -> Vec<(NodeId, NodeId)> {
    (0..N_NODES)
        .flat_map(|i| [(COORD, n(i)), (n(i), COORD)])
        .collect()
}

/// Canonical per-node store image; journal entry order carries no meaning
/// for commuting appends, so entries are sorted.
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
    committed: usize,
}

/// Run the workload, trigger one advancement mid-pause, and drive the
/// cluster to quiescence. `faults == None` is the clean reference run.
fn run(seed: u64, faults: Option<FaultPlane>) -> Outcome {
    let faulty = faults.is_some();
    let mut cfg = ShardedConfig::new(1, N_NODES)
        .seed(seed)
        .advancement(AdvancementPolicy::Manual);
    cfg.sim.latency = LatencyModel::Uniform {
        min: SimDuration::from_micros(50),
        max: SimDuration::from_micros(150),
    };
    if let Some(plane) = faults {
        cfg.sim.faults = plane;
        // Retransmit is what buys liveness on the lossy control plane.
        cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
    }
    let mut cluster = ShardedCluster::new(&schema(), cfg, vec![arrivals()]);
    // Trigger the advancement while the paused node is still frozen and
    // data-plane work is still in flight: phase 2 must poll through both.
    cluster.run_until(ms(30));
    cluster.trigger_advancement(P0);
    let out = cluster.run(SimTime(60_000_000_000));
    assert!(
        matches!(out, ShardOutcome::Quiescent(_)),
        "cluster failed to quiesce (seed {seed}, faulty {faulty}): {out:?}"
    );

    if faulty {
        let stats = cluster.sim_stats(P0);
        assert!(
            stats.dropped > 0,
            "fault plane must actually drop (seed {seed}): {stats:?}"
        );
        assert!(
            stats.duplicated > 0,
            "fault plane must actually duplicate (seed {seed}): {stats:?}"
        );
    }

    // Exactly one advancement, fully recorded, on every node.
    assert_eq!(
        cluster.advancements(P0).len(),
        1,
        "exactly one advancement must complete (seed {seed}, faulty {faulty})"
    );
    for i in 0..N_NODES {
        let node = cluster.node(n(i));
        assert_eq!(
            (node.vu(), node.vr()),
            (VersionNo(2), VersionNo(1)),
            "node {i} version window after advancement (seed {seed}, faulty {faulty})"
        );
        assert!(node.is_quiescent(), "node {i} left in-flight state");
    }
    assert!(cluster.max_versions_high_water() <= 3, "3V bound violated");

    let committed = cluster
        .partition_records(P0)
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count();
    assert_eq!(committed, arrivals().len(), "every visit commits");

    Outcome {
        stores: (0..N_NODES)
            .map(|i| store_image(cluster.node(n(i))))
            .collect(),
        committed,
    }
}

/// The fault plane under test: `drop_ppm` loss + 10% duplication + 5%
/// delay spikes on every coordinator link, and one DB node paused over
/// the advancement trigger.
fn plane(drop_ppm: u32) -> FaultPlane {
    FaultPlane {
        drop_ppm,
        dup_ppm: 100_000,
        delay_ppm: 50_000,
        scope: FaultScope::Links(control_plane_links()),
        pauses: vec![NodePause {
            node: PAUSED,
            from: ms(10),
            until: ms(50),
        }],
        ..FaultPlane::default()
    }
}

/// One seed, one loss rate: the faulty run must converge to the clean
/// run's stores.
fn check(seed: u64, drop_ppm: u32) {
    let clean = run(seed, None);
    let faulty = run(seed, Some(plane(drop_ppm)));
    assert_eq!(clean.committed, faulty.committed);
    for (i, (c, f)) in clean.stores.iter().zip(&faulty.stores).enumerate() {
        assert_eq!(
            c, f,
            "node {i} diverged under faults (seed {seed}, drop {drop_ppm}ppm)"
        );
    }
}

/// The acceptance gate: 20% loss + duplication + a paused node, on ten
/// consecutive seeds.
#[test]
fn advancement_completes_at_20pct_loss_ten_seeds() {
    for seed in 1..=10u64 {
        check(seed, 200_000);
    }
}

#[test]
fn advancement_completes_at_5pct_loss() {
    for seed in 1..=4u64 {
        check(seed, 50_000);
    }
}

/// CI fault-matrix hook: pin the seed from the environment so the matrix
/// can sweep seeds without recompiling.
#[test]
fn advancement_completes_at_env_seed() {
    let seed = threev::testutil::fault_seed_or(0xFA17);
    check(seed, 200_000);
    check(seed, 50_000);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs three full clusters (clean + two loss rates)
        .. ProptestConfig::default()
    })]

    #[test]
    fn advancement_converges_under_faults(seed in any::<u64>()) {
        check(seed, 50_000);
        check(seed, 200_000);
    }
}
