//! Property-based NC3V coverage (paper §5), at the unit level rather than
//! only end-to-end:
//!
//! * the lock-compatibility table, directly against
//!   [`threev::storage::LockTable`]: commute/commute is the only compatible
//!   pair, commute-only workloads never wait or die, and exclusive holders
//!   exclude everything under wait-die discipline;
//! * wait-die soundness over random mixed acquire/release sequences —
//!   granted holders stay pairwise compatible, waiters are strictly older
//!   than every conflicting holder, and full release always drains the
//!   table;
//! * the `vu == vr + 1` gate: randomized NC transactions racing a
//!   randomized advancement must all commit, with idle lock tables and
//!   balanced gate statistics at quiescence.

use proptest::prelude::*;
use threev::analysis::TxnStatus;
use threev::core::advance::AdvancementPolicy;
use threev::core::Arrival;
use threev::model::{
    Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, TxnId, TxnPlan, UpdateOp,
};
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{SimDuration, SimTime};
use threev::storage::{LockDecision, LockMode, LockTable};

/// The one partition every run here uses.
const P0: PartitionId = PartitionId(0);

fn t(seq: u64) -> TxnId {
    TxnId::new(seq, NodeId(0))
}

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn k(i: u64) -> Key {
    Key(i)
}

fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

/// §5: "Commuting locks are compatible with each other but not with their
/// non-commuting counterparts." The whole matrix, both orders.
#[test]
fn compatibility_matrix_is_commute_commute_only() {
    use LockMode::*;
    for (a, b) in [
        (Commute, Commute),
        (Commute, Exclusive),
        (Exclusive, Commute),
        (Exclusive, Exclusive),
    ] {
        assert_eq!(
            a.compatible(b),
            a == Commute && b == Commute,
            "compatible({a:?}, {b:?})"
        );
        assert_eq!(a.compatible(b), b.compatible(a), "matrix must be symmetric");
    }
}

/// One randomly generated lock-table operation.
#[derive(Clone, Debug)]
enum LockOp {
    Acquire { txn: u64, key: u64, exclusive: bool },
    Release { txn: u64 },
}

fn lock_op(txns: u64, keys: u64) -> impl Strategy<Value = LockOp> {
    prop_oneof![
        4 => (0..txns, 0..keys, any::<bool>())
            .prop_map(|(txn, key, exclusive)| LockOp::Acquire { txn, key, exclusive }),
        1 => (0..txns).prop_map(|txn| LockOp::Release { txn }),
    ]
}

proptest! {
    /// §5: "in the absence of non-well-behaved transactions, there is no
    /// wait to obtain a commute lock" — any interleaving of commute
    /// acquisitions and releases is granted immediately, and releasing
    /// everything leaves the table idle.
    #[test]
    fn commute_only_workloads_never_wait(
        ops in proptest::collection::vec(lock_op(8, 4), 1..80),
    ) {
        let mut lt = LockTable::new();
        for op in &ops {
            match *op {
                LockOp::Acquire { txn, key, .. } => {
                    let d = lt.acquire(k(key), LockMode::Commute, t(txn));
                    prop_assert_eq!(d, LockDecision::Granted, "commute acquire blocked: {:?}", op);
                }
                LockOp::Release { txn } => {
                    // No waiters exist, so a release can never grant.
                    prop_assert!(lt.release_all(t(txn)).is_empty());
                }
            }
        }
        prop_assert_eq!(lt.waits, 0);
        prop_assert_eq!(lt.die_aborts, 0);
        for txn in 0..8 {
            lt.release_all(t(txn));
        }
        prop_assert!(lt.is_idle(), "table not drained after full release");
    }

    /// Wait-die soundness over random mixed workloads, checked against the
    /// exported table state after every operation:
    ///
    /// * holders of different transactions are pairwise compatible;
    /// * `Waiting` is only returned to a requester strictly older than
    ///   every conflicting holder (the "wait" half of wait-die);
    /// * `Abort` is only returned when a conflicting younger-blocking
    ///   holder or waiter exists (the "die" half);
    /// * releasing every transaction drains the table completely.
    #[test]
    fn wait_die_discipline_holds(
        ops in proptest::collection::vec(lock_op(10, 3), 1..120),
    ) {
        let mut lt = LockTable::new();
        for op in &ops {
            match *op {
                LockOp::Acquire { txn, key, exclusive } => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Commute };
                    // Snapshot the state the decision was made against.
                    let before = lt.export_parts();
                    let pre = before.iter().find(|(pk, ..)| *pk == k(key));
                    let conflicting_elder = pre.is_some_and(|(_, holders, waiters)| {
                        holders.iter().any(|(h, m, _)| *h != t(txn) && !m.compatible(mode) && t(txn) > *h)
                            || waiters.iter().any(|(w, m)| *w != t(txn) && !m.compatible(mode) && t(txn) > *w)
                    });
                    let d = lt.acquire(k(key), mode, t(txn));
                    match d {
                        LockDecision::Granted => {}
                        LockDecision::Waiting => prop_assert!(
                            !conflicting_elder,
                            "{:?} waited behind an older conflicting txn (deadlock risk)", op
                        ),
                        LockDecision::Abort => prop_assert!(
                            conflicting_elder,
                            "{:?} died with no older conflicting holder/waiter", op
                        ),
                    }
                }
                LockOp::Release { txn } => {
                    for (gtxn, _, _) in lt.release_all(t(txn)) {
                        prop_assert!(gtxn != t(txn), "released txn was granted its own lock");
                    }
                }
            }
            // Global invariant: holders on a key are pairwise compatible
            // (or the same transaction, e.g. after an upgrade).
            for (key, holders, _) in lt.export_parts() {
                for (i, (ta, ma, _)) in holders.iter().enumerate() {
                    for (tb, mb, _) in &holders[i + 1..] {
                        prop_assert!(
                            ta == tb || ma.compatible(*mb),
                            "incompatible co-holders {ta:?}/{tb:?} on {key:?}"
                        );
                    }
                }
            }
        }
        for txn in 0..10 {
            lt.release_all(t(txn));
        }
        prop_assert!(lt.is_idle(), "table not drained after releasing every txn");
    }

    /// Exclusive really excludes: against a held exclusive lock, no other
    /// transaction is ever granted — an older requester waits, a younger
    /// one dies, in either request mode.
    #[test]
    fn exclusive_excludes_all_comers(
        holder in 20u64..40,
        delta in 1u64..20,
        req_exclusive in any::<bool>(),
    ) {
        let mode = if req_exclusive { LockMode::Exclusive } else { LockMode::Commute };
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(k(1), LockMode::Exclusive, t(holder)), LockDecision::Granted);
        prop_assert_eq!(lt.acquire(k(1), mode, t(holder - delta)), LockDecision::Waiting);
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(k(1), LockMode::Exclusive, t(holder)), LockDecision::Granted);
        prop_assert_eq!(lt.acquire(k(1), mode, t(holder + delta)), LockDecision::Abort);
    }

    /// The §5 admission gate: NC transactions submitted while an
    /// advancement holds the version window open (`vu == vr + 2`) are
    /// parked until `vr` catches up — and regardless of how arrivals and
    /// the trigger interleave, every transaction commits and every node's
    /// lock table is empty at quiescence.
    #[test]
    fn nc_gate_admits_everything_eventually(
        trigger_ms in 1u64..12,
        nc1_ms in 0u64..15,
        nc2_ms in 0u64..15,
        busy in 4u64..24,
    ) {
        let schema = Schema::new(vec![
            KeyDecl::register(k(1), n(0), 0),
            KeyDecl::register(k(2), n(1), 0),
            KeyDecl::counter(k(3), n(1), 0),
        ]);
        // Commuting traffic keeps the old update version busy so Phase 2
        // lasts long enough for the gate to matter.
        let mut arrivals: Vec<Arrival> = (0..busy)
            .map(|i| Arrival::at(
                ms(i),
                TxnPlan::commuting(SubtxnPlan::new(n(1)).update(k(3), UpdateOp::Add(1))),
            ))
            .collect();
        arrivals.push(Arrival::at(ms(nc1_ms), TxnPlan::non_commuting(
            SubtxnPlan::new(n(0))
                .update(k(1), UpdateOp::Assign(5))
                .child(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Assign(6))),
        )));
        arrivals.push(Arrival::at(ms(nc2_ms), TxnPlan::non_commuting(
            SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Assign(7)),
        )));
        let cfg = ShardedConfig::new(1, 2)
            .with_locks()
            .advancement(AdvancementPolicy::Periodic {
                first: SimDuration::from_millis(trigger_ms),
                period: SimDuration::from_secs(1000),
            });
        let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
        cluster.run_until(SimTime(60_000_000));
        prop_assert!(cluster.all_quiescent(), "cluster failed to quiesce");
        for r in cluster.partition_records(P0) {
            prop_assert_eq!(
                r.status, TxnStatus::Committed,
                "{:?} did not commit (trigger={}ms)", r.id, trigger_ms
            );
        }
        for i in 0..2u16 {
            prop_assert!(
                cluster.node(n(i)).locks().is_idle(),
                "node {i} lock table has residue at quiescence"
            );
        }
    }
}

/// Deterministic witness that the gate actually closes: with the
/// advancement pinned mid-stream, the NC transaction must be counted at
/// the `vu == vr + 1` gate at least once, and still commit.
#[test]
fn nc_gate_observably_parks_and_releases() {
    let schema = Schema::new(vec![
        KeyDecl::register(k(1), n(0), 0),
        KeyDecl::counter(k(2), n(1), 0),
    ]);
    let nc = TxnPlan::non_commuting(SubtxnPlan::new(n(0)).update(k(1), UpdateOp::Assign(9)));
    let mut arrivals: Vec<Arrival> = (0..30)
        .map(|i| {
            Arrival::at(
                ms(i),
                TxnPlan::commuting(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Add(1))),
            )
        })
        .collect();
    arrivals.push(Arrival::at(ms(6), nc));
    let cfg = ShardedConfig::new(1, 2)
        .with_locks()
        .advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(5),
            period: SimDuration::from_secs(1000),
        });
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
    // run_until, not run-to-quiescence: the periodic advancement timer
    // re-arms forever, so the event queue never drains.
    cluster.run_until(SimTime(30_000_000));
    assert!(cluster.all_quiescent());
    assert!(cluster
        .partition_records(P0)
        .iter()
        .all(|r| r.status == TxnStatus::Committed));
    let gated: u64 = cluster
        .node_ids()
        .iter()
        .map(|&id| cluster.node(id).stats().nc_gated)
        .sum();
    assert!(gated >= 1, "NC txn should have been parked at the gate");
    assert!(cluster.node(n(0)).locks().is_idle() && cluster.node(n(1)).locks().is_idle());
}
