//! One partition of [`ShardedCluster`] is the plain single-coordinator 3V
//! cluster of the paper: nodes `0..n`, coordinator `n`, client `n + 1`.
//!
//! Two kinds of test live here. The protocol basics (updates, reads,
//! advancement, GC, compensation, NC3V) run a three- or two-node cluster
//! through the driver every caller uses. The golden pins hash everything
//! observable about five fixed runs — transaction records, store layouts,
//! kernel message/timer/event counts — and compare against constants
//! recorded with the earlier dedicated single-cluster driver, so the
//! single-partition behaviour stays bit-identical across refactors.

use threev_analysis::{Auditor, TxnRecord, TxnStatus};
use threev_core::advance::AdvancementPolicy;
use threev_core::client::Arrival;
use threev_core::msg::Msg;
use threev_core::node::{BackendConfig, DurabilityMode};
use threev_model::{
    Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, TxnPlan, UpdateOp, Value, VersionNo,
};
use threev_shard::{ShardOutcome, ShardedCluster, ShardedConfig};
use threev_sim::{FaultPlane, FaultScope, NodeCrash, SimDuration, SimTime};

const P0: PartitionId = PartitionId(0);

fn k(i: u64) -> Key {
    Key(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}
fn ms(x: u64) -> SimTime {
    SimTime(x * 1_000)
}

fn single(schema: &Schema, cfg: ShardedConfig, arrivals: Vec<Arrival>) -> ShardedCluster {
    assert!(cfg.topology.is_single());
    ShardedCluster::new(schema, cfg, vec![arrivals])
}

/// Hospital-style schema over three nodes: one balance counter and one
/// charge journal per node.
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

/// A visit: root on node 0 charging nodes 0..=2.
fn visit(amount: i64) -> TxnPlan {
    visit_tagged(amount, 1)
}

fn visit_tagged(amount: i64, tag: u32) -> TxnPlan {
    let leg = |i: u16| {
        SubtxnPlan::new(n(i))
            .update(k(1 + u64::from(i)), UpdateOp::Add(amount))
            .update(k(11 + u64::from(i)), UpdateOp::Append { amount, tag })
    };
    TxnPlan::commuting(leg(0).child(leg(1)).child(leg(2)))
}

/// A balance inquiry across all three nodes.
fn inquiry() -> TxnPlan {
    let leg = |i: u16| {
        SubtxnPlan::new(n(i))
            .read(k(1 + u64::from(i)))
            .read(k(11 + u64::from(i)))
    };
    TxnPlan::read_only(leg(0).child(leg(1)).child(leg(2)))
}

// ---------------------------------------------------------------------
// Protocol basics
// ---------------------------------------------------------------------

#[test]
fn update_and_read_complete() {
    let arrivals = vec![
        Arrival::at(ms(1), visit(100)),
        Arrival::at(ms(50), inquiry()),
    ];
    let mut cluster = single(&schema(), ShardedConfig::new(1, 3), arrivals);
    let out = cluster.run(SimTime::MAX);
    assert!(matches!(out, ShardOutcome::Quiescent(_)));
    let records = cluster.partition_records(P0);
    assert_eq!(records.len(), 2);
    assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
    // The update ran at version 1, the read at version 0.
    assert_eq!(records[0].version, Some(VersionNo(1)));
    assert_eq!(records[1].version, Some(VersionNo(0)));
    // The read saw version-0 data: zero balances, empty journals.
    for obs in &records[1].reads {
        match &obs.value {
            Value::Counter(c) => assert_eq!(*c, 0),
            Value::Journal(j) => assert!(j.is_empty()),
            v => panic!("unexpected value {v}"),
        }
    }
    assert!(cluster.all_quiescent());
}

#[test]
fn reads_see_updates_after_advancement() {
    let arrivals = vec![
        Arrival::at(ms(1), visit(100)),
        Arrival::at(ms(200), inquiry()),
    ];
    let mut cluster = single(&schema(), ShardedConfig::new(1, 3), arrivals);
    // Let the update finish, then advance, then the read arrives.
    cluster.run_until(ms(100));
    cluster.trigger_advancement(P0);
    let out = cluster.run(SimTime::MAX);
    assert!(matches!(out, ShardOutcome::Quiescent(_)));
    let records = cluster.partition_records(P0);
    assert_eq!(records[1].version, Some(VersionNo(1)));
    let total: i64 = records[1]
        .reads
        .iter()
        .filter_map(|o| o.value.as_counter())
        .sum();
    assert_eq!(total, 300, "all three charges visible");
    assert_eq!(cluster.advancements(P0).len(), 1);
    let adv = &cluster.advancements(P0)[0];
    assert!(adv.p2_rounds >= 2, "two-round rule implies >= 2 polls");
    assert!(adv.total().as_micros() > 0);
}

#[test]
fn advancement_is_asynchronous_with_updates() {
    // Updates keep flowing while advancement runs; none is delayed.
    let mut arrivals: Vec<Arrival> = (0..200).map(|i| Arrival::at(ms(1 + i), visit(1))).collect();
    arrivals.push(Arrival::at(ms(400), inquiry()));
    let cfg = ShardedConfig::new(1, 3).advancement(AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(20),
        period: SimDuration::from_millis(40),
    });
    let mut cluster = single(&schema(), cfg, arrivals);
    // Periodic advancement re-arms forever, so run to a horizon instead
    // of quiescence and check the cluster drained.
    cluster.run_until(SimTime(60_000_000));
    assert!(cluster.all_quiescent());
    let records = cluster.partition_records(P0);
    assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
    assert!(cluster.advancements(P0).len() >= 3);
    // 3V bound: never more than three versions of any item.
    assert!(cluster.max_versions_high_water() <= 3);
    // Audit: serializability holds in the presence of advancement.
    let report = Auditor::new(records).check();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn versions_bounded_and_gc_runs() {
    let arrivals: Vec<Arrival> = (0..50).map(|i| Arrival::at(ms(i), visit(1))).collect();
    let cfg = ShardedConfig::new(1, 3).advancement(AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(5),
        period: SimDuration::from_millis(10),
    });
    let mut cluster = single(&schema(), cfg, arrivals);
    cluster.run(SimTime(30_000_000));
    assert!(cluster.max_versions_high_water() <= 3);
    let gc_runs: u64 = cluster
        .node_ids()
        .iter()
        .map(|&id| cluster.node(id).store_stats().gc_runs)
        .sum();
    assert!(gc_runs > 0, "gc must have run");
    // After quiesce + final GC, each node is down to <= 2 live versions.
    for i in 0..3 {
        assert!(cluster.node(n(i)).store().current_max_versions() <= 2);
    }
}

#[test]
fn deterministic_replay() {
    let build = || {
        let arrivals: Vec<Arrival> = (0..40).map(|i| Arrival::at(ms(i * 3), visit(1))).collect();
        let cfg = ShardedConfig::new(1, 3)
            .seed(99)
            .advancement(AdvancementPolicy::Periodic {
                first: SimDuration::from_millis(13),
                period: SimDuration::from_millis(29),
            });
        let mut cluster = single(&schema(), cfg, arrivals);
        cluster.run(SimTime(20_000_000));
        (
            cluster.now(),
            cluster.sim_stats(P0).messages,
            cluster.partition_records(P0).len(),
        )
    };
    assert_eq!(build(), build());
}

#[test]
fn compensation_erases_failed_transaction() {
    // Fail the node-2 leg of a visit; compensation must erase the
    // node-0 and node-1 effects.
    let arrivals = vec![
        Arrival::failing_at(ms(1), visit(100), n(2)),
        Arrival::at(ms(2), visit(7)), // a healthy one, same keys
    ];
    let mut cluster = single(&schema(), ShardedConfig::new(1, 3), arrivals);
    let out = cluster.run(SimTime::MAX);
    assert!(matches!(out, ShardOutcome::Quiescent(_)));
    let records = cluster.partition_records(P0);
    assert_eq!(records[0].status, TxnStatus::Aborted);
    assert_eq!(records[1].status, TxnStatus::Committed);
    // Current version (1) state: only the healthy visit's effects.
    for (node, counter_key, journal_key) in
        [(0u16, k(1), k(11)), (1, k(2), k(12)), (2, k(3), k(13))]
    {
        let store = cluster.node(n(node)).store();
        let layout = store.layout(counter_key).unwrap();
        let (_, latest) = layout.last().unwrap();
        assert_eq!(latest.as_counter(), Some(7), "node {node} counter");
        let layout = store.layout(journal_key).unwrap();
        let (_, latest) = layout.last().unwrap();
        assert_eq!(
            latest.as_journal().unwrap().len(),
            1,
            "node {node} journal has only the healthy entry"
        );
    }
    // Counters balanced: advancement still possible after compensation.
    cluster.trigger_advancement(P0);
    let out = cluster.run(SimTime::MAX);
    assert!(matches!(out, ShardOutcome::Quiescent(_)));
    assert_eq!(cluster.advancements(P0).len(), 1);
}

#[test]
fn non_commuting_transactions_commit_via_2pc() {
    let schema = Schema::new(vec![
        KeyDecl::register(k(1), n(0), 0),
        KeyDecl::register(k(2), n(1), 0),
    ]);
    let nc = TxnPlan::non_commuting(
        SubtxnPlan::new(n(0))
            .update(k(1), UpdateOp::Assign(5))
            .child(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Assign(6))),
    );
    let arrivals = vec![Arrival::at(ms(1), nc)];
    let cfg = ShardedConfig::new(1, 2).with_locks();
    let mut cluster = single(&schema, cfg, arrivals);
    let out = cluster.run(SimTime::MAX);
    assert!(matches!(out, ShardOutcome::Quiescent(_)));
    let records = cluster.partition_records(P0);
    assert_eq!(records[0].status, TxnStatus::Committed);
    let v1 = cluster.node(n(0)).store().layout(k(1)).unwrap();
    assert_eq!(v1.last().unwrap().1.as_register(), Some(5));
    let v2 = cluster.node(n(1)).store().layout(k(2)).unwrap();
    assert_eq!(v2.last().unwrap().1.as_register(), Some(6));
    assert!(cluster.all_quiescent());
    // Advancement drains NC counters too.
    cluster.trigger_advancement(P0);
    let out = cluster.run(SimTime::MAX);
    assert!(matches!(out, ShardOutcome::Quiescent(_)));
    assert_eq!(cluster.advancements(P0).len(), 1);
}

#[test]
fn nc_gate_holds_during_advancement() {
    // An NC transaction submitted mid-advancement waits for the gate
    // and still commits.
    let schema = Schema::new(vec![
        KeyDecl::register(k(1), n(0), 0),
        KeyDecl::counter(k(2), n(1), 0),
    ]);
    let nc = TxnPlan::non_commuting(SubtxnPlan::new(n(0)).update(k(1), UpdateOp::Assign(9)));
    // Keep version 1 busy so phase 2 takes a while.
    let busy: Vec<Arrival> = (0..30)
        .map(|i| {
            Arrival::at(
                ms(i),
                TxnPlan::commuting(SubtxnPlan::new(n(1)).update(k(2), UpdateOp::Add(1))),
            )
        })
        .collect();
    let mut arrivals = busy;
    arrivals.push(Arrival::at(ms(6), nc));
    let cfg = ShardedConfig::new(1, 2)
        .with_locks()
        .advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(5),
            period: SimDuration::from_secs(1000),
        });
    let mut cluster = single(&schema, cfg, arrivals);
    cluster.run_until(SimTime(30_000_000));
    assert!(cluster.all_quiescent());
    let records = cluster.partition_records(P0);
    assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
    let gated: u64 = cluster
        .node_ids()
        .iter()
        .map(|&id| cluster.node(id).stats().nc_gated)
        .sum();
    assert!(gated >= 1, "the NC txn should have hit the gate");
}

// ---------------------------------------------------------------------
// Golden pins
// ---------------------------------------------------------------------

/// FNV-1a hashes of [`fingerprint`] for each [`golden`] configuration,
/// recorded with the dedicated single-cluster driver this one replaced.
const GOLDEN: &[(&str, u64)] = &[
    ("plain", 0x87a4_8d63_4b5e_a61d),
    ("locks", 0x168f_06f2_019d_41ed),
    ("chaos", 0x6f66_03ba_5904_54ef),
    ("paged", 0x987f_5db3_e034_85a3),
    ("manual", 0x12c0_153c_4d4a_c9ba),
];

/// Forty hospital transactions, every fifth an inquiry.
fn hospital_arrivals() -> Vec<Arrival> {
    (0..40u64)
        .map(|i| {
            let plan = if i % 5 == 4 {
                inquiry()
            } else {
                visit_tagged(1 + i as i64 % 7, i as u32)
            };
            Arrival::at(SimTime(1_000 + i * 1_300), plan)
        })
        .collect()
}

fn periodic() -> AdvancementPolicy {
    AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(10),
        period: SimDuration::from_millis(20),
    }
}

/// One pinned run: what to build, an optional scripted advancement
/// trigger, and where to stop (`None` runs to quiescence).
struct Golden {
    schema: Schema,
    cfg: ShardedConfig,
    arrivals: Vec<Arrival>,
    trigger: Option<SimTime>,
    horizon: Option<SimTime>,
}

fn golden(name: &str) -> Golden {
    let periodic_run = |cfg: ShardedConfig| Golden {
        schema: schema(),
        cfg,
        arrivals: hospital_arrivals(),
        trigger: None,
        horizon: Some(ms(200)),
    };
    match name {
        "plain" => periodic_run(ShardedConfig::new(1, 3).seed(42).advancement(periodic())),
        // NC3V traffic: 2PC assignments racing commuting noise and reads.
        "locks" => {
            let schema = Schema::new(vec![
                KeyDecl::register(k(1), n(0), 0),
                KeyDecl::register(k(2), n(1), 0),
                KeyDecl::counter(k(3), n(1), 0),
            ]);
            let arrivals = (0..30u64)
                .map(|i| {
                    let plan = match i % 3 {
                        0 => TxnPlan::non_commuting(
                            SubtxnPlan::new(n(0))
                                .update(k(1), UpdateOp::Assign(i as i64))
                                .child(
                                    SubtxnPlan::new(n(1))
                                        .update(k(2), UpdateOp::Assign(i as i64 + 1)),
                                ),
                        ),
                        1 => {
                            TxnPlan::commuting(SubtxnPlan::new(n(1)).update(k(3), UpdateOp::Add(1)))
                        }
                        _ => TxnPlan::read_only(
                            SubtxnPlan::new(n(0))
                                .read(k(1))
                                .child(SubtxnPlan::new(n(1)).read(k(2)).read(k(3))),
                        ),
                    };
                    Arrival::at(SimTime(1_000 + i * 1_700), plan)
                })
                .collect();
            Golden {
                schema,
                cfg: ShardedConfig::new(1, 2)
                    .seed(7)
                    .with_locks()
                    .advancement(periodic()),
                arrivals,
                trigger: None,
                horizon: Some(ms(200)),
            }
        }
        // 5% control-plane loss, a node-1 crash-restart, in-memory WAL and
        // coordinator retransmission.
        "chaos" => {
            let coord = n(3);
            let mut cfg = ShardedConfig::new(1, 3)
                .seed(99)
                .advancement(periodic())
                .durability(DurabilityMode::Memory {
                    checkpoint_every: 16,
                });
            cfg.sim.faults = FaultPlane {
                drop_ppm: 50_000,
                scope: FaultScope::Links(
                    (0..3)
                        .flat_map(|i| [(coord, n(i)), (n(i), coord)])
                        .collect(),
                ),
                crashes: vec![NodeCrash {
                    node: n(1),
                    at: ms(90),
                    restart_after: SimDuration::from_millis(4),
                }],
                ..FaultPlane::default()
            };
            cfg.protocol.coordinator.retransmit = Some(SimDuration::from_millis(2));
            periodic_run(cfg)
        }
        "paged" => periodic_run(
            ShardedConfig::new(1, 3)
                .seed(5)
                .advancement(periodic())
                .backend(BackendConfig::paged_scratch("golden-p1")),
        ),
        // Manual advancement, triggered by a scripted `inject_at`.
        "manual" => Golden {
            trigger: Some(SimTime(20_500)),
            horizon: None,
            ..periodic_run(ShardedConfig::new(1, 3).seed(11))
        },
        other => panic!("no golden configuration {other}"),
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything observable about a finished run, via `Debug`
/// canonicalisation: records, every node's version window and store
/// layouts, and the kernel's message/timer/event counts.
fn fingerprint(cluster: &ShardedCluster) -> u64 {
    use std::fmt::Write as _;
    let mut out = String::new();
    let records: &[TxnRecord] = cluster.partition_records(P0);
    for r in records {
        let _ = writeln!(out, "{r:?}");
    }
    for id in cluster.node_ids() {
        let node = cluster.node(id);
        let mut keys: Vec<_> = node.store().keys().collect();
        keys.sort_unstable();
        let _ = writeln!(out, "vu={:?} vr={:?}", node.vu(), node.vr());
        for key in keys {
            let _ = writeln!(out, "  {key:?} => {:?}", node.store().layout(key));
        }
    }
    let stats = cluster.sim_stats(P0);
    let _ = writeln!(
        out,
        "messages={} timers={} events={}",
        stats.messages, stats.timers, stats.events
    );
    fnv1a64(out.as_bytes())
}

/// One partition reproduces, bit for bit, the runs recorded with the
/// dedicated single-cluster driver: plain, NC3V, lossy with a crash, paged
/// storage, and a scripted manual trigger.
#[test]
fn single_partition_matches_golden_hashes() {
    for &(name, want) in GOLDEN {
        let g = golden(name);
        let mut cluster = single(&g.schema, g.cfg, g.arrivals);
        if let Some(at) = g.trigger {
            let topo = cluster.topology();
            cluster.inject_at(
                at,
                topo.client(P0),
                topo.coordinator(P0),
                Msg::TriggerAdvancement,
            );
        }
        match g.horizon {
            Some(h) => cluster.run_until(h),
            None => assert!(matches!(
                cluster.run(SimTime::MAX),
                ShardOutcome::Quiescent(_)
            )),
        }
        assert_eq!(cluster.cross_messages(), 0, "{name}");
        assert!(cluster.all_quiescent(), "{name}");
        if name == "chaos" {
            let stats = cluster.sim_stats(P0);
            assert_eq!(stats.crashes, 1);
            assert!(stats.dropped > 0);
            assert_eq!(cluster.node(n(1)).stats().recoveries, 1);
        }
        let got = fingerprint(&cluster);
        assert_eq!(got, want, "{name}: {got:#018x} != pinned {want:#018x}");
    }
}
