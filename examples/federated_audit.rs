//! Federated-database flavour (paper §8): autonomous member databases, no
//! global commitment for the well-behaved traffic — and a demonstration of
//! §3.2 compensation: a failed leg of a multi-database transaction is
//! erased everywhere by compensating subtransactions, invisibly to reads.
//!
//! ```text
//! cargo run --release --example federated_audit
//! ```

use threev::analysis::{Auditor, TxnStatus};
use threev::core::client::Arrival;
use threev::model::{Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, TxnPlan, UpdateOp};
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::SimTime;

fn main() {
    // Three autonomous member databases, each with a ledger journal.
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    let ledger = |m: NodeId| Key(1000 + m.0 as u64);
    let schema = Schema::new(
        members
            .iter()
            .map(|&m| KeyDecl::journal(ledger(m), m))
            .collect(),
    );

    // A federated posting writes all three ledgers.
    let posting = |amount: i64, tag: u32| {
        TxnPlan::commuting(
            SubtxnPlan::new(members[0])
                .update(ledger(members[0]), UpdateOp::Append { amount, tag })
                .child(
                    SubtxnPlan::new(members[1])
                        .update(ledger(members[1]), UpdateOp::Append { amount, tag }),
                )
                .child(
                    SubtxnPlan::new(members[2])
                        .update(ledger(members[2]), UpdateOp::Append { amount, tag }),
                ),
        )
    };
    let audit_plan = TxnPlan::read_only(
        SubtxnPlan::new(members[0])
            .read(ledger(members[0]))
            .child(SubtxnPlan::new(members[1]).read(ledger(members[1])))
            .child(SubtxnPlan::new(members[2]).read(ledger(members[2]))),
    );

    let ms = |x: u64| SimTime(x * 1_000);
    let arrivals = vec![
        Arrival::at(ms(1), posting(100, 1)),
        // This posting's member-2 leg fails — §3.2 compensation kicks in.
        Arrival::failing_at(ms(2), posting(999, 2), members[2]),
        Arrival::at(ms(3), posting(250, 3)),
        Arrival::at(ms(120), audit_plan),
    ];

    let mut cluster = ShardedCluster::new(&schema, ShardedConfig::new(1, 3), vec![arrivals]);
    cluster.run_until(ms(100));
    cluster.trigger_advancement(PartitionId(0)); // publish the postings for auditing
    cluster.run(SimTime(60_000_000));

    let records = cluster.records();
    for r in &records {
        println!("{} {:<11} -> {:?}", r.id, r.kind.to_string(), r.status);
    }
    assert_eq!(records[1].status, TxnStatus::Aborted, "failed posting");

    // The auditor's read (version 1) must see postings 1 and 3 on every
    // ledger, and NO trace of the compensated posting 2.
    let audit_rec = records.last().unwrap();
    for obs in &audit_rec.reads {
        let entries = obs.value.as_journal().unwrap();
        let tags: Vec<u32> = entries.iter().map(|e| e.tag).collect();
        println!("ledger {} sees postings tagged {tags:?}", obs.key);
        assert!(tags.contains(&1) && tags.contains(&3));
        assert!(!tags.contains(&2), "compensated posting leaked!");
    }

    let audit = Auditor::new(&records).check();
    assert!(audit.clean(), "{audit:?}");
    let comps: u64 = members
        .iter()
        .map(|&id| cluster.node(id).stats().compensations_applied)
        .sum();
    println!("\ncompensating subtransactions applied: {comps}; audit CLEAN");
}
