//! Quickstart: a two-node 3V cluster in ~50 lines.
//!
//! A multi-node update transaction (the paper's hospital visit) and a
//! multi-node read-only inquiry run concurrently; then a version
//! advancement makes the update visible to later reads — with no user
//! transaction ever waiting on anything remote.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use threev::core::client::Arrival;
use threev::model::{Key, KeyDecl, NodeId, PartitionId, Schema, SubtxnPlan, TxnPlan, UpdateOp};
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::SimTime;

fn main() {
    // Two departments, one balance counter each.
    let radiology = NodeId(0);
    let pediatrics = NodeId(1);
    let schema = Schema::new(vec![
        KeyDecl::counter(Key(1), radiology, 0),
        KeyDecl::counter(Key(2), pediatrics, 0),
    ]);

    // T1 = {w11(x1), w12(x2)}: one visit charging both departments.
    let visit = TxnPlan::commuting(
        SubtxnPlan::new(radiology)
            .update(Key(1), UpdateOp::Add(120))
            .child(SubtxnPlan::new(pediatrics).update(Key(2), UpdateOp::Add(80))),
    );
    // T2 = {r21(x1), r22(x2)}: a balance inquiry across both departments.
    let inquiry = || {
        TxnPlan::read_only(
            SubtxnPlan::new(radiology)
                .read(Key(1))
                .child(SubtxnPlan::new(pediatrics).read(Key(2))),
        )
    };

    let arrivals = vec![
        Arrival::at(SimTime(1_000), visit),
        Arrival::at(SimTime(1_100), inquiry()), // races the visit
        Arrival::at(SimTime(200_000), inquiry()), // after advancement
    ];

    // One partition of two nodes: nodes 0 and 1, coordinator 2, client 3.
    let p0 = PartitionId(0);
    let mut cluster = ShardedCluster::new(&schema, ShardedConfig::new(1, 2), vec![arrivals]);

    // Let the visit and the first inquiry finish, then advance versions.
    cluster.run_until(SimTime(100_000));
    cluster.trigger_advancement(p0);
    cluster.run(SimTime(10_000_000));

    let records = cluster.records();
    for record in &records {
        let total: i64 = record
            .reads
            .iter()
            .filter_map(|o| o.value.as_counter())
            .sum();
        println!(
            "{} {:<13} version {:?} status {:?}{}",
            record.id,
            record.kind.to_string(),
            record.version.expect("versioned engine"),
            record.status,
            if record.reads.is_empty() {
                String::new()
            } else {
                format!("  -> read total balance {total}")
            }
        );
    }

    // The racing inquiry read version 0 (total 0): it saw either ALL of the
    // visit or NONE of it — never a partial charge. The late inquiry read
    // version 1 (total 200).
    let late = records.last().unwrap();
    let total: i64 = late.reads.iter().filter_map(|o| o.value.as_counter()).sum();
    assert_eq!(total, 200);
    println!(
        "\nadvancements: {}; max live versions of any item: {} (3V bound: <= 3)",
        cluster.advancements(p0).len(),
        cluster.max_versions_high_water()
    );
}
