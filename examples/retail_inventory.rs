//! Point-of-sale retail with NC3V: commuting sales, read-only revenue
//! audits, and *non-commuting* price changes handled by the §5 extension —
//! exclusive locks, the `vu == vr + 1` gate, and two-phase commitment.
//!
//! ```text
//! cargo run --release --example retail_inventory
//! ```

use threev::analysis::{RunSummary, TxnStatus};
use threev::core::advance::AdvancementPolicy;
use threev::model::TxnKind;
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{SimDuration, SimTime};
use threev::workload::RetailWorkload;

fn main() {
    let workload = RetailWorkload {
        stores: 4,
        products: 200,
        rate_tps: 5_000.0,
        read_pct: 15,
        nc_pct: 3,
        duration: SimDuration::from_millis(800),
        zipf_s: 1.1,
        seed: 88,
    };
    let schema = workload.schema();
    let arrivals = workload.arrivals();
    println!(
        "retail: {} stores, {} products, {} transactions (3% price changes)\n",
        workload.stores,
        workload.products,
        arrivals.len()
    );

    let cfg = ShardedConfig::new(1, workload.stores)
        .with_locks() // NC3V mode: the workload has non-commuting txns
        .advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(80),
            period: SimDuration::from_millis(80),
        });
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
    cluster.run_until(SimTime(5_000_000));

    let records = cluster.records();
    let summary = RunSummary::from_records(&records, SimTime::ZERO, cluster.now());
    println!(
        "committed: {} audits, {} sales, {} price changes; {} aborted",
        summary.committed.0, summary.committed.1, summary.committed.2, summary.aborted
    );

    // Per-kind latency: sales stay fast; price changes pay for 2PC.
    let (sale_p99, price_p99) = {
        use threev::analysis::Histogram;
        let mut sales = Histogram::new();
        let mut prices = Histogram::new();
        for r in &records {
            if r.status != TxnStatus::Committed {
                continue;
            }
            if let Some(l) = r.latency() {
                match r.kind {
                    TxnKind::Commuting => sales.record(l.as_micros()),
                    TxnKind::NonCommuting => prices.record(l.as_micros()),
                    TxnKind::ReadOnly => {}
                }
            }
        }
        (sales.p99(), prices.p99())
    };
    println!("sale p99: {sale_p99}us   price-change p99 (NC3V + 2PC): {price_p99}us");

    // NC3V bookkeeping across the cluster.
    let (mut gated, mut commits, mut stale_aborts) = (0, 0, 0);
    for id in cluster.node_ids() {
        let s = cluster.node(id).stats();
        gated += s.nc_gated;
        commits += s.nc_commits;
        stale_aborts += s.nc_stale_aborts;
    }
    println!(
        "NC3V: {commits} participant commits, {gated} roots gated at vu==vr+1, \
         {stale_aborts} stale-version aborts"
    );
    println!(
        "max live versions of any item: {} (bound: 3)",
        cluster.max_versions_high_water()
    );
    assert!(cluster.max_versions_high_water() <= 3);
}
