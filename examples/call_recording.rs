//! Telephone call recording — the application that motivated the paper —
//! contrasted against running the very same workload with no coordination:
//! 3V keeps bills exact while the uncoordinated system bills partial calls.
//!
//! ```text
//! cargo run --release --example call_recording
//! ```

use threev::analysis::Auditor;
use threev::baselines::NoCoordCluster;
use threev::core::advance::AdvancementPolicy;
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{SimConfig, SimDuration, SimTime};
use threev::workload::TelecomWorkload;

fn main() {
    let workload = TelecomWorkload {
        switches: 6,
        accounts: 400,
        rate_tps: 10_000.0,
        read_pct: 8,
        inter_region_pct: 70,
        duration: SimDuration::from_millis(800),
        zipf_s: 1.1,
        seed: 1997, // ICDE 1997
    };
    let schema = workload.schema();
    let arrivals = workload.arrivals();
    println!(
        "telecom: {} switches, {} accounts, {} calls+bills over 0.8s\n",
        workload.switches,
        workload.accounts,
        arrivals.len()
    );

    // --- 3V ---------------------------------------------------------------
    let cfg = ShardedConfig::new(1, workload.switches).advancement(AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(50),
        period: SimDuration::from_millis(50),
    });
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals.clone()]);
    cluster.run_until(SimTime(4_000_000));
    let audit = Auditor::new(&cluster.records()).check();
    println!(
        "3V:        {} bills audited against {} (bill, call) pairs -> {} violations",
        audit.reads_checked,
        audit.pairs_checked,
        audit.total_violations()
    );
    assert!(audit.clean());

    // --- The same calls with no coordination -------------------------------
    let mut nocoord =
        NoCoordCluster::new(&schema, workload.switches, SimConfig::seeded(1), arrivals);
    nocoord.run(SimTime(4_000_000));
    let audit = Auditor::new(nocoord.records()).check();
    println!(
        "no-coord:  {} bills audited against {} (bill, call) pairs -> {} violations",
        audit.reads_checked,
        audit.pairs_checked,
        audit.total_violations()
    );
    println!(
        "\nthe paper's anomaly, measured: {} bills included only one leg of an\n\
         inter-region call (atomicity violations) under no coordination.",
        audit.atomicity_violations
    );
    assert!(
        audit.atomicity_violations > 0,
        "expected anomalies in the race"
    );
}
