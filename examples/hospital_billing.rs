//! The paper's §1 motivating example at full scale: a hospital with several
//! departments, concurrent patient visits, balance inquiries, and periodic
//! version advancement — plus the serializability audit proving that no
//! inquiry ever sees partial charges (Theorem 4.1).
//!
//! ```text
//! cargo run --release --example hospital_billing
//! ```

use threev::analysis::{Auditor, RunSummary, TxnStatus};
use threev::core::advance::AdvancementPolicy;
use threev::model::PartitionId;
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{SimDuration, SimTime};
use threev::workload::HospitalWorkload;

fn main() {
    let workload = HospitalWorkload {
        departments: 6,
        patients: 500,
        rate_tps: 8_000.0,
        read_pct: 25,
        max_fanout: 4,
        duration: SimDuration::from_secs(1),
        zipf_s: 1.0,
        seed: 2026,
    };
    let schema = workload.schema();
    let arrivals = workload.arrivals();
    println!(
        "hospital: {} departments, {} patients, {} transactions over 1s",
        workload.departments,
        workload.patients,
        arrivals.len()
    );

    // One partition: every department is a node under one coordinator.
    let cfg =
        ShardedConfig::new(1, workload.departments).advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(100),
            period: SimDuration::from_millis(100),
        });
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
    cluster.run_until(SimTime(4_000_000));

    let records = cluster.records();
    let summary = RunSummary::from_records(&records, SimTime::ZERO, cluster.now());
    println!(
        "committed: {} read-only, {} visits; throughput {:.0} tps",
        summary.committed.0, summary.committed.1, summary.throughput_tps
    );
    println!(
        "visit latency: p50 {}us p99 {}us  |  inquiry latency: p50 {}us p99 {}us",
        summary.update_latency.p50(),
        summary.update_latency.p99(),
        summary.read_latency.p50(),
        summary.read_latency.p99(),
    );
    println!(
        "advancements: {}; max live versions of any item: {}",
        cluster.advancements(PartitionId(0)).len(),
        cluster.max_versions_high_water()
    );

    assert!(records.iter().all(|r| r.status == TxnStatus::Committed));

    // Theorem 4.1: every inquiry saw, for each patient, exactly the visits
    // of versions <= its own — all charges of a visit or none.
    let audit = Auditor::new(&records).check();
    println!(
        "audit: {} inquiries, {} (inquiry, visit) pairs checked -> {}",
        audit.reads_checked,
        audit.pairs_checked,
        if audit.clean() { "CLEAN" } else { "VIOLATIONS" }
    );
    assert!(audit.clean(), "{audit:?}");
}
