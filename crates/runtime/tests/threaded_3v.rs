//! The 3V protocol on real threads: the same engine code the simulator
//! verifies, scheduled by the OS, with crossbeam channels as the network.

use std::time::Duration;

use threev::shard::threaded::build_sharded_actors;
use threev::shard::ShardedConfig;
use threev_analysis::{Auditor, TxnStatus};
use threev_core::advance::AdvancementPolicy;
use threev_core::cluster::ClusterActor;
use threev_runtime::ThreadedRun;
use threev_sim::{SimConfig, SimDuration};
use threev_workload::HospitalWorkload;

#[test]
fn hospital_on_threads_commits_and_audits_clean() {
    let workload = HospitalWorkload {
        departments: 3,
        patients: 40,
        rate_tps: 2_000.0,
        read_pct: 25,
        max_fanout: 3,
        duration: SimDuration::from_millis(300),
        zipf_s: 0.9,
        seed: 77,
    };
    let schema = workload.schema();
    let arrivals = workload.arrivals();
    let n_arrivals = arrivals.len();
    assert!(n_arrivals > 100, "workload should be non-trivial");

    let cfg = ShardedConfig::new(1, 3).advancement(AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(50),
        period: SimDuration::from_millis(100),
    });
    let actors = build_sharded_actors(&schema, &cfg, vec![arrivals]);

    let (actors, report) = ThreadedRun::run(
        actors,
        SimConfig::seeded(7),
        Duration::from_millis(400),
        Duration::from_millis(400),
    );
    assert!(report.elapsed >= Duration::from_millis(700));

    let ClusterActor::Client(client) = &actors[4] else {
        panic!("actor 4 is the client");
    };
    let records = client.records();
    assert_eq!(records.len(), n_arrivals);
    let committed = records
        .iter()
        .filter(|r| r.status == TxnStatus::Committed)
        .count();
    // The drain window is generous; essentially everything should land.
    assert!(
        committed as f64 / n_arrivals as f64 > 0.95,
        "committed {committed}/{n_arrivals}"
    );

    // Serializability holds on threads exactly as in the simulator.
    let audit = Auditor::new(records).check();
    assert!(audit.clean(), "{audit:?}");

    // Advancement ran concurrently with the workload.
    let ClusterActor::Coordinator(coord) = &actors[3] else {
        panic!("actor 3 is the coordinator");
    };
    assert!(!coord.records().is_empty(), "advancements completed");

    // The 3V space bound holds under real concurrency.
    for node in actors.iter().take(3) {
        let ClusterActor::Node(n) = node else {
            panic!("actors 0..3 are nodes");
        };
        assert!(n.store_stats().max_versions_of_any_item <= 3);
    }
}
