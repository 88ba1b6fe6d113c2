//! Property-based safety of the asynchronous version advancement.
//!
//! The two-round stable-counter termination rule (see
//! `threev_core::advance`) must never declare a version drained while
//! version-`v` work is still in flight. If it ever did, one of three
//! observable disasters follows:
//!
//! * a read transaction observes a partially-applied update — caught by
//!   the auditor's atomicity/exactness checks;
//! * a version is garbage-collected under a straggler — the engine panics
//!   with `NoVisibleVersion`;
//! * the ≤3-live-versions bound breaks — caught by the store's high-water
//!   counter.
//!
//! The fuzz explores random cluster sizes, rates, fan-outs, skews, network
//! jitter (with reordering), advancement cadences, and fault injection.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use threev::analysis::{Auditor, TxnStatus};
use threev::core::advance::AdvancementPolicy;
use threev::model::{NodeId, PartitionId};
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{LatencyModel, SimConfig, SimDuration, SimTime};
use threev::workload::HospitalWorkload;

/// The one partition every run here uses.
const P0: PartitionId = PartitionId(0);

#[derive(Debug, Clone)]
struct Scenario {
    n_nodes: u16,
    rate: f64,
    zipf: f64,
    seed: u64,
    adv_period_ms: u64,
    jitter_max_us: u64,
    fail_ppm: u32,
    fifo: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        2u16..6,
        500.0f64..4_000.0,
        0.0f64..1.3,
        any::<u64>(),
        5u64..80,
        200u64..8_000,
        0u32..60_000,
        any::<bool>(),
    )
        .prop_map(
            |(n_nodes, rate, zipf, seed, adv_period_ms, jitter_max_us, fail_ppm, fifo)| Scenario {
                n_nodes,
                rate,
                zipf,
                seed,
                adv_period_ms,
                jitter_max_us,
                fail_ppm,
                fifo,
            },
        )
}

fn run_scenario(s: &Scenario) {
    let workload = HospitalWorkload {
        departments: s.n_nodes,
        patients: 20, // few patients: maximal contention
        rate_tps: s.rate,
        read_pct: 30,
        max_fanout: s.n_nodes.min(3),
        duration: SimDuration::from_millis(250),
        zipf_s: s.zipf,
        seed: s.seed,
    };
    let schema = workload.schema();
    let mut arrivals = workload.arrivals();

    // Fault injection: some update transactions abort mid-tree.
    let mut rng = SmallRng::seed_from_u64(s.seed ^ 0xFA11);
    for a in &mut arrivals {
        if a.plan.kind == threev::model::TxnKind::Commuting
            && rng.gen_range(0u32..1_000_000) < s.fail_ppm
        {
            let nodes = a.plan.root.nodes();
            a.fail_node = Some(NodeId(nodes[rng.gen_range(0..nodes.len())].0));
        }
    }

    // Aggressive periodic advancement racing the (fault-injected) workload.
    let mut cfg = ShardedConfig::new(1, s.n_nodes).advancement(AdvancementPolicy::Periodic {
        first: SimDuration::from_millis(s.adv_period_ms),
        period: SimDuration::from_millis(s.adv_period_ms),
    });
    cfg.sim = SimConfig {
        latency: LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(100 + s.jitter_max_us),
        },
        local_latency: SimDuration::from_micros(1),
        fifo: s.fifo,
        seed: s.seed,
        ..SimConfig::default()
    };
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
    cluster.run_until(SimTime(3_000_000));

    // Safety: space bound (a premature phase-2 verdict would eventually
    // overlap four live versions or GC under a straggler, which panics).
    assert!(
        cluster.max_versions_high_water() <= 3,
        "bound violated: {s:?}"
    );
    // Safety: serializability (a premature phase-3 publish exposes a
    // version still being updated).
    let audit = Auditor::new(cluster.partition_records(P0)).check();
    assert!(audit.clean(), "audit failed for {s:?}: {audit:?}");
    // Liveness: advancements actually completed and the cluster drained.
    assert!(
        !cluster.advancements(P0).is_empty(),
        "no advancement completed: {s:?}"
    );
    assert!(cluster.all_quiescent(), "undrained cluster: {s:?}");
    assert!(cluster
        .partition_records(P0)
        .iter()
        .all(|r| r.status != TxnStatus::InFlight));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case simulates a full cluster run
        .. ProptestConfig::default()
    })]

    #[test]
    fn advancement_never_declares_termination_early(s in scenario()) {
        run_scenario(&s);
    }
}

/// A hand-picked worst case kept as a fast regression: tiny jitter window,
/// maximal advancement frequency, failures, reordering network.
#[test]
fn adversarial_fixed_case() {
    run_scenario(&Scenario {
        n_nodes: 4,
        rate: 3_500.0,
        zipf: 1.2,
        seed: 0xDEADBEEF,
        adv_period_ms: 5,
        jitter_max_us: 7_500,
        fail_ppm: 50_000,
        fifo: false,
    });
}
