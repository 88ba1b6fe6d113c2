//! Property: batched delivery is an *amortisation*, never a semantic
//! change.
//!
//! The kernel's batched mode ([`threev::sim::SimConfig::batch`]) coalesces
//! same-timestamp runs of messages to one actor into a single
//! [`threev::sim::Actor::on_batch`] call. The engines override `on_batch`
//! to hoist per-wakeup work out of the per-message loop. None of that may
//! be observable: for any workload — jittery reordering networks, fault
//! injection, racing advancement — a batched run must be *bit-identical*
//! to the per-message run with the same seed: same transaction records,
//! same per-node version state and store layouts, same kernel statistics
//! (save for the batch counters themselves, which exist only to report
//! amortisation).
//!
//! The same harness pins the stage profiler's freedom: `ProfileMode::On`
//! only reads an injected clock and bumps counters nothing consults, so a
//! profiled run must fingerprint identically to `ProfileMode::Off`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use threev::core::advance::AdvancementPolicy;
use threev::core::node::{ProfileMode, Stage};
use threev::model::{NodeId, PartitionId};
use threev::shard::{ShardedCluster, ShardedConfig};
use threev::sim::{FaultPlane, LatencyModel, SimConfig, SimDuration, SimTime};
use threev::storage::BackendConfig;
use threev::workload::HospitalWorkload;

/// The one partition every run here uses.
const P0: PartitionId = PartitionId(0);

#[derive(Debug, Clone)]
struct Scenario {
    n_nodes: u16,
    rate: f64,
    seed: u64,
    adv_period_ms: u64,
    jitter_max_us: u64,
    fail_ppm: u32,
    fifo: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        2u16..6,
        500.0f64..3_000.0,
        any::<u64>(),
        5u64..60,
        0u64..6_000,
        0u32..60_000,
        any::<bool>(),
    )
        .prop_map(
            |(n_nodes, rate, seed, adv_period_ms, jitter_max_us, fail_ppm, fifo)| Scenario {
                n_nodes,
                rate,
                seed,
                adv_period_ms,
                jitter_max_us,
                fail_ppm,
                fifo,
            },
        )
}

/// Everything observable about a finished run, in comparable form.
/// Transaction records and values carry no `PartialEq` across the
/// workspace facade, so the fingerprint canonicalises through `Debug` —
/// exact, and self-describing in the failure diff.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    records: Vec<String>,
    /// Per node: (vu, vr, full store layout over all keys).
    nodes: Vec<(String, String, Vec<String>)>,
    messages: u64,
    timers: u64,
    events: u64,
    /// Transport fault counters; asserted zero in [`run`] — with the fault
    /// plane disabled, the unified transport must be a pure latency pipe.
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    messages_by_tag: Vec<(String, u64)>,
    advancements: usize,
}

fn run(s: &Scenario, batch: bool, profile: ProfileMode, backend: BackendConfig) -> Fingerprint {
    let workload = HospitalWorkload {
        departments: s.n_nodes,
        patients: 20,
        rate_tps: s.rate,
        read_pct: 30,
        max_fanout: s.n_nodes.min(3),
        duration: SimDuration::from_millis(200),
        zipf_s: 0.9,
        seed: s.seed,
    };
    let schema = workload.schema();
    let mut arrivals = workload.arrivals();

    // Fault injection so compensation runs under batching too.
    let mut rng = SmallRng::seed_from_u64(s.seed ^ 0xFA11);
    for a in &mut arrivals {
        if a.plan.kind == threev::model::TxnKind::Commuting
            && rng.gen_range(0u32..1_000_000) < s.fail_ppm
        {
            let nodes = a.plan.root.nodes();
            a.fail_node = Some(NodeId(nodes[rng.gen_range(0..nodes.len())].0));
        }
    }

    let mut cfg = ShardedConfig::new(1, s.n_nodes)
        .backend(backend)
        .advancement(AdvancementPolicy::Periodic {
            first: SimDuration::from_millis(s.adv_period_ms),
            period: SimDuration::from_millis(s.adv_period_ms),
        });
    cfg.protocol.node.profile = profile;
    cfg.sim = SimConfig {
        latency: LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(100 + s.jitter_max_us),
        },
        local_latency: SimDuration::from_micros(1),
        fifo: s.fifo,
        seed: s.seed,
        batch,
        faults: FaultPlane::default(),
        fault_stream: 0,
    };
    let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals]);
    cluster.run_until(SimTime(2_000_000));

    let mut nodes = Vec::new();
    for i in 0..s.n_nodes {
        let node = cluster.node(NodeId(i));
        let mut keys: Vec<_> = node.store().keys().collect();
        keys.sort_unstable();
        let layout: Vec<String> = keys
            .into_iter()
            .map(|k| format!("{k:?} => {:?}", node.store().layout(k)))
            .collect();
        nodes.push((
            format!("{:?}", node.vu()),
            format!("{:?}", node.vr()),
            layout,
        ));
    }
    let stats = cluster.sim_stats(P0);
    assert_eq!(
        (stats.dropped, stats.duplicated, stats.reordered),
        (0, 0, 0),
        "no-fault run must not drop/duplicate/reorder"
    );
    let mut messages_by_tag: Vec<(String, u64)> = stats
        .messages_by_tag
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    messages_by_tag.sort();
    Fingerprint {
        records: cluster
            .partition_records(P0)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect(),
        nodes,
        messages: stats.messages,
        timers: stats.timers,
        events: stats.events,
        dropped: stats.dropped,
        duplicated: stats.duplicated,
        reordered: stats.reordered,
        messages_by_tag,
        advancements: cluster.advancements(P0).len(),
    }
}

fn check(s: &Scenario) {
    // `THREEV_BACKEND=paged` reruns the whole suite over the on-disk
    // backend (fresh scratch dir per run); unset/`mem` keeps the
    // historical in-memory runs.
    let per_message = run(
        s,
        false,
        ProfileMode::Off,
        threev::testutil::backend_from_env("batch-eq"),
    );
    let batched = run(
        s,
        true,
        ProfileMode::Off,
        threev::testutil::backend_from_env("batch-eq"),
    );
    assert_eq!(per_message, batched, "batched run diverged for {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case simulates two full cluster runs
        .. ProptestConfig::default()
    })]

    #[test]
    fn batched_delivery_is_observationally_identical(s in scenario()) {
        check(&s);
    }
}

/// Hand-picked worst case as a fast deterministic regression: reordering
/// network, aggressive advancement, fault injection.
#[test]
fn adversarial_fixed_case() {
    check(&Scenario {
        n_nodes: 4,
        rate: 2_500.0,
        seed: 0xBA7C4,
        adv_period_ms: 5,
        jitter_max_us: 5_000,
        fail_ppm: 40_000,
        fifo: false,
    });
}

/// Zero jitter + FIFO piles everything onto identical timestamps — the
/// maximal-coalescing regime where batches are actually large.
#[test]
fn max_coalescing_fixed_case() {
    check(&Scenario {
        n_nodes: 3,
        rate: 2_000.0,
        seed: 7,
        adv_period_ms: 10,
        jitter_max_us: 0,
        fail_ppm: 0,
        fifo: true,
    });
}

/// The storage seam itself must be invisible: the same seeded scenario run
/// over the in-memory backend and over the on-disk paged backend must
/// produce bit-identical fingerprints (records, stores, kernel stats). This
/// pins the tentpole's equivalence claim without needing `THREEV_BACKEND`.
#[test]
fn paged_backend_is_observationally_identical() {
    let s = Scenario {
        n_nodes: 4,
        rate: 2_500.0,
        seed: 0xBA7C4,
        adv_period_ms: 5,
        jitter_max_us: 5_000,
        fail_ppm: 40_000,
        fifo: false,
    };
    let dir = std::env::temp_dir().join(format!("threev-batch-eq-xb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mem = run(&s, true, ProfileMode::Off, BackendConfig::Mem);
    let paged = run(
        &s,
        true,
        ProfileMode::Off,
        BackendConfig::Paged { dir: dir.clone() },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(mem, paged, "paged backend diverged for {s:?}");
}

/// Deterministic injected clock for the profiler guards: strictly
/// monotone, no wall-clock dependence.
fn counting_clock() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static T: AtomicU64 = AtomicU64::new(0);
    T.fetch_add(1, Ordering::Relaxed)
}

/// `ProfileMode::Off` must be bit-identical to a profiled run: the hooks
/// read a clock and bump counters nothing in the engine consults.
#[test]
fn profiler_is_free() {
    let s = Scenario {
        n_nodes: 4,
        rate: 2_500.0,
        seed: 0xF0F,
        adv_period_ms: 10,
        jitter_max_us: 3_000,
        fail_ppm: 40_000,
        fifo: false,
    };
    for batch in [false, true] {
        let off = run(&s, batch, ProfileMode::Off, BackendConfig::Mem);
        let on = run(
            &s,
            batch,
            ProfileMode::On(counting_clock),
            BackendConfig::Mem,
        );
        assert_eq!(off, on, "profiling changed behaviour (batch={batch})");
    }
}

/// A profiled node actually accumulates a breakdown, so the guard above
/// cannot pass vacuously.
#[test]
fn profiler_accumulates_when_on() {
    let workload = HospitalWorkload {
        departments: 2,
        patients: 20,
        rate_tps: 1_000.0,
        read_pct: 30,
        max_fanout: 2,
        duration: SimDuration::from_millis(100),
        zipf_s: 0.9,
        seed: 3,
    };
    let mut cfg = ShardedConfig::new(1, 2).seed(3);
    cfg.protocol.node.profile = ProfileMode::On(counting_clock);
    let mut cluster = ShardedCluster::new(&workload.schema(), cfg, vec![workload.arrivals()]);
    cluster.run_until(SimTime(1_000_000));
    let b = cluster
        .node(NodeId(0))
        .stage_breakdown()
        .expect("profiled node has a breakdown");
    assert!(
        b.calls[Stage::Dispatch as usize] > 0,
        "dispatch envelope must tick: {b:?}"
    );
    assert!(
        b.ns[Stage::Dispatch as usize] > 0,
        "injected clock must advance the envelope: {b:?}"
    );
    assert!(
        b.other_ns() <= b.total_ns(),
        "nested stages cannot exceed the envelope"
    );
    assert!(
        cluster.node(NodeId(1)).stage_breakdown().is_some(),
        "every node of a profiled cluster is profiled"
    );
}
