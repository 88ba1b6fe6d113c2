//! End-to-end engine benchmarks: wall-clock cost of simulating one second
//! of cluster time under each protocol (criterion), plus a real-thread 3V
//! throughput probe.
//!
//! These complement the `exp_*` binaries: the binaries report *virtual*
//! time metrics (what the protocol does); these report *host* time (what
//! the implementation costs).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use threev_bench::engines::{run_engine, Engine, RunOpts};
use threev_core::advance::AdvancementPolicy;
use threev_model::PartitionId;
use threev_shard::threaded::build_sharded_actors;
use threev_shard::{ShardedCluster, ShardedConfig};
use threev_sim::{SimDuration, SimTime};
use threev_workload::{HospitalWorkload, SyntheticParams, SyntheticWorkload};

fn bench_simulated_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engines");
    g.sample_size(10);
    for engine in Engine::ALL {
        g.bench_with_input(
            BenchmarkId::new("synthetic_200ms", engine.name()),
            &engine,
            |b, &engine| {
                let w = SyntheticWorkload::new(SyntheticParams {
                    n_nodes: 4,
                    rate_tps: 5_000.0,
                    duration: SimDuration::from_millis(200),
                    ..SyntheticParams::default()
                });
                let (schema, arrivals) = w.generate();
                let mut opts = RunOpts::new(4, SimTime(2_000_000));
                opts.advancement = AdvancementPolicy::Periodic {
                    first: SimDuration::from_millis(50),
                    period: SimDuration::from_millis(100),
                };
                b.iter(|| run_engine(engine, &schema, arrivals.clone(), &opts));
            },
        );
    }
    g.finish();
}

fn bench_advancement_cycle(c: &mut Criterion) {
    // Host cost of one full four-phase advancement over an idle cluster.
    let mut g = c.benchmark_group("advancement");
    g.sample_size(20);
    for n_nodes in [4u16, 16] {
        g.bench_with_input(
            BenchmarkId::new("idle_cycle", n_nodes),
            &n_nodes,
            |b, &n| {
                let w = SyntheticWorkload::new(SyntheticParams {
                    n_nodes: n,
                    rate_tps: 100.0,
                    duration: SimDuration::from_millis(10),
                    ..SyntheticParams::default()
                });
                let (schema, arrivals) = w.generate();
                b.iter(|| {
                    let mut cluster = ShardedCluster::new(
                        &schema,
                        ShardedConfig::new(1, n),
                        vec![arrivals.clone()],
                    );
                    cluster.run(SimTime(1_000_000));
                    cluster.trigger_advancement(PartitionId(0));
                    cluster.run(SimTime(10_000_000));
                    assert_eq!(cluster.advancements(PartitionId(0)).len(), 1);
                });
            },
        );
    }
    g.finish();
}

fn bench_threaded(c: &mut Criterion) {
    // Wall-clock 3V on real threads (hospital workload, 3 departments).
    let mut g = c.benchmark_group("threaded");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    g.bench_function("hospital_3nodes_100ms", |b| {
        b.iter(|| {
            let workload = HospitalWorkload {
                departments: 3,
                patients: 50,
                rate_tps: 3_000.0,
                duration: SimDuration::from_millis(100),
                ..HospitalWorkload::default()
            };
            let schema = workload.schema();
            let arrivals = workload.arrivals();
            let cfg = ShardedConfig::new(1, 3);
            let actors = build_sharded_actors(&schema, &cfg, vec![arrivals]);
            let (actors, _) = threev_runtime::ThreadedRun::run(
                actors,
                threev_sim::SimConfig::seeded(3),
                Duration::from_millis(110),
                Duration::from_millis(60),
            );
            actors
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulated_engines,
    bench_advancement_cycle,
    bench_threaded
);
criterion_main!(benches);
