//! CI perf regression gate for the hot path.
//!
//! A quick saturated mini-bench of the shipping configuration
//! (`ThreadedRun::run`: batched delivery of cloned messages, one store and
//! lock table per node): 8 nodes, the hospital workload pushed far past
//! saturation, a short window, peak-folded over a few rounds. Exits
//! non-zero if peak committed/s drops more than 10% below the checked-in
//! floor.
//!
//! The floor is deliberately conservative: CI boxes are shared and
//! oversubscribed (the full bench observes round-to-round swings of
//! 55k–95k committed/s on a loaded 2-core host), so the gate is tuned to
//! catch order-of-magnitude regressions — an accidental O(n²) in the
//! store, a lock held across a batch, a deep copy per hop — not
//! single-digit drift. Trend tracking lives in the nightly
//! `BENCH_hotpath.json` artifact, not here.

use std::time::Duration;

use threev_core::cluster::ClusterActor;
use threev_runtime::ThreadedRun;
use threev_shard::threaded::build_sharded_actors;
use threev_shard::ShardedConfig;
use threev_sim::SimDuration;
use threev_workload::HospitalWorkload;

/// Checked-in floor, committed transactions per second. The gate fails
/// below `FLOOR * 0.9`. Observed peaks for this configuration on a 2-core
/// host: 61k–102k/s.
const FLOOR_COMMITTED_PER_SEC: f64 = 12_000.0;
const N_NODES: u16 = 8;
const ROUNDS: usize = 3;
const WINDOW_MS: u64 = 800;

fn probe() -> f64 {
    let w = HospitalWorkload {
        departments: N_NODES,
        patients: 200,
        rate_tps: 200_000.0,
        read_pct: 20,
        max_fanout: 3,
        duration: SimDuration::from_millis(WINDOW_MS),
        zipf_s: 0.8,
        seed: 0x6A7E,
    };
    let cfg = ShardedConfig::new(1, N_NODES);
    let actors = build_sharded_actors(&w.schema(), &cfg, vec![w.arrivals()]);
    let (actors, report) = ThreadedRun::run(
        actors,
        cfg.sim.clone(),
        Duration::from_millis(WINDOW_MS),
        Duration::from_millis(100),
    );
    let committed: u64 = actors
        .iter()
        .filter_map(|a| match a {
            ClusterActor::Client(c) => Some(
                c.records()
                    .iter()
                    .filter(|r| r.status == threev_analysis::TxnStatus::Committed)
                    .count() as u64,
            ),
            _ => None,
        })
        .sum();
    committed as f64 / report.elapsed.as_secs_f64()
}

fn main() {
    let mut best = f64::MIN;
    for round in 0..ROUNDS {
        let per_sec = probe();
        println!("hotpath-gate round {round}: {per_sec:.0} committed/s");
        best = best.max(per_sec);
    }
    let cutoff = FLOOR_COMMITTED_PER_SEC * 0.9;
    println!(
        "hotpath-gate: peak {best:.0} committed/s (floor {FLOOR_COMMITTED_PER_SEC:.0}, cutoff {cutoff:.0})"
    );
    if best < cutoff {
        eprintln!(
            "hotpath-gate: FAIL — peak committed/s {best:.0} is more than 10% below the floor {FLOOR_COMMITTED_PER_SEC:.0}"
        );
        std::process::exit(1);
    }
    println!("hotpath-gate: OK");
}
