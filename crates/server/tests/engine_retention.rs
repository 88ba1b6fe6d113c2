//! The served engine's memory is bounded by in-flight work, not history.
//!
//! A soak of the hospital workload through `Engine::submit` must leave no
//! transaction record behind any reply and no coordinator history behind
//! any advancement round. A hostile `Read` of 100k keys must answer in
//! time linear-logarithmic in its keys, not quadratic.

use std::time::{Duration, Instant};

use threev_model::{Key, TxnKind};
use threev_server::load::{schedule, LoadConfig};
use threev_server::{Engine, Retained};
use threev_shard::{ShardedConfig, ShardedHospital};
use threev_sim::SimDuration;
use threev_workload::HospitalWorkload;

const PARTITIONS: u16 = 4;
const NODES: u16 = 2;

#[test]
fn soak_retains_no_records_or_round_history() {
    // 64 patients per department, 20% inquiries, ~20k commands.
    let hospital = LoadConfig {
        partitions: PARTITIONS,
        nodes_per_partition: NODES,
        rate_tps: 2_000.0,
        duration: SimDuration::from_secs(10),
        read_pct: 20,
        seed: 0x50A4,
        connections: 1,
    }
    .hospital();
    let commands = schedule(&hospital);
    assert!(commands.len() > 19_000, "{} commands", commands.len());
    let cfg = ShardedConfig::new(PARTITIONS, NODES).seed(0x50A4);
    let mut engine = Engine::new(&hospital.schema(), cfg, 32);
    assert_eq!(engine.retained(), Retained::default());

    let mut inquiries = 0u64;
    let mut reads = 0usize;
    for (_, plan) in &commands {
        let rounds = engine.stats().advancements;
        let out = engine.submit(plan).expect("hospital plans are valid");
        assert!(out.committed, "{:?} aborted", out.txn);
        if plan.kind == TxnKind::ReadOnly {
            inquiries += 1;
            reads += out.reads.len();
        }
        let retained = engine.retained();
        assert_eq!(retained.records, 0, "record kept after {:?}", out.txn);
        if engine.stats().advancements > rounds {
            assert_eq!(retained, Retained::default(), "history kept after a round");
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.committed, commands.len() as u64);
    assert!(stats.advancements > 100, "{} rounds", stats.advancements);
    assert!(inquiries > 3_000 && reads > 0, "{inquiries} inquiries");
    assert_eq!(engine.retained(), Retained::default());
}

#[test]
fn hostile_read_of_100k_keys_is_not_quadratic() {
    // 20,000 patients in each of 8 departments: 320k keys.
    let hospital = ShardedHospital::new(
        HospitalWorkload {
            departments: PARTITIONS * NODES,
            patients: 20_000,
            rate_tps: 1.0,
            read_pct: 0,
            max_fanout: 3,
            duration: SimDuration::from_millis(1),
            zipf_s: 0.9,
            seed: 1,
        },
        threev_model::Topology::new(PARTITIONS, NODES),
    );
    let schema = hospital.schema();
    let all: Vec<Key> = schema.decls().iter().map(|d| d.key).collect();
    assert_eq!(all.len(), 320_000);
    let cfg = ShardedConfig::new(PARTITIONS, NODES).seed(9);
    let mut engine = Engine::new(&schema, cfg, 32);

    // 100k distinct keys in a scattered order, every tenth one repeated.
    let distinct: Vec<Key> = (0..100_000u64)
        .map(|i| all[((i * 7_919) % all.len() as u64) as usize])
        .collect();
    let mut request = distinct.clone();
    request.extend(distinct.iter().step_by(10).copied());

    let t = Instant::now();
    let reads = engine.read(&request).expect("every key is declared");
    let took = t.elapsed();
    let served: Vec<Key> = reads.iter().map(|r| r.key).collect();
    assert_eq!(served, distinct, "first-occurrence order, duplicates once");
    assert_eq!(engine.retained().records, 0);
    assert!(
        took < Duration::from_secs(15),
        "a 100k-key read took {took:?}"
    );
}
