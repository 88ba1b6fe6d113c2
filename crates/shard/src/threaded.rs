//! Real-thread hosting of a sharded cluster.
//!
//! The threaded runtime ([`ThreadedRun`]) hosts every actor of a dense
//! `0..n` id space on its own thread and routes messages over channels —
//! it never cares which partition an actor belongs to. A sharded cluster
//! is therefore just a particular actor vector: the partition blocks of
//! [`build_partition_actors`], concatenated in partition order, so that
//! actor `i` of the vector carries global id `i`. Each partition's
//! coordinator thread *is* that partition's advancement loop; gauge node
//! ids are never message targets, so the router's dense-id assumption
//! holds.
//!
//! Wall-clock runs are not bit-comparable to the DES shuttle (real time
//! replaces virtual time), but they exercise the same engine code; the
//! `driver_equivalence` suite covers the single-partition equivalence.
//! With one partition this is the plain threaded 3V cluster: nodes `0..n`,
//! coordinator `n`, client `n + 1`.

use std::time::Duration;

use threev_analysis::TxnRecord;
use threev_core::client::Arrival;
use threev_core::cluster::{build_partition_actors, ClusterActor};
use threev_model::{PartitionId, Schema};
use threev_runtime::{ThreadedReport, ThreadedRun};

use crate::cluster::ShardedConfig;

/// Build the dense global actor vector of a sharded cluster: partition
/// `p`'s nodes, coordinator, and client occupy global ids
/// `base(p) .. base(p) + stride`.
///
/// # Panics
/// Panics unless `arrivals` has exactly one stream per partition, and
/// when the fault plane schedules node crashes on two or more partitions —
/// the same construction check as [`crate::ShardedCluster::new`].
pub fn build_sharded_actors(
    schema: &Schema,
    cfg: &ShardedConfig,
    arrivals: Vec<Vec<Arrival>>,
) -> Vec<ClusterActor> {
    let topo = cfg.topology;
    let protocol = cfg.partition_protocol(arrivals.len());
    let mut actors =
        Vec::with_capacity(usize::from(topo.n_partitions()) * usize::from(topo.stride()));
    for (p, stream) in arrivals.into_iter().enumerate() {
        actors.extend(build_partition_actors(
            schema,
            &protocol,
            stream,
            PartitionId(p as u16),
        ));
    }
    actors
}

/// Run a sharded cluster on real threads for `duration` of wall time
/// (plus a `drain` grace period), returning every partition's transaction
/// records (in partition order) and the runtime report.
pub fn run_sharded_threaded(
    schema: &Schema,
    cfg: &ShardedConfig,
    arrivals: Vec<Vec<Arrival>>,
    duration: Duration,
    drain: Duration,
) -> (Vec<TxnRecord>, ThreadedReport) {
    let actors = build_sharded_actors(schema, cfg, arrivals);
    // lint-allow(panic-hygiene): the runtime panics only to re-raise an
    // actor thread's own panic at join (or if a one-actor partition
    // returns no actor); this wall-clock driver is a harness entry point,
    // not a protocol message path.
    let (actors, report) = ThreadedRun::run(actors, cfg.sim.clone(), duration, drain);
    let mut records = Vec::new();
    for actor in actors {
        if let ClusterActor::Client(c) = actor {
            records.extend(c.into_records());
        }
    }
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_analysis::TxnStatus;
    use threev_sim::SimDuration;
    use threev_workload::HospitalWorkload;

    use crate::workload::ShardedHospital;

    #[test]
    fn sharded_actor_vector_is_dense_and_block_ordered() {
        let cfg = ShardedConfig::new(2, 2);
        let hospital = ShardedHospital::new(
            HospitalWorkload {
                departments: 4,
                patients: 5,
                rate_tps: 500.0,
                read_pct: 0,
                max_fanout: 2,
                duration: SimDuration::from_millis(20),
                zipf_s: 0.9,
                seed: 1,
            },
            cfg.topology,
        );
        let actors = build_sharded_actors(&hospital.schema(), &cfg, hospital.arrivals());
        assert_eq!(actors.len(), 8, "2 partitions x (2 nodes + coord + client)");
        for (i, a) in actors.iter().enumerate() {
            let expected = match i % 4 {
                0 | 1 => matches!(a, ClusterActor::Node(_)),
                2 => matches!(a, ClusterActor::Coordinator(_)),
                _ => matches!(a, ClusterActor::Client(_)),
            };
            assert!(expected, "unexpected actor kind at slot {i}");
        }
    }

    fn with_crash(cfg: ShardedConfig) -> ShardedConfig {
        let mut cfg = cfg.durability(threev_core::node::DurabilityMode::Memory {
            checkpoint_every: 8,
        });
        cfg.sim.faults.crashes = vec![threev_sim::NodeCrash {
            node: threev_model::NodeId(0),
            at: threev_sim::SimTime(20_000),
            restart_after: SimDuration::from_millis(2),
        }];
        cfg
    }

    /// The threaded host goes through the same construction check as the
    /// DES driver: crashes on two or more partitions are rejected.
    #[test]
    #[should_panic(expected = "crash injection needs a single partition")]
    fn threaded_crashes_on_two_partitions_are_rejected() {
        let cfg = with_crash(ShardedConfig::new(2, 2));
        let _ = build_sharded_actors(&Schema::default(), &cfg, vec![vec![], vec![]]);
    }

    /// With one partition a crash config builds (the runtime then honours
    /// it; see `runtime/tests/recovery_threaded.rs`).
    #[test]
    fn threaded_crashes_on_one_partition_are_accepted() {
        let cfg = with_crash(ShardedConfig::new(1, 2));
        let actors = build_sharded_actors(&Schema::default(), &cfg, vec![vec![]]);
        assert_eq!(actors.len(), 4);
    }

    /// Smoke: a 2x2 sharded cluster on real threads commits disjoint
    /// traffic. Kept tiny — wall-clock tests must stay fast.
    #[test]
    fn threaded_sharded_smoke() {
        let cfg = ShardedConfig::new(2, 2).seed(17);
        let hospital = ShardedHospital::new(
            HospitalWorkload {
                departments: 4,
                patients: 5,
                rate_tps: 200.0,
                read_pct: 0,
                max_fanout: 2,
                duration: SimDuration::from_millis(50),
                zipf_s: 0.9,
                seed: 17,
            },
            cfg.topology,
        )
        .confined();
        let (records, report) = run_sharded_threaded(
            &hospital.schema(),
            &cfg,
            hospital.arrivals(),
            Duration::from_millis(200),
            Duration::from_millis(200),
        );
        assert!(!records.is_empty(), "workload produced no transactions");
        assert!(
            records.iter().all(|r| r.status == TxnStatus::Committed),
            "confined commuting traffic must all commit"
        );
        assert_eq!(report.messages_per_actor.len(), 8);
    }
}
