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
/// Panics unless `arrivals` has exactly one stream per partition.
pub fn build_sharded_actors(
    schema: &Schema,
    cfg: &ShardedConfig,
    arrivals: Vec<Vec<Arrival>>,
) -> Vec<ClusterActor> {
    let topo = cfg.topology;
    assert_eq!(
        arrivals.len(),
        usize::from(topo.n_partitions()),
        "one arrival stream per partition"
    );
    let ccfg = cfg.cluster_config();
    let mut actors =
        Vec::with_capacity(usize::from(topo.n_partitions()) * usize::from(topo.stride()));
    for (p, stream) in arrivals.into_iter().enumerate() {
        actors.extend(build_partition_actors(
            schema,
            &ccfg,
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
