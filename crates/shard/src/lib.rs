#![forbid(unsafe_code)]
//! Multi-partition scale-out for the 3V protocol.
//!
//! The single-coordinator core (`threev-core`) advances versions for one
//! partition of nodes. This crate composes many such partitions into a
//! **sharded cluster**: a [`KeyRangeRouter`] maps the record-id keyspace
//! onto partitions, each partition runs its own independent advancement
//! loop (its own [`threev_core::advance::Coordinator`]), and transactions
//! whose subtransaction trees span partitions execute as ordinary 3V
//! trees whose children land on foreign nodes.
//!
//! Cross-partition correctness rests on two core-layer mechanisms (see
//! `DESIGN.md`, "Sharding & cross-partition trees"):
//!
//! * **Gauge counters** — R/C counters keyed per *partition pair* through
//!   reserved sentinel node ids ([`threev_model::GAUGE_BASE`]), so a
//!   partition's advancement only waits on peers it has live traffic
//!   with: with no cross traffic the gauge rows are absent and the
//!   counter matrix is exactly the single-partition one.
//! * **Resolution pins** — a shipper of a cross-partition child holds its
//!   gauge row open until the whole tree resolves, preventing a foreign
//!   partition from advancing past a version that still has in-flight
//!   compensation headed its way.
//!
//! With one partition ([`Topology::is_single`]) there are no gauge rows
//! and no pins, and the cluster is the paper's single-coordinator 3V
//! system. [`ShardedCluster`] is the workspace's one discrete-event
//! driver at every partition count, crash-injected runs included (those
//! need one partition); [`threaded::build_sharded_actors`] is the one
//! actor vector for real-thread runs.
//!
//! ```
//! use threev_core::client::Arrival;
//! use threev_model::{Key, KeyDecl, NodeId, Schema, SubtxnPlan, TxnPlan, UpdateOp};
//! use threev_shard::{ShardedCluster, ShardedConfig};
//! use threev_sim::SimTime;
//!
//! // Two nodes, one counter each; one update spanning both, then a read.
//! let schema = Schema::new(vec![
//!     KeyDecl::counter(Key(1), NodeId(0), 0),
//!     KeyDecl::counter(Key(2), NodeId(1), 0),
//! ]);
//! let update = TxnPlan::commuting(
//!     SubtxnPlan::new(NodeId(0))
//!         .update(Key(1), UpdateOp::Add(5))
//!         .child(SubtxnPlan::new(NodeId(1)).update(Key(2), UpdateOp::Add(5))),
//! );
//! let read = TxnPlan::read_only(
//!     SubtxnPlan::new(NodeId(0))
//!         .read(Key(1))
//!         .child(SubtxnPlan::new(NodeId(1)).read(Key(2))),
//! );
//! let arrivals = vec![
//!     Arrival::at(SimTime(1_000), update),
//!     Arrival::at(SimTime(2_000), read),
//! ];
//! // One partition of two nodes: nodes 0..2, coordinator 2, client 3.
//! let mut cluster = ShardedCluster::new(&schema, ShardedConfig::new(1, 2), vec![arrivals]);
//! cluster.run(SimTime(10_000_000));
//! let records = cluster.records();
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.status == threev_analysis::TxnStatus::Committed));
//! ```
//!
//! [`Topology::is_single`]: threev_model::Topology::is_single

pub mod cluster;
pub mod router;
pub mod threaded;
pub mod workload;

pub use cluster::{ShardOutcome, ShardedCluster, ShardedConfig, SubmitError};
pub use router::{KeyRangeRouter, RouterError};
pub use workload::ShardedHospital;
