//! The 3V algorithm (Jagadish, Mumick & Rabinovich, ICDE 1997).
//!
//! A distributed database keeps up to three versions of each data item:
//! read-only transactions run against the read version `vr`, commuting
//! update transactions against the update version `vu`, and a **completely
//! asynchronous** four-phase advancement process moves both forward without
//! ever delaying a user transaction (Theorem 4.2). Non-commuting updates are
//! handled by the NC3V extension (§5) with commute/exclusive locks and
//! two-phase commit.
//!
//! Crate layout:
//!
//! * [`msg`] — the wire protocol: subtransaction shipment, completion
//!   notices, advancement control, counter polling, compensation, NC3V 2PC;
//! * [`counters`] — the per-version request/completion counter tables
//!   (`R(v)pq` at the sender, `C(v)pq` at the executor, §2.2/§4.3);
//! * [`node`] — the per-node engine: §4.1 update execution, §4.2 queries,
//!   version-skew rules, compensation (§3.2), NC3V (§5);
//! * [`advance`] — the advancement coordinator: the four phases of §4.3 and
//!   the two-round stable-counter termination detection, with the safety
//!   argument documented inline;
//! * [`client`] — the workload driver actor shared by every engine in the
//!   workspace (baselines reuse it via the [`msg::ProtocolMsg`] trait);
//! * [`cluster`] — one-call construction of a simulated 3V cluster.
//!
//! ```
//! use threev_core::cluster::{ClusterConfig, ThreeVCluster};
//! use threev_core::client::Arrival;
//! use threev_model::{KeyDecl, Schema, SubtxnPlan, TxnPlan, UpdateOp, Key, NodeId};
//! use threev_sim::{SimTime, SimDuration};
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
//! let mut cluster = ThreeVCluster::new(&schema, ClusterConfig::new(2), arrivals);
//! cluster.run(SimTime(10_000_000));
//! let records = cluster.records();
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.status == threev_analysis::TxnStatus::Committed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod advance;
pub mod client;
pub mod cluster;
pub mod counters;
pub mod msg;
pub mod node;

pub use advance::{AdvancementPolicy, AdvancementRecord, Coordinator};
pub use client::{Arrival, ClientActor};
pub use cluster::{ClusterConfig, ThreeVCluster, ThreeVConfig};
pub use counters::{CounterMatrix, CounterSnapshot, CounterTable};
pub use msg::{ClientEvent, Msg, ProtocolMsg};
pub use node::{DurabilityMode, InvariantView, ThreeVNode};
