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
//! * [`cluster`] — the cluster actor block and its one builder,
//!   [`cluster::build_partition_actors`].
//!
//! The drivers that host that block — the discrete-event shuttle
//! `ShardedCluster` (one partition or many) and the real-thread hosting in
//! `threev_shard::threaded` — live in `threev-shard`, whose crate docs
//! carry the quickstart.

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
pub use cluster::ThreeVConfig;
pub use counters::{CounterMatrix, CounterSnapshot, CounterTable};
pub use msg::{ClientEvent, Msg, ProtocolMsg};
pub use node::{DurabilityMode, InvariantView, ThreeVNode};
