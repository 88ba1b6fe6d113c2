//! The network front end of the 3V reproduction.
//!
//! Every other crate in the workspace drives the protocol through function
//! calls; this one puts a wire in between. It hosts the deterministic
//! sharded cluster behind a TCP server speaking a length-prefixed,
//! checksummed frame protocol (built on `threev-storage`'s wire codec),
//! ships a thin blocking client library, and carries the open-loop load
//! harness that measures the latency a real user of the protocol would
//! see.
//!
//! * [`proto`] — request/response frames, version negotiation, framed I/O;
//! * [`engine`] — the command-driven wrapper around `ShardedCluster` that
//!   executes submissions in deterministic virtual time;
//! * [`server`] — acceptor + bounded worker pool + single engine thread;
//! * [`client`] — the blocking client library;
//! * [`load`] — Poisson open-loop load generation and latency percentiles.
//!
//! Threading model and backpressure contract are documented in DESIGN.md
//! ("Network front end"). The socket layer is intentionally *not* in the
//! deterministic lint tier — wall-clock timeouts and thread scheduling
//! live here, while everything protocol-visible stays inside the
//! deterministic engine thread.

#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod load;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use engine::{Engine, EngineError, Retained, TxnOutcome};
pub use proto::{Request, Response, PROTOCOL_VERSION};
pub use server::{serve, ServerConfig, ServerHandle};
