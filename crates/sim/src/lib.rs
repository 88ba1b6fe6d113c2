//! Deterministic discrete-event simulation kernel.
//!
//! The protocol engines in this workspace are *sans-io* state machines: they
//! consume inputs (messages, timers) and emit outputs (sends, timer
//! requests). This crate provides the virtual-time driver for them:
//!
//! * [`time`] — virtual clock types ([`SimTime`], [`SimDuration`]);
//! * [`network`] — link latency models (fixed, uniform jitter, optional
//!   per-link FIFO enforcement);
//! * [`kernel`] — the event heap, the [`Actor`] trait, and the
//!   [`Simulation`] driver;
//! * [`transport`] — the unified delivery-policy layer (latency, FIFO, and
//!   the injectable fault plane) shared by this kernel and the real-thread
//!   runtime;
//! * [`trace`] — a human-readable event trace used to replay the paper's
//!   Table 1 line by line.
//!
//! Determinism: given the same actors, seed, and configuration, a simulation
//! produces bit-identical schedules. Message latencies are sampled from a
//! seeded RNG, and simultaneous events tie-break on a monotone sequence
//! number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod kernel;
pub mod network;
pub mod time;
pub mod trace;
pub mod transport;

pub use kernel::{
    Actor, Ctx, EarliestScheduler, EnabledEvent, EnabledKind, QuiesceOutcome, Scheduler, SimConfig,
    SimStats, Simulation,
};
pub use network::LatencyModel;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceLine};
pub use transport::{
    FaultPlane, FaultScope, LinkPartition, LinkStats, NodeCrash, NodePause, Transport,
    TransportStats,
};
