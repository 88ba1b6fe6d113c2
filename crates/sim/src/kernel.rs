//! The event heap, the [`Actor`] trait, and the [`Simulation`] driver.
//!
//! Actors are addressed by [`NodeId`]. Database nodes occupy the low ids;
//! auxiliary actors (clients, coordinators) use ids above the node count —
//! the kernel does not care, it only routes.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use threev_model::NodeId;

use crate::network::LatencyModel;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;
use crate::transport::{FaultPlane, Transport, TransportStats};

/// A simulated participant: a database node, a client, or a coordinator.
///
/// Implementations are pure state machines: all effects go through the
/// [`Ctx`] handed to each callback, which is what lets `threev-runtime` run
/// the very same engine on real threads.
pub trait Actor {
    /// Message type exchanged between the actors of one simulation.
    type Msg;

    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A batch of messages, all timestamped `ctx.now()`, has been
    /// delivered. The messages are in delivery order and MUST be processed
    /// in that order — batching is an amortisation of per-delivery
    /// overhead, never a reordering. The default implementation forwards
    /// to [`Actor::on_message`] one by one; engines override it to hoist
    /// per-wakeup work (dispatch, stat flushes) out of the per-message
    /// loop. Implementations must leave `batch` empty on return so the
    /// kernel can reuse the buffer.
    fn on_batch(&mut self, ctx: &mut Ctx<'_, Self::Msg>, batch: &mut Vec<(NodeId, Self::Msg)>) {
        for (from, msg) in batch.drain(..) {
            self.on_message(ctx, from, msg);
        }
    }

    /// A timer scheduled with [`Ctx::schedule`] has fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        let _ = (ctx, token);
    }

    /// The actor has crashed (fault-plane [`crate::transport::NodeCrash`]):
    /// all volatile state is lost *now*. Implementations drop their in-memory
    /// state; anything durable (a write-ahead log) survives. The kernel has
    /// already purged the actor's queued deliveries and timers. Default: no-op
    /// (crash-oblivious actors simply keep their state, which models a
    /// process that was merely unreachable).
    fn on_crash(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// The actor restarts after its crash dead-window. Implementations
    /// recover from their durable state here (checkpoint + log replay).
    /// Default: no-op.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Latency model for messages between distinct actors.
    pub latency: LatencyModel,
    /// Latency for messages an actor sends to itself (local hand-off).
    pub local_latency: SimDuration,
    /// Enforce per-link FIFO delivery (real TCP-like links). When `false`,
    /// jittery latency models may reorder messages — the adversarial mode.
    pub fifo: bool,
    /// RNG seed; everything downstream (latency jitter, actor RNG use) is a
    /// pure function of this seed.
    pub seed: u64,
    /// Deliver same-timestamp runs of messages to the same actor as one
    /// [`Actor::on_batch`] call instead of per-message [`Actor::on_message`]
    /// calls. Observable behaviour is identical (batching never reorders);
    /// only per-delivery dispatch overhead is amortised.
    pub batch: bool,
    /// Injectable fault plane (drop/duplicate/delay/partition/pause); see
    /// [`crate::transport`]. Default: no faults. Fault decisions draw from
    /// an RNG stream decorrelated from `seed`'s latency stream, so a run
    /// with faults disabled is bit-identical to one where the field does
    /// not exist at all.
    pub faults: FaultPlane,
    /// Fault-stream selector, mixed into the fault RNG's seed alongside
    /// the salt. [`SimConfig::for_partition`] sets it so partition-local
    /// fault streams are decorrelated *independently* of the delivery
    /// streams: deriving the fault seed from the partition-mixed delivery
    /// seed alone would make the two partitions' fault streams exactly as
    /// related as their delivery seeds (one shared XOR constant apart).
    /// Zero — the default and the partition-0 value — reproduces the
    /// historical derivation bit-for-bit.
    pub fault_stream: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::lan(),
            local_latency: SimDuration::from_micros(1),
            fifo: false,
            seed: 0xC0FFEE,
            batch: false,
            faults: FaultPlane::default(),
            fault_stream: 0,
        }
    }
}

impl SimConfig {
    /// Config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Config for partition `i` of a sharded run: same settings, with the
    /// seed decorrelated per partition. Every driver that splits a system
    /// across several `Simulation` instances must derive per-partition
    /// configs through this — ad-hoc seed mixing in each driver is how
    /// partitions end up accidentally correlated (or accidentally
    /// different between drivers that should be comparable).
    pub fn for_partition(&self, i: usize) -> SimConfig {
        SimConfig {
            seed: self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
            // A second, distinct mixing constant: the fault stream must be
            // decorrelated per partition on its own axis, not inherit the
            // delivery stream's mixing (see the `fault_stream` field doc).
            fault_stream: (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            ..self.clone()
        }
    }
}

/// Aggregate kernel statistics (basis of experiment X9, message overhead).
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Total messages delivered.
    pub messages: u64,
    /// Total timer firings.
    pub timers: u64,
    /// Total events processed.
    pub events: u64,
    /// [`Actor::on_batch`] invocations (batched delivery only).
    pub batches: u64,
    /// Messages delivered through [`Actor::on_batch`] (batched delivery
    /// only). `batched_msgs / batches` is the mean batch size.
    pub batched_msgs: u64,
    /// Messages dropped by the transport fault plane (loss or partition).
    /// Provably zero when [`SimConfig::faults`] is inactive.
    pub dropped: u64,
    /// Messages duplicated by the transport fault plane.
    pub duplicated: u64,
    /// Fault-induced reorderings (deliveries overtaking a fault-delayed
    /// copy); latency jitter alone never counts here.
    pub reordered: u64,
    /// Node crashes executed (fault-plane crash injection).
    pub crashes: u64,
    /// Queued deliveries and timers purged by node crashes (the in-flight
    /// inbox lost with each crash).
    pub crash_purged: u64,
    /// Messages by engine-supplied tag (see [`Ctx::send_tagged`]).
    pub messages_by_tag: BTreeMap<&'static str, u64>,
}

impl SimStats {
    /// Count of messages sent with `tag`.
    pub fn tagged(&self, tag: &str) -> u64 {
        self.messages_by_tag.get(tag).copied().unwrap_or(0)
    }
}

enum Payload<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, token: u64 },
    Crash { node: NodeId, until: SimTime },
    Restart { node: NodeId },
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    payload: Payload<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The kind of a pending event, as exposed to external schedulers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EnabledKind {
    /// A message delivery.
    Deliver,
    /// A timer firing.
    Timer,
    /// A fault-plane crash.
    Crash,
    /// A restart after a crash dead-window.
    Restart,
}

/// Metadata of one event an external scheduler may choose next. The
/// payload itself stays in the kernel; schedulers reorder, they do not
/// inspect message contents (that would make exploration engine-specific).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnabledEvent {
    /// Scheduled virtual time (a *hint* under external scheduling: a chosen
    /// event runs at `max(now, at)`).
    pub at: SimTime,
    /// Kernel-global sequence number — the event's identity. Stable across
    /// replays of the same schedule (determinism), which is what lets a
    /// recorded schedule refer to events by choice index.
    pub seq: u64,
    /// What kind of event this is.
    pub kind: EnabledKind,
    /// The actor the event is addressed to.
    pub target: NodeId,
    /// The sender, for deliveries.
    pub from: Option<NodeId>,
}

/// A pluggable schedule policy for [`Simulation`]-level model checking:
/// given the enabled-event set (sorted by `(at, seq)`), pick the index of
/// the event to execute next.
pub trait Scheduler {
    /// Choose an index into `enabled` (callers clamp out-of-range values).
    /// `enabled` is never empty.
    fn choose(&mut self, enabled: &[EnabledEvent]) -> usize;
}

/// The default policy: always pick index 0, the `(at, seq)`-minimal event —
/// exactly the event [`Simulation::step`] would pop, so driving a
/// simulation through this scheduler is bit-identical to `step()` (the
/// `earliest_scheduler_is_bit_identical` test pins this down).
#[derive(Clone, Copy, Debug, Default)]
pub struct EarliestScheduler;

impl Scheduler for EarliestScheduler {
    fn choose(&mut self, _enabled: &[EnabledEvent]) -> usize {
        0
    }
}

/// Why [`Simulation::run_to_quiescence`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuiesceOutcome {
    /// The event queue drained completely.
    Quiescent(SimTime),
    /// The virtual-time cap was reached with events still pending.
    TimeCapped(SimTime),
}

/// Kernel internals shared with actors through [`Ctx`].
struct Core<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<M>>,
    cfg: SimConfig,
    rng: SmallRng,
    transport: Transport,
    stats: SimStats,
    /// Set once [`Simulation::step_chosen`] has been used: chosen-order
    /// execution may run events "late", so the heap-order time assertion
    /// in [`Simulation::step`] no longer applies.
    chosen_mode: bool,
    /// Nodes whose Crash event has executed but whose Restart has not.
    /// While a node is down its pending deliveries and timers are not
    /// enabled (a down node processes nothing); they surface again after
    /// the restart, which the network is always allowed to emulate by
    /// delaying delivery.
    down: BTreeSet<NodeId>,
    trace: Option<Trace>,
    /// First local actor id (partitioned simulations; see
    /// [`Simulation::new_partition`]). Sends to non-local ids land in
    /// `outbox` instead of the event queue.
    local_base: u16,
    local_len: u16,
    outbox: Vec<(NodeId, NodeId, M)>,
}

impl<M> Core<M> {
    fn push(&mut self, at: SimTime, payload: Payload<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, payload });
    }

    fn is_local(&self, id: NodeId) -> bool {
        let i = id.0;
        i >= self.local_base && i < self.local_base + self.local_len
    }
}

impl<M: Clone> Core<M> {
    fn send_from(&mut self, me: NodeId, to: NodeId, msg: M, tag: &'static str) {
        self.stats.messages += 1;
        *self.stats.messages_by_tag.entry(tag).or_insert(0) += 1;
        if !self.is_local(to) {
            // Cross-partition: the hosting driver routes it (real channel,
            // real latency, and the driver's own wire transport) — nothing
            // is decided here.
            self.outbox.push((me, to, msg));
            return;
        }
        // All delivery policy — latency, FIFO, faults — lives in the
        // transport; the kernel only schedules what it is told to.
        let plan = self.transport.plan(me, to, self.now, &mut self.rng);
        self.stats.dropped += u64::from(plan.dropped);
        self.stats.duplicated += u64::from(plan.duplicated);
        self.stats.reordered += plan.reordered;
        match (plan.first, plan.dup) {
            (Some(at), Some(dup_at)) => {
                self.push(
                    at,
                    Payload::Deliver {
                        to,
                        from: me,
                        msg: msg.clone(),
                    },
                );
                self.push(dup_at, Payload::Deliver { to, from: me, msg });
            }
            (Some(at), None) => self.push(at, Payload::Deliver { to, from: me, msg }),
            (None, _) => {}
        }
    }
}

/// Capability handle given to actor callbacks: clock, sending, timers, RNG,
/// and tracing.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    me: NodeId,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the actor being called.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Fire [`Actor::on_timer`] with `token` after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, token: u64) {
        let at = self.core.now + delay;
        self.core.push(
            at,
            Payload::Timer {
                node: self.me,
                token,
            },
        );
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Is tracing enabled? (Lets callers skip building expensive strings.)
    #[inline]
    pub fn tracing(&self) -> bool {
        self.core.trace.is_some()
    }

    /// Record a trace line; `f` is only evaluated when tracing is enabled.
    pub fn trace(&mut self, f: impl FnOnce() -> String) {
        let now = self.core.now;
        let me = self.me;
        if let Some(t) = &mut self.core.trace {
            t.record(now, me, f());
        }
    }
}

impl<M: Clone> Ctx<'_, M> {
    /// Send `msg` to `to` with the default tag. (`M: Clone` because the
    /// transport's fault plane may deliver a duplicate copy.)
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.send_from(self.me, to, msg, "msg");
    }

    /// Send `msg` to `to`, accounted under `tag` in [`SimStats`].
    pub fn send_tagged(&mut self, to: NodeId, msg: M, tag: &'static str) {
        self.core.send_from(self.me, to, msg, tag);
    }
}

/// A deterministic discrete-event simulation over a set of actors.
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    core: Core<A::Msg>,
    started: bool,
    /// Reused across every batched delivery; `on_batch` drains it.
    batch_buf: Vec<(NodeId, A::Msg)>,
}

impl<A: Actor> Simulation<A> {
    /// Build a simulation over `actors` (actor `i` has `NodeId(i)`).
    pub fn new(actors: Vec<A>, cfg: SimConfig) -> Self {
        Self::new_partition(actors, 0, cfg)
    }

    /// Build a *partitioned* simulation: this instance hosts actors with
    /// ids `base .. base + actors.len()`. Sends to ids outside the
    /// partition are collected in an outbox (see
    /// [`Simulation::drain_outbox`]) for an external driver — the sharded
    /// shuttle or the real-thread runtime — to route.
    pub fn new_partition(actors: Vec<A>, base: u16, cfg: SimConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let transport = Transport::new(&cfg);
        let local_len = actors.len() as u16;
        let mut sim = Simulation {
            actors,
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                cfg,
                rng,
                transport,
                stats: SimStats::default(),
                chosen_mode: false,
                down: BTreeSet::new(),
                trace: None,
                local_base: base,
                local_len,
                outbox: Vec::new(),
            },
            started: false,
            batch_buf: Vec::new(),
        };
        // Schedule crash-restart events for local actors up front. Guarded
        // on the crash list being non-empty so crash-free runs consume no
        // sequence numbers and stay bit-identical to pre-crash-support
        // schedules; with crashes, every ordinary event's seq shifts by the
        // same constant, which preserves relative order.
        if !sim.core.cfg.faults.crashes.is_empty() {
            let crashes = sim.core.cfg.faults.crashes.clone();
            for c in crashes {
                if sim.core.is_local(c.node) {
                    sim.core.push(
                        c.at,
                        Payload::Crash {
                            node: c.node,
                            until: c.until(),
                        },
                    );
                    sim.core.push(c.until(), Payload::Restart { node: c.node });
                }
            }
        }
        sim
    }

    /// Drain messages addressed outside this partition into `buf`,
    /// appending. The outbox keeps its allocation, so a long-running driver
    /// touches the allocator only until both buffers reach their
    /// high-water size.
    pub fn drain_outbox(&mut self, buf: &mut Vec<(NodeId, NodeId, A::Msg)>) {
        buf.append(&mut self.core.outbox);
    }

    /// Timestamp of the earliest pending local event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.core.queue.peek().map(|e| e.at)
    }

    /// Advance the clock without processing events (real-time drivers tie
    /// virtual time to the wall clock). Monotone: earlier times are
    /// ignored.
    pub fn set_now(&mut self, t: SimTime) {
        if t > self.core.now {
            // Never jump past a pending event: processing order must hold.
            let cap = self.next_event_at().unwrap_or(SimTime::MAX);
            self.core.now = t.min(cap);
        }
    }

    /// Enable trace recording (see [`Trace`]).
    pub fn enable_trace(&mut self) {
        self.core.trace = Some(Trace::default());
    }

    /// Take the recorded trace, if any.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.core.trace.take()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Kernel statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.core.stats
    }

    /// Per-link transport statistics so far (sent/delivered/dropped/
    /// duplicated/reordered).
    pub fn transport_stats(&self) -> &TransportStats {
        self.core.transport.stats()
    }

    /// Shared access to the actors.
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Mutable access to the actors (between runs; e.g. to inject state).
    pub fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }

    /// Consume the simulation, returning the actors.
    pub fn into_actors(self) -> Vec<A> {
        self.actors
    }

    /// Inject a message for delivery at an absolute virtual time. Used by
    /// scripted replays (the Table 1 scenario) and workload drivers.
    /// Scripted replays pin exact delivery instants, so this bypasses the
    /// transport deliberately — the fault plane does not apply.
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: A::Msg) {
        assert!(at >= self.core.now, "cannot inject into the past");
        self.core.stats.messages += 1;
        *self.core.stats.messages_by_tag.entry("inject").or_insert(0) += 1;
        self.core.push(at, Payload::Deliver { to, from, msg });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let me = NodeId(self.core.local_base + i as u16);
            let mut ctx = Ctx {
                core: &mut self.core,
                me,
            };
            self.actors[i].on_start(&mut ctx);
        }
    }

    /// Process a single event — or, with [`SimConfig::batch`], the whole
    /// run of same-timestamp deliveries to the same actor that heads the
    /// queue. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(ev) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(
            self.core.chosen_mode || ev.at >= self.core.now,
            "time went backwards"
        );
        if ev.at > self.core.now {
            self.core.now = ev.at;
        }
        if self.core.cfg.batch {
            if let Payload::Deliver { to, from, msg } = ev.payload {
                let idx = to.index() - self.core.local_base as usize;
                assert!(idx < self.actors.len(), "message to unknown actor {to}");
                // Coalesce the head run. Only *consecutive* heap-order
                // events are merged, so batching can never leapfrog a
                // same-timestamp delivery to another actor.
                self.batch_buf.clear();
                self.batch_buf.push((from, msg));
                while let Some(next) = self.core.queue.peek() {
                    let same_run = next.at == ev.at
                        && matches!(&next.payload, Payload::Deliver { to: t, .. } if *t == to);
                    if !same_run {
                        break;
                    }
                    // The event just peeked is the one popped (single-
                    // threaded heap); anything else would be a kernel
                    // defect. Push non-deliveries back rather than panic.
                    match self.core.queue.pop() {
                        Some(Event {
                            payload: Payload::Deliver { from, msg, .. },
                            ..
                        }) => self.batch_buf.push((from, msg)),
                        Some(other) => {
                            self.core.queue.push(other);
                            break;
                        }
                        None => break,
                    }
                }
                self.core.stats.events += self.batch_buf.len() as u64;
                self.core.stats.batches += 1;
                self.core.stats.batched_msgs += self.batch_buf.len() as u64;
                let mut ctx = Ctx {
                    core: &mut self.core,
                    me: to,
                };
                self.actors[idx].on_batch(&mut ctx, &mut self.batch_buf);
                self.batch_buf.clear();
                return true;
            }
        }
        self.dispatch_event(ev.payload);
        true
    }

    /// Hand one event's payload to its actor (per-message path; the batch
    /// coalescing above is the only other dispatch site). Shared by
    /// [`Simulation::step`] and [`Simulation::step_chosen`] so the two
    /// execution orders differ only in *which* event runs, never in how.
    fn dispatch_event(&mut self, payload: Payload<A::Msg>) {
        match payload {
            Payload::Deliver { to, from, msg } => {
                let idx = to.index() - self.core.local_base as usize;
                assert!(idx < self.actors.len(), "message to unknown actor {to}");
                self.core.stats.events += 1;
                let mut ctx = Ctx {
                    core: &mut self.core,
                    me: to,
                };
                self.actors[idx].on_message(&mut ctx, from, msg);
            }
            Payload::Timer { node, token } => {
                self.core.stats.events += 1;
                self.core.stats.timers += 1;
                let idx = node.index() - self.core.local_base as usize;
                let mut ctx = Ctx {
                    core: &mut self.core,
                    me: node,
                };
                self.actors[idx].on_timer(&mut ctx, token);
            }
            Payload::Crash { node, until } => {
                self.core.stats.events += 1;
                self.core.stats.crashes += 1;
                self.purge_for_crash(node, until);
                self.core.down.insert(node);
                let idx = node.index() - self.core.local_base as usize;
                let mut ctx = Ctx {
                    core: &mut self.core,
                    me: node,
                };
                self.actors[idx].on_crash(&mut ctx);
            }
            Payload::Restart { node } => {
                self.core.stats.events += 1;
                self.core.down.remove(&node);
                let idx = node.index() - self.core.local_base as usize;
                let mut ctx = Ctx {
                    core: &mut self.core,
                    me: node,
                };
                self.actors[idx].on_restart(&mut ctx);
            }
        }
    }

    /// The pending events an external [`Scheduler`] may pick from, sorted
    /// by `(at, seq)` — index 0 is the event [`Simulation::step`] would
    /// run. Calls [`Actor::on_start`] first if needed, so the initial set
    /// already contains the actors' start-up timers and sends.
    ///
    /// Two causality guards are applied:
    ///
    /// * for each node, only its earliest-sequenced pending crash-lifecycle
    ///   event (Crash/Restart) is exposed. Crash and restart events are
    ///   scheduled as a pair at construction; without the guard a scheduler
    ///   could run a restart before its crash, an ordering no real
    ///   execution exhibits;
    /// * deliveries and timers targeting a node that is currently *down*
    ///   (its Crash executed, its Restart still pending) are withheld — a
    ///   down node processes nothing. They become enabled again after the
    ///   restart, which the network is always free to emulate by delaying
    ///   delivery; without the guard a scheduler could feed messages into
    ///   the wiped pre-recovery state (and, worse, have the node WAL-log
    ///   their effects, corrupting the recovery it has not run yet).
    pub fn enabled_events(&mut self) -> Vec<EnabledEvent> {
        self.ensure_started();
        // First pass: the earliest lifecycle event per node.
        let mut first_lifecycle: BTreeMap<NodeId, u64> = BTreeMap::new();
        for e in self.core.queue.iter() {
            let node = match &e.payload {
                Payload::Crash { node, .. } | Payload::Restart { node } => *node,
                _ => continue,
            };
            let entry = first_lifecycle.entry(node).or_insert(e.seq);
            if e.seq < *entry {
                *entry = e.seq;
            }
        }
        let mut enabled: Vec<EnabledEvent> = self
            .core
            .queue
            .iter()
            .filter_map(|e| {
                let (kind, target, from) = match &e.payload {
                    Payload::Deliver { to, from, .. } => {
                        if self.core.down.contains(to) {
                            return None;
                        }
                        (EnabledKind::Deliver, *to, Some(*from))
                    }
                    Payload::Timer { node, .. } => {
                        if self.core.down.contains(node) {
                            return None;
                        }
                        (EnabledKind::Timer, *node, None)
                    }
                    Payload::Crash { node, .. } => {
                        if first_lifecycle.get(node) != Some(&e.seq) {
                            return None;
                        }
                        (EnabledKind::Crash, *node, None)
                    }
                    Payload::Restart { node } => {
                        if first_lifecycle.get(node) != Some(&e.seq) {
                            return None;
                        }
                        (EnabledKind::Restart, *node, None)
                    }
                };
                Some(EnabledEvent {
                    at: e.at,
                    seq: e.seq,
                    kind,
                    target,
                    from,
                })
            })
            .collect();
        enabled.sort_unstable_by_key(|e| (e.at, e.seq));
        enabled
    }

    /// Execute the pending event with sequence number `seq` (from
    /// [`Simulation::enabled_events`]), regardless of its position in time
    /// order. The clock is clamped forward (`now = max(now, at)`), so an
    /// event executed "late" runs at the already-advanced clock — virtual
    /// time never goes backwards. Returns `false` if no pending event has
    /// that sequence number.
    ///
    /// This is the model checker's execution primitive: delivery *order*
    /// becomes an explicit external choice while everything else (actor
    /// code, latency sampling, fault decisions) stays exactly as under
    /// [`Simulation::step`]. Batch coalescing does not apply — checked
    /// configurations run per-message (`SimConfig::batch == false`).
    pub fn step_chosen(&mut self, seq: u64) -> bool {
        self.ensure_started();
        if !self.core.chosen_mode {
            self.core.chosen_mode = true;
            // Time-window crash filtering is meaningless once the clock is
            // clamped; crash effects are driven by the executed Crash /
            // Restart events and the `down` set from here on (see
            // `Transport::disable_crash_windows`).
            self.core.transport.disable_crash_windows();
        }
        let events = std::mem::take(&mut self.core.queue).into_vec();
        let mut chosen = None;
        let mut rest = Vec::with_capacity(events.len());
        for e in events {
            if e.seq == seq && chosen.is_none() {
                chosen = Some(e);
            } else {
                rest.push(e);
            }
        }
        self.core.queue = BinaryHeap::from(rest);
        let Some(ev) = chosen else {
            return false;
        };
        if ev.at > self.core.now {
            self.core.now = ev.at;
        }
        self.dispatch_event(ev.payload);
        true
    }

    /// Drop the crashed node's in-flight inbox from the event heap: queued
    /// deliveries that would arrive inside the dead window (covers
    /// self-sends and injected messages, which bypass the transport's own
    /// crash filter) and *all* of its pending timers (timers are volatile
    /// state). Events keep their original sequence numbers, so the relative
    /// order of everything that survives is untouched.
    ///
    /// Under chosen-order execution deliveries are *kept*: the dead window
    /// is defined in scheduled time, which the clamped clock no longer
    /// tracks, so the in-flight inbox is withheld by the `down` set until
    /// the restart executes (delayed, not lost) instead of being guessed
    /// at. Timers are still purged — they are volatile state regardless of
    /// how the schedule is driven.
    fn purge_for_crash(&mut self, node: NodeId, until: SimTime) {
        let chosen_mode = self.core.chosen_mode;
        let events = std::mem::take(&mut self.core.queue).into_vec();
        let before = events.len();
        let kept: Vec<Event<A::Msg>> = events
            .into_iter()
            .filter(|e| match &e.payload {
                Payload::Deliver { to, .. } => chosen_mode || *to != node || e.at >= until,
                Payload::Timer { node: n, .. } => *n != node,
                Payload::Crash { .. } | Payload::Restart { .. } => true,
            })
            .collect();
        self.core.stats.crash_purged += (before - kept.len()) as u64;
        self.core.queue = BinaryHeap::from(kept);
    }

    /// Deliver externally received messages directly, bypassing the event
    /// heap. The threaded runtime drains its channel into `inbox` and
    /// hands one wakeup's worth here: messages are processed in `inbox`
    /// order, with each consecutive run addressed to the same actor handed
    /// to [`Actor::on_batch`] as one batch. Per-message accounting matches
    /// [`Simulation::inject_at`] followed by [`Simulation::step`], so
    /// batched and per-message drivers report comparable stats. `inbox` is
    /// drained but keeps its capacity for the driver to reuse.
    ///
    /// The caller must first run local events up to `at` (e.g. via
    /// [`Simulation::run_until`]); delivering ahead of pending earlier
    /// events would reorder the world.
    pub fn deliver_batch(&mut self, at: SimTime, inbox: &mut Vec<(NodeId, NodeId, A::Msg)>) {
        self.ensure_started();
        assert!(at >= self.core.now, "cannot deliver into the past");
        debug_assert!(
            self.next_event_at().is_none_or(|t| t >= at),
            "deliver_batch would leapfrog a pending local event"
        );
        self.core.now = at;
        let mut run_to: Option<NodeId> = None;
        for (from, to, msg) in inbox.drain(..) {
            if run_to != Some(to) {
                if let Some(prev) = run_to {
                    self.flush_batch(prev);
                }
                run_to = Some(to);
            }
            self.batch_buf.push((from, msg));
        }
        if let Some(prev) = run_to {
            self.flush_batch(prev);
        }
    }

    /// Hand the accumulated `batch_buf` to actor `to` as one batch.
    fn flush_batch(&mut self, to: NodeId) {
        let idx = to.index() - self.core.local_base as usize;
        assert!(idx < self.actors.len(), "message to unknown actor {to}");
        let n = self.batch_buf.len() as u64;
        self.core.stats.messages += n;
        *self.core.stats.messages_by_tag.entry("inject").or_insert(0) += n;
        self.core.stats.events += n;
        self.core.stats.batches += 1;
        self.core.stats.batched_msgs += n;
        let mut ctx = Ctx {
            core: &mut self.core,
            me: to,
        };
        self.actors[idx].on_batch(&mut ctx, &mut self.batch_buf);
        self.batch_buf.clear();
    }

    /// Drive the simulation through an external [`Scheduler`] until the
    /// queue drains or `max_steps` events have executed. Returns the
    /// number of events executed. With [`EarliestScheduler`] and
    /// `SimConfig::batch == false` this is bit-identical to
    /// [`Simulation::run_to_quiescence`].
    pub fn run_with_scheduler(&mut self, sched: &mut dyn Scheduler, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps {
            let enabled = self.enabled_events();
            if enabled.is_empty() {
                break;
            }
            let idx = sched.choose(&enabled).min(enabled.len() - 1);
            self.step_chosen(enabled[idx].seq);
            steps += 1;
        }
        steps
    }

    /// Run until the queue drains or virtual time would exceed `time_cap`.
    pub fn run_to_quiescence(&mut self, time_cap: SimTime) -> QuiesceOutcome {
        self.ensure_started();
        loop {
            match self.core.queue.peek() {
                None => return QuiesceOutcome::Quiescent(self.core.now),
                Some(ev) if ev.at > time_cap => {
                    self.core.now = time_cap;
                    return QuiesceOutcome::TimeCapped(self.core.now);
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run all events with timestamps `<= until`, then set the clock to
    /// `until`. Pending later events remain queued.
    pub fn run_until(&mut self, until: SimTime) {
        self.ensure_started();
        while let Some(ev) = self.core.queue.peek() {
            if ev.at > until {
                break;
            }
            self.step();
        }
        if self.core.now < until {
            self.core.now = until;
        }
    }
}

impl<A: Actor> Simulation<A>
where
    A::Msg: Clone,
{
    /// Inject a message from the outside world (`from` is attributed as the
    /// sender), delivered through the transport after the configured
    /// latency (and subject to the fault plane, like any other send).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.core.send_from(from, to, msg, "inject");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong actor: replies to `n` with `n-1` until zero.
    struct Pinger {
        received: Vec<u64>,
        timer_tokens: Vec<u64>,
    }

    impl Pinger {
        fn new() -> Self {
            Pinger {
                received: Vec::new(),
                timer_tokens: Vec::new(),
            }
        }
    }

    impl Actor for Pinger {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.received.push(msg);
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, token: u64) {
            self.timer_tokens.push(token);
        }
    }

    fn two_pingers(seed: u64) -> Simulation<Pinger> {
        Simulation::new(vec![Pinger::new(), Pinger::new()], SimConfig::seeded(seed))
    }

    #[test]
    fn ping_pong_terminates() {
        let mut sim = two_pingers(1);
        sim.inject(NodeId(0), NodeId(1), 5);
        let out = sim.run_to_quiescence(SimTime::MAX);
        assert!(matches!(out, QuiesceOutcome::Quiescent(_)));
        let a = &sim.actors()[0];
        let b = &sim.actors()[1];
        assert_eq!(b.received, vec![5, 3, 1]);
        assert_eq!(a.received, vec![4, 2, 0]);
        assert_eq!(sim.stats().messages, 6); // inject + 5 replies
        assert_eq!(sim.stats().tagged("inject"), 1);
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = two_pingers(seed);
            sim.inject(NodeId(0), NodeId(1), 20);
            sim.run_to_quiescence(SimTime::MAX);
            sim.now()
        };
        assert_eq!(run(7), run(7));
        // different seed -> different jitter -> (almost surely) different end
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn time_cap_stops_early() {
        let mut sim = two_pingers(1);
        sim.inject_at(SimTime(1_000_000), NodeId(0), NodeId(1), 1);
        let out = sim.run_to_quiescence(SimTime(10));
        assert_eq!(out, QuiesceOutcome::TimeCapped(SimTime(10)));
        assert_eq!(sim.now(), SimTime(10));
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim = two_pingers(1);
        sim.inject_at(SimTime(50), NodeId(0), NodeId(1), 0);
        sim.inject_at(SimTime(500), NodeId(0), NodeId(1), 0);
        sim.run_until(SimTime(100));
        assert_eq!(sim.actors()[1].received.len(), 1);
        assert_eq!(sim.now(), SimTime(100));
        sim.run_to_quiescence(SimTime::MAX);
        assert_eq!(sim.actors()[1].received.len(), 2);
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            fired: Vec<(u64, SimTime)>,
        }
        impl Actor for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.schedule(SimDuration::from_micros(30), 3);
                ctx.schedule(SimDuration::from_micros(10), 1);
                ctx.schedule(SimDuration::from_micros(20), 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
                self.fired.push((token, ctx.now()));
            }
        }
        let mut sim = Simulation::new(vec![T { fired: vec![] }], SimConfig::seeded(0));
        sim.run_to_quiescence(SimTime::MAX);
        let fired = &sim.actors()[0].fired;
        assert_eq!(
            fired,
            &vec![(1, SimTime(10)), (2, SimTime(20)), (3, SimTime(30)),]
        );
    }

    #[test]
    fn fifo_mode_preserves_order() {
        // With heavy jitter and many messages, non-FIFO reorders but FIFO
        // must preserve send order.
        struct Sink {
            got: Vec<u64>,
        }
        impl Actor for Sink {
            type Msg = u64;
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
                self.got.push(msg);
            }
        }
        struct Src;
        impl Actor for Src {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                for i in 0..100 {
                    ctx.send(NodeId(1), i);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64) {}
        }

        // Erase the actor-type difference with an enum.
        enum Either {
            Src(Src),
            Sink(Sink),
        }
        impl Actor for Either {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                if let Either::Src(s) = self {
                    s.on_start(ctx)
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
                match self {
                    Either::Src(s) => s.on_message(ctx, from, msg),
                    Either::Sink(s) => s.on_message(ctx, from, msg),
                }
            }
        }

        let mk = |fifo: bool| {
            let cfg = SimConfig {
                fifo,
                latency: LatencyModel::Uniform {
                    min: SimDuration(1),
                    max: SimDuration(1000),
                },
                ..SimConfig::seeded(42)
            };
            let mut sim = Simulation::new(
                vec![Either::Src(Src), Either::Sink(Sink { got: vec![] })],
                cfg,
            );
            sim.run_to_quiescence(SimTime::MAX);
            match &sim.actors()[1] {
                Either::Sink(s) => s.got.clone(),
                _ => unreachable!(),
            }
        };
        let in_order: Vec<u64> = (0..100).collect();
        assert_eq!(mk(true), in_order, "fifo must deliver in send order");
        assert_ne!(mk(false), in_order, "jitter should reorder without fifo");
    }

    /// Records every message plus the size of each batch it arrived in.
    struct BatchSink {
        got: Vec<(NodeId, u64)>,
        batch_sizes: Vec<usize>,
    }
    impl Actor for BatchSink {
        type Msg = u64;
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.got.push((from, msg));
        }
        fn on_batch(&mut self, ctx: &mut Ctx<'_, u64>, batch: &mut Vec<(NodeId, u64)>) {
            self.batch_sizes.push(batch.len());
            for (from, msg) in batch.drain(..) {
                self.on_message(ctx, from, msg);
            }
        }
    }

    #[test]
    fn batched_mode_identical_to_per_message() {
        // Jittery latency so the schedule is nontrivial; same seed both
        // ways. Batching may only change *how* deliveries are dispatched,
        // never what the actors observe.
        let run = |batch: bool| {
            let cfg = SimConfig {
                batch,
                latency: LatencyModel::Uniform {
                    min: SimDuration(1),
                    max: SimDuration(500),
                },
                ..SimConfig::seeded(99)
            };
            let mut sim = Simulation::new(
                vec![
                    BatchSink {
                        got: vec![],
                        batch_sizes: vec![],
                    },
                    BatchSink {
                        got: vec![],
                        batch_sizes: vec![],
                    },
                ],
                cfg,
            );
            for i in 0..200u64 {
                sim.inject_at(SimTime(i / 4), NodeId(1), NodeId(0), i);
            }
            sim.run_to_quiescence(SimTime::MAX);
            (
                sim.actors()[0].got.clone(),
                sim.stats().messages,
                sim.stats().events,
                sim.stats().timers,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn batch_coalesces_same_time_runs() {
        let cfg = SimConfig {
            batch: true,
            latency: LatencyModel::Fixed(SimDuration(10)),
            ..SimConfig::seeded(0)
        };
        let mut sim = Simulation::new(
            vec![BatchSink {
                got: vec![],
                batch_sizes: vec![],
            }],
            cfg,
        );
        // Three messages injected for the same instant coalesce into one
        // on_batch; the straggler at a later time forms its own batch.
        for i in 0..3 {
            sim.inject_at(SimTime(5), NodeId(7), NodeId(0), i);
        }
        sim.inject_at(SimTime(6), NodeId(7), NodeId(0), 3);
        sim.run_to_quiescence(SimTime::MAX);
        let sink = &sim.actors()[0];
        assert_eq!(sink.batch_sizes, vec![3, 1]);
        assert_eq!(sink.got.len(), 4);
        assert_eq!(sim.stats().batches, 2);
        assert_eq!(sim.stats().batched_msgs, 4);
        assert_eq!(sim.stats().events, 4);
    }

    #[test]
    fn deliver_batch_groups_runs_and_reuses_buffers() {
        let mut sim = Simulation::new(
            vec![
                BatchSink {
                    got: vec![],
                    batch_sizes: vec![],
                },
                BatchSink {
                    got: vec![],
                    batch_sizes: vec![],
                },
            ],
            SimConfig::seeded(0),
        );
        let ext = NodeId(9);
        let mut inbox = vec![
            (ext, NodeId(0), 1u64),
            (ext, NodeId(0), 2),
            (ext, NodeId(1), 3),
            (ext, NodeId(0), 4),
        ];
        let cap = inbox.capacity();
        sim.deliver_batch(SimTime(42), &mut inbox);
        assert!(inbox.is_empty());
        assert_eq!(inbox.capacity(), cap, "driver buffer must be reusable");
        assert_eq!(sim.now(), SimTime(42));
        // Consecutive runs to the same actor batch together; the
        // interleaved send to actor 1 splits actor 0's deliveries.
        assert_eq!(sim.actors()[0].batch_sizes, vec![2, 1]);
        assert_eq!(sim.actors()[1].batch_sizes, vec![1]);
        assert_eq!(sim.actors()[0].got, vec![(ext, 1), (ext, 2), (ext, 4)]);
        assert_eq!(sim.stats().messages, 4);
        assert_eq!(sim.stats().tagged("inject"), 4);
        assert_eq!(sim.stats().events, 4);
        assert_eq!(sim.stats().batches, 3);
    }

    #[test]
    fn for_partition_decorrelates_seeds() {
        let base = SimConfig::seeded(1234);
        let a = base.for_partition(0);
        let b = base.for_partition(1);
        assert_eq!(a.seed, 1234, "partition 0 keeps the base seed");
        assert_ne!(a.seed, b.seed);
        assert_eq!(b.fifo, base.fifo);
        // Stable across calls: drivers on different threads must agree.
        assert_eq!(base.for_partition(1).seed, b.seed);
    }

    #[test]
    fn for_partition_decorrelates_fault_streams_independently() {
        let base = SimConfig::seeded(1234);
        let a = base.for_partition(0);
        let b = base.for_partition(1);
        let c = base.for_partition(2);
        assert_eq!(
            a.fault_stream, 0,
            "partition 0 keeps the historical fault derivation"
        );
        assert_ne!(b.fault_stream, 0);
        assert_ne!(b.fault_stream, c.fault_stream);
        // Independent axes: the fault-stream selector must not be a
        // function of the (partition-mixed) delivery seed.
        assert_ne!(b.fault_stream, b.seed ^ base.seed);
        assert_eq!(base.for_partition(1).fault_stream, b.fault_stream);
    }

    #[test]
    fn fault_plane_drops_and_duplicates_through_the_kernel() {
        use crate::transport::FaultPlane;
        struct Sink {
            got: Vec<u64>,
        }
        impl Actor for Sink {
            type Msg = u64;
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
                self.got.push(msg);
            }
        }
        let run = |faults: FaultPlane| {
            let cfg = SimConfig {
                faults,
                latency: LatencyModel::Fixed(SimDuration(10)),
                ..SimConfig::seeded(3)
            };
            let mut sim = Simulation::new(vec![Sink { got: vec![] }, Sink { got: vec![] }], cfg);
            for i in 0..1_000u64 {
                sim.inject(NodeId(0), NodeId(1), i);
            }
            sim.run_to_quiescence(SimTime::MAX);
            (sim.actors()[1].got.len(), sim.stats().clone())
        };

        let (clean_n, clean) = run(FaultPlane::default());
        assert_eq!(clean_n, 1_000);
        assert_eq!(clean.dropped + clean.duplicated + clean.reordered, 0);

        let (lossy_n, lossy) = run(FaultPlane::lossy(200_000, 100_000));
        assert!(lossy.dropped > 0 && lossy.duplicated > 0);
        assert_eq!(
            lossy_n as u64,
            1_000 - lossy.dropped + lossy.duplicated,
            "every non-dropped copy must be delivered"
        );
        // `messages` counts sends, not deliveries: identical either way.
        assert_eq!(lossy.messages, clean.messages);
    }

    #[test]
    fn fault_rng_is_decorrelated_from_latency_stream() {
        // Same seed, jittery latency: the delivery schedule of the
        // *surviving* messages must be unchanged by enabling faults,
        // because fault decisions draw from their own stream.
        struct Sink {
            got: Vec<(SimTime, u64)>,
        }
        impl Actor for Sink {
            type Msg = u64;
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
                self.got.push((ctx.now(), msg));
            }
        }
        let run = |faults: crate::transport::FaultPlane| {
            let cfg = SimConfig {
                faults,
                latency: LatencyModel::Uniform {
                    min: SimDuration(1),
                    max: SimDuration(900),
                },
                ..SimConfig::seeded(17)
            };
            let mut sim = Simulation::new(vec![Sink { got: vec![] }, Sink { got: vec![] }], cfg);
            for i in 0..300u64 {
                sim.inject(NodeId(0), NodeId(1), i);
            }
            sim.run_to_quiescence(SimTime::MAX);
            sim.actors()[1].got.clone()
        };
        let clean = run(crate::transport::FaultPlane::default());
        let lossy = run(crate::transport::FaultPlane::lossy(150_000, 0));
        let surviving: Vec<_> = clean
            .iter()
            .filter(|(_, m)| lossy.iter().any(|(_, lm)| lm == m))
            .cloned()
            .collect();
        assert_eq!(
            surviving, lossy,
            "surviving messages must keep their no-fault delivery times"
        );
        assert!(lossy.len() < clean.len());
    }

    #[test]
    fn crash_purges_inbox_and_timers_then_restarts() {
        use crate::transport::NodeCrash;
        #[derive(Default)]
        struct C {
            got: Vec<u64>,
            timers_fired: Vec<u64>,
            crashes: u64,
            restarts: u64,
        }
        impl Actor for C {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                if ctx.me() == NodeId(1) {
                    ctx.schedule(SimDuration(150), 7); // inside the dead window
                    ctx.schedule(SimDuration(250), 8); // after restart: still volatile
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
                self.got.push(msg);
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, u64>, token: u64) {
                self.timers_fired.push(token);
            }
            fn on_crash(&mut self, _: &mut Ctx<'_, u64>) {
                self.got.clear(); // volatile state dies
                self.crashes += 1;
            }
            fn on_restart(&mut self, _: &mut Ctx<'_, u64>) {
                self.restarts += 1;
            }
        }
        let cfg = SimConfig {
            faults: FaultPlane {
                crashes: vec![NodeCrash {
                    node: NodeId(1),
                    at: SimTime(100),
                    restart_after: SimDuration(100),
                }],
                ..FaultPlane::default()
            },
            ..SimConfig::seeded(0)
        };
        let mut sim = Simulation::new(vec![C::default(), C::default()], cfg);
        sim.inject_at(SimTime(50), NodeId(0), NodeId(1), 1); // before the crash
        sim.inject_at(SimTime(150), NodeId(0), NodeId(1), 2); // lost with the inbox
        sim.inject_at(SimTime(250), NodeId(0), NodeId(1), 3); // after restart
        sim.run_to_quiescence(SimTime::MAX);
        let c = &sim.actors()[1];
        assert_eq!(c.crashes, 1);
        assert_eq!(c.restarts, 1);
        assert_eq!(c.got, vec![3], "pre-crash state cleared, mid-window lost");
        assert!(c.timers_fired.is_empty(), "timers are volatile");
        assert_eq!(sim.stats().crashes, 1);
        assert_eq!(sim.stats().crash_purged, 3); // delivery@150 + both timers
    }

    /// Sink recording `(time, from, msg)` for schedule comparisons.
    #[derive(Default)]
    struct SchedSink {
        got: Vec<(SimTime, NodeId, u64)>,
    }
    impl Actor for SchedSink {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.got.push((ctx.now(), from, msg));
            if msg > 0 && msg % 2 == 1 {
                ctx.send(from, msg - 1);
            }
        }
    }

    #[test]
    fn earliest_scheduler_is_bit_identical() {
        // Jittery latency + replies so the schedule is nontrivial. The
        // default scheduler must reproduce run_to_quiescence exactly:
        // same deliveries at the same instants, same stats.
        let build = || {
            let cfg = SimConfig {
                latency: LatencyModel::Uniform {
                    min: SimDuration(1),
                    max: SimDuration(700),
                },
                ..SimConfig::seeded(2024)
            };
            let mut sim = Simulation::new(vec![SchedSink::default(), SchedSink::default()], cfg);
            for i in 0..40u64 {
                sim.inject(NodeId(0), NodeId(1), i);
            }
            sim
        };
        let mut a = build();
        a.run_to_quiescence(SimTime::MAX);
        let mut b = build();
        let mut sched = EarliestScheduler;
        b.run_with_scheduler(&mut sched, u64::MAX);
        assert_eq!(a.actors()[0].got, b.actors()[0].got);
        assert_eq!(a.actors()[1].got, b.actors()[1].got);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats().messages, b.stats().messages);
        assert_eq!(a.stats().events, b.stats().events);
        assert_eq!(a.stats().timers, b.stats().timers);
    }

    #[test]
    fn step_chosen_reorders_and_clamps_time() {
        let cfg = SimConfig {
            latency: LatencyModel::Fixed(SimDuration(10)),
            ..SimConfig::seeded(0)
        };
        let mut sim = Simulation::new(vec![SchedSink::default()], cfg);
        sim.inject_at(SimTime(10), NodeId(5), NodeId(0), 2);
        sim.inject_at(SimTime(20), NodeId(5), NodeId(0), 4);
        let enabled = sim.enabled_events();
        assert_eq!(enabled.len(), 2);
        assert_eq!(enabled[0].at, SimTime(10));
        assert_eq!(enabled[0].kind, EnabledKind::Deliver);
        // Execute the later event first: the clock jumps to 20 and the
        // earlier event then runs "late" at the clamped clock.
        assert!(sim.step_chosen(enabled[1].seq));
        assert!(sim.step_chosen(enabled[0].seq));
        assert!(sim.enabled_events().is_empty());
        assert_eq!(
            sim.actors()[0].got,
            vec![(SimTime(20), NodeId(5), 4), (SimTime(20), NodeId(5), 2)]
        );
        // Unknown seq is refused, not a panic.
        assert!(!sim.step_chosen(999));
    }

    #[test]
    fn enabled_events_guard_crash_lifecycle_order() {
        use crate::transport::NodeCrash;
        let cfg = SimConfig {
            faults: FaultPlane {
                crashes: vec![NodeCrash {
                    node: NodeId(0),
                    at: SimTime(100),
                    restart_after: SimDuration(50),
                }],
                ..FaultPlane::default()
            },
            ..SimConfig::seeded(0)
        };
        let mut sim = Simulation::new(vec![SchedSink::default()], cfg);
        let enabled = sim.enabled_events();
        // The restart is pending but masked until the crash has executed.
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].kind, EnabledKind::Crash);
        assert!(sim.step_chosen(enabled[0].seq));
        let enabled = sim.enabled_events();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].kind, EnabledKind::Restart);
    }

    #[test]
    fn trace_records_lines() {
        struct Tracer;
        impl Actor for Tracer {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                assert!(ctx.tracing());
                ctx.trace(|| "hello".to_string());
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        let mut sim = Simulation::new(vec![Tracer], SimConfig::seeded(0));
        sim.enable_trace();
        sim.run_to_quiescence(SimTime::MAX);
        let trace = sim.take_trace().unwrap();
        assert_eq!(trace.lines().len(), 1);
        assert_eq!(trace.lines()[0].text, "hello");
    }
}
