//! Real-thread execution of the sans-io engines.
//!
//! The discrete-event simulator verifies the protocol; this crate runs the
//! **same actor code** on real OS threads for wall-clock measurements. Each
//! actor is hosted in a single-actor *partitioned* simulation
//! ([`threev_sim::Simulation::new_partition`]): its timers live in its
//! private event queue, virtual time is tied to the wall clock, and sends
//! to other actors leave through the partition outbox onto crossbeam
//! channels.
//!
//! Because an actor processes one message at a time on its own thread, the
//! local-serializability assumption of the paper (§3) holds exactly as it
//! does in the simulator — it is the same code path, scheduled by the OS
//! instead of the event heap.
//!
//! Delivery is batched: each wakeup drains the whole channel backlog into
//! a reusable inbox and hands it to the actor through
//! [`threev_sim::Actor::on_batch`] — one heap-free kernel entry per wakeup
//! instead of one event-queue round-trip per message. The channels carry
//! the structured messages themselves (cloned only for a fault-plane
//! duplicate). The discrete-event kernel stays the reference behaviour:
//! `tests/driver_equivalence.rs` pins threaded runs to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use threev_model::NodeId;
use threev_sim::{Actor, LinkStats, SimConfig, SimTime, Simulation, Transport};

/// Runs a set of actors on one thread each, routing cross-actor messages
/// over channels, for a fixed wall-clock duration.
pub struct ThreadedRun;

/// Per-run report: wall time spent and per-actor message counts.
#[derive(Clone, Debug, Default)]
pub struct ThreadedReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Messages processed per actor.
    pub messages_per_actor: Vec<u64>,
    /// `on_batch` invocations per actor.
    pub batches_per_actor: Vec<u64>,
    /// Per-actor transport totals (wire sends plus local kernel sends):
    /// sent/delivered/dropped/duplicated/reordered. With the fault plane
    /// disabled the fault counters are provably zero — asserted by
    /// `driver_equivalence`.
    pub transport_per_actor: Vec<LinkStats>,
}

impl ThreadedRun {
    /// Run `actors` (actor `i` gets `NodeId(i)`, its own thread, and its
    /// own seeded single-actor simulation) for `duration` of wall time,
    /// then a `drain` grace period with no new timer-driven work expected.
    /// Returns the actors (for record extraction) and a report.
    pub fn run<A>(
        actors: Vec<A>,
        cfg: SimConfig,
        duration: Duration,
        drain: Duration,
    ) -> (Vec<A>, ThreadedReport)
    where
        A: Actor + Send + 'static,
        A::Msg: Send + Clone + 'static,
    {
        let n = actors.len();
        let mut senders: Vec<Sender<(NodeId, NodeId, A::Msg)>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<(NodeId, NodeId, A::Msg)>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let start = Instant::now();
        let deadline = duration + drain;

        let mut handles = Vec::with_capacity(n);
        for (i, actor) in actors.into_iter().enumerate() {
            let rx = receivers[i].clone();
            let routes = senders.clone();
            let cfg = cfg.for_partition(i);
            let handle = thread::spawn(move || {
                // The same Transport as the DES kernel, in wire mode: the
                // channel is the link (no virtual latency), but every
                // drop/duplicate/delay/partition/pause decision is made by
                // the shared policy engine before a message is routed.
                let mut transport = Transport::wire(&cfg);
                let mut sim = Simulation::new_partition(vec![actor], i as u16, cfg);
                // Both buffers are reused across wakeups: after warm-up the
                // steady-state loop performs no allocation for routing.
                let mut inbox: Vec<(NodeId, NodeId, A::Msg)> = Vec::new();
                let mut outbox: Vec<(NodeId, NodeId, A::Msg)> = Vec::new();
                // Fault-delayed copies awaiting their wire delivery time.
                let mut held: Vec<(SimTime, NodeId, NodeId, A::Msg)> = Vec::new();
                loop {
                    let now = SimTime(start.elapsed().as_micros() as u64);
                    if start.elapsed() >= deadline {
                        break;
                    }
                    // Process everything due, route the fallout through the
                    // wire transport.
                    sim.run_until(now);
                    sim.drain_outbox(&mut outbox);
                    for (from, to, msg) in outbox.drain(..) {
                        let idx = to.index();
                        if idx >= routes.len() {
                            continue;
                        }
                        let plan = transport.plan_wire(from, to, now);
                        if let Some(at) = plan.dup {
                            held.push((at, from, to, msg.clone()));
                        }
                        match plan.first {
                            Some(at) if at <= now => {
                                // A send can fail only during shutdown.
                                let _ = routes[idx].send((from, to, msg));
                            }
                            Some(at) => held.push((at, from, to, msg)),
                            None => {} // dropped by the fault plane
                        }
                    }
                    // Release held copies that have come due.
                    let mut h = 0;
                    while h < held.len() {
                        if held[h].0 <= now {
                            let (_, from, to, msg) = held.swap_remove(h);
                            let _ = routes[to.index()].send((from, to, msg));
                        } else {
                            h += 1;
                        }
                    }
                    // Sleep until the next local timer, the next held-copy
                    // release, or an inbound message.
                    let next_held = held.iter().map(|(at, ..)| *at).min();
                    let next = match (sim.next_event_at(), next_held) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    let timeout = match next {
                        Some(t) if t <= now => Duration::ZERO,
                        Some(t) => Duration::from_micros(t.0 - now.0)
                            .min(deadline.saturating_sub(start.elapsed())),
                        None => {
                            Duration::from_millis(2).min(deadline.saturating_sub(start.elapsed()))
                        }
                    };
                    match rx.recv_timeout(timeout) {
                        Ok(first) => {
                            let now = SimTime(start.elapsed().as_micros() as u64);
                            sim.set_now(now);
                            let at = sim.now().max(now);
                            // Own dead window: a crashed node has no inbox.
                            // Drain and drop everything queued; the local
                            // Crash/Restart events still fire via run_until.
                            if transport.faults().crashed(NodeId(i as u16), at) {
                                while rx.try_recv().is_ok() {}
                                sim.run_until(at);
                                continue;
                            }
                            // One wakeup = one batch: everything queued
                            // right now, in channel order.
                            inbox.push(first);
                            while let Ok(m) = rx.try_recv() {
                                inbox.push(m);
                            }
                            // Fire timers that came due while blocked,
                            // then hand over the batch.
                            sim.run_until(at);
                            sim.deliver_batch(at, &mut inbox);
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                // Final local flush.
                let now = SimTime(start.elapsed().as_micros() as u64);
                sim.run_until(now);
                let processed = sim.stats().events;
                let batches = sim.stats().batches;
                // Wire sends plus this partition's local (self) sends.
                let mut transport_totals = transport.stats().totals();
                transport_totals.add(&sim.transport_stats().totals());
                (
                    sim.into_actors().pop().expect("one actor"),
                    processed,
                    batches,
                    transport_totals,
                )
            });
            handles.push(handle);
        }
        drop(senders);
        drop(receivers);

        let mut out_actors = Vec::with_capacity(n);
        let mut report = ThreadedReport {
            elapsed: Duration::ZERO,
            messages_per_actor: Vec::with_capacity(n),
            batches_per_actor: Vec::with_capacity(n),
            transport_per_actor: Vec::with_capacity(n),
        };
        for h in handles {
            let (actor, processed, batches, transport_totals) =
                h.join().expect("actor thread panicked");
            out_actors.push(actor);
            report.messages_per_actor.push(processed);
            report.batches_per_actor.push(batches);
            report.transport_per_actor.push(transport_totals);
        }
        report.elapsed = start.elapsed();
        (out_actors, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_sim::Ctx;

    /// Counter actor: node 0 fires N pings at node 1 on start; node 1
    /// echoes; node 0 counts echoes.
    struct Echo {
        send_initial: bool,
        peer: NodeId,
        received: u64,
        to_send: u64,
    }

    impl Actor for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.send_initial {
                for i in 0..self.to_send {
                    ctx.send(self.peer, i);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.received += 1;
            if !self.send_initial {
                ctx.send(from, msg); // echo
            }
        }
    }

    fn echo_pair() -> Vec<Echo> {
        vec![
            Echo {
                send_initial: true,
                peer: NodeId(1),
                received: 0,
                to_send: 500,
            },
            Echo {
                send_initial: false,
                peer: NodeId(0),
                received: 0,
                to_send: 0,
            },
        ]
    }

    #[test]
    fn threads_route_messages_both_ways() {
        let (actors, report) = ThreadedRun::run(
            echo_pair(),
            SimConfig::seeded(1),
            Duration::from_millis(300),
            Duration::from_millis(100),
        );
        assert_eq!(actors[1].received, 500, "all pings arrived");
        assert_eq!(actors[0].received, 500, "all echoes arrived");
        assert!(report.elapsed >= Duration::from_millis(300));
        assert_eq!(report.messages_per_actor.len(), 2);
        // Delivery is batched: wakeups happened, and no wakeup handled more
        // work than exists.
        let batches: u64 = report.batches_per_actor.iter().sum();
        assert!(batches > 0, "batched mode must report batches");
        assert!(batches <= 1000, "batches cannot exceed messages");
    }

    /// Timers must fire on the wall clock.
    struct Ticker {
        ticks: u64,
    }
    impl Actor for Ticker {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.schedule(threev_sim::SimDuration::from_millis(10), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
            self.ticks += 1;
            ctx.schedule(threev_sim::SimDuration::from_millis(10), 0);
        }
    }

    #[test]
    fn no_fault_run_reports_zero_fault_counters() {
        let (_, report) = ThreadedRun::run(
            echo_pair(),
            SimConfig::seeded(5),
            Duration::from_millis(200),
            Duration::from_millis(50),
        );
        let mut totals = LinkStats::default();
        for t in &report.transport_per_actor {
            totals.add(t);
        }
        assert!(totals.sent >= 1000, "sent={}", totals.sent);
        assert_eq!(
            (totals.dropped, totals.duplicated, totals.reordered),
            (0, 0, 0)
        );
    }

    #[test]
    fn fault_plane_applies_on_real_threads() {
        // Heavy loss on the wire: the echo exchange must lose messages, and
        // the loss must be visible in the transport counters — the same
        // fault plane driving the DES kernel drives the threaded wire.
        let mut cfg = SimConfig::seeded(5);
        cfg.faults = threev_sim::FaultPlane::lossy(400_000, 0);
        let (actors, report) = ThreadedRun::run(
            echo_pair(),
            cfg,
            Duration::from_millis(300),
            Duration::from_millis(100),
        );
        let mut totals = LinkStats::default();
        for t in &report.transport_per_actor {
            totals.add(t);
        }
        assert!(totals.dropped > 0, "loss must register");
        assert!(
            actors[0].received < 500,
            "echoes received={} should be lossy",
            actors[0].received
        );
        // Every missing echo is accounted for as a drop (of the ping or of
        // the echo); nothing vanishes unexplained.
        assert!(
            actors[0].received + totals.dropped >= 500,
            "received={} dropped={}",
            actors[0].received,
            totals.dropped
        );
    }

    #[test]
    fn wall_clock_timers_fire() {
        let (actors, _) = ThreadedRun::run(
            vec![Ticker { ticks: 0 }],
            SimConfig::seeded(2),
            Duration::from_millis(250),
            Duration::ZERO,
        );
        // ~25 ticks expected; accept generous scheduling slop.
        assert!(
            (10..=40).contains(&actors[0].ticks),
            "ticks={}",
            actors[0].ticks
        );
    }
}
