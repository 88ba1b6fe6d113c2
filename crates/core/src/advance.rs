//! The version-advancement coordinator (paper §4.3).
//!
//! Advancement to a new read version runs in four phases, all asynchronous
//! with user transactions:
//!
//! 1. **Switch to a new update version** — broadcast
//!    `start-advancement(vu_old + 1)`, collect acks. After the last ack,
//!    every new root update transaction is guaranteed to carry the new
//!    version.
//! 2. **Updates phase-out** — poll every node's request/completion counters
//!    for `vu_old` until the termination rule (below) fires: version
//!    `vu_old` is then inter-node consistent (Def. 3.2).
//! 3. **Switch to a new read version** — broadcast `vr_old + 1`, collect
//!    acks; new queries now read the freshly consistent version.
//! 4. **Garbage collection** — poll `vr_old`'s counters until the old
//!    queries drain, then tell every node to collect versions `< vr_new`.
//!
//! # Termination detection: the two-round rule
//!
//! The coordinator polls counters *asynchronously* — no locks, no quiescing.
//! Each node replies with an **atomic snapshot** of its local `R`/`C` rows
//! (a node processes one message at a time). A poll round is *balanced*
//! when `R(v)pq == C(v)pq` for every pair in the assembled
//! [`CounterMatrix`]. The coordinator declares termination only after
//! **two consecutive rounds that are balanced and identical**, where round
//! `k+1` starts strictly after every round-`k` reply has arrived.
//!
//! *Why one balanced round is not enough*: snapshots at different nodes are
//! taken at different times. On the pair `(p, q)`, a subtransaction `B`
//! requested after `p`'s snapshot but completed before `q`'s snapshot
//! contributes `C` without `R` and can mask an outstanding subtransaction
//! `S` that contributes `R` without `C` — balanced, yet work is in flight.
//!
//! *Why two identical balanced rounds suffice*: counters are monotone.
//! Suppose some version-`v` subtransaction `S` executes after round 2's
//! snapshots. Walk up `S`'s ancestor chain to the root, which necessarily
//! executed before Phase 1 completed (after a node acks Phase 1 it assigns
//! only newer versions), hence before round 1. Let `A` be the deepest
//! ancestor that executed before its node's round-1 snapshot; `A`'s spawn
//! of the next ancestor `A'` incremented `R[node(A) → node(A')]` *in* round
//! 1, while `A'` — which executes only after its node's round-1 snapshot —
//! has no round-1 `C`. Balance in round 1 then requires a masking
//! subtransaction `B` on the same pair whose request increment happened
//! after `node(A)`'s round-1 snapshot and whose completion preceded
//! `node(A')`'s round-1 snapshot — but that request increment is then
//! visible in round 2 and not in round 1, contradicting *identical*.
//! Because a node's own completion (`C`) increments in the same atomic
//! handler as its children's requests (`R`), the argument needs no
//! cross-node clock. Compensating subtransactions and NC3V completions
//! (deferred to the 2PC decision) follow the same counting discipline, so
//! they are covered by the same argument. The property-based test
//! `tests/advancement_safety.rs` hammers this with random topologies.

use std::collections::{BTreeMap, BTreeSet};

use threev_analysis::VersionTimeline;
use threev_model::{NodeId, VersionNo};
use threev_sim::{Actor, Ctx, SimDuration, SimTime};

use crate::counters::{CounterMatrix, CounterSnapshot};
use crate::msg::Msg;

/// When the coordinator starts advancements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvancementPolicy {
    /// Never advance automatically; only on [`Msg::TriggerAdvancement`].
    Manual,
    /// Advance every `period`, first at `first` (skipped while one is
    /// already running — the paper assumes at most one instance at a time).
    Periodic {
        /// Delay before the first advancement.
        first: SimDuration,
        /// Interval between advancement starts.
        period: SimDuration,
    },
}

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Advancement scheduling policy.
    pub policy: AdvancementPolicy,
    /// Delay between counter poll rounds in phases 2 and 4.
    pub poll_interval: SimDuration,
    /// Retransmit window for control messages. When `Some`, a phase that
    /// has waited this long re-sends its outstanding broadcast — but only
    /// to the nodes that have not yet answered. Every handler on both
    /// sides is idempotent, so retransmits are safe; they are what buys
    /// liveness on a lossy transport. `None` (the default) keeps the
    /// historical fire-and-forget behaviour for fault-free runs.
    pub retransmit: Option<SimDuration>,
    /// **Test-only protocol sabotage**: skip the Phase-2 drain entirely and
    /// publish the new read version as soon as every Phase-1 ack is in —
    /// i.e. revert §4.3's "wait until the old update version is inter-node
    /// consistent". Exists solely so the model checker's acceptance test
    /// can plant a known-unsound build and prove the checker finds and
    /// shrinks a violating schedule. Never set outside tests.
    pub skip_p2_drain: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            policy: AdvancementPolicy::Manual,
            poll_interval: SimDuration::from_millis(2),
            retransmit: None,
            skip_p2_drain: false,
        }
    }
}

/// Timing record of one completed advancement (experiments X2/X8).
#[derive(Clone, Debug)]
pub struct AdvancementRecord {
    /// The update version this advancement opened.
    pub vu_new: VersionNo,
    /// Phase 1 start.
    pub started: SimTime,
    /// All Phase 1 acks received.
    pub p1_done: SimTime,
    /// Update phase-out detected (version consistent).
    pub p2_done: SimTime,
    /// All Phase 3 acks received (new read version live).
    pub p3_done: SimTime,
    /// Old queries drained and GC broadcast.
    pub p4_done: SimTime,
    /// Poll rounds used in phase 2.
    pub p2_rounds: u64,
    /// Poll rounds used in phase 4.
    pub p4_rounds: u64,
}

impl AdvancementRecord {
    /// Total wall time of the advancement.
    pub fn total(&self) -> SimDuration {
        self.p4_done.since(self.started)
    }

    /// Time from start until reads switched (the user-visible part).
    pub fn to_read_switch(&self) -> SimDuration {
        self.p3_done.since(self.started)
    }
}

#[derive(Debug)]
enum Phase {
    Idle,
    /// Acks are sets of responders, not counts: a duplicated ack (lossy
    /// transport, or a retransmitted broadcast re-answered) must not be
    /// double-counted.
    P1 {
        acks: BTreeSet<NodeId>,
    },
    /// Polling `version`; generic over phases 2 and 4. `round` is the
    /// coordinator-global poll sequence number (monotone across phases and
    /// advancements), so a stale or duplicated report can never be
    /// mistaken for a current one; `rounds` counts rounds in this phase
    /// for the timing record.
    Polling {
        version: VersionNo,
        round: u64,
        rounds: u64,
        reports: BTreeMap<NodeId, CounterSnapshot>,
        prev: Option<CounterMatrix>,
        is_phase2: bool,
    },
    P3 {
        acks: BTreeSet<NodeId>,
    },
    /// GC broadcast sent; waiting for every node's ack before going idle.
    P4Gc {
        acks: BTreeSet<NodeId>,
    },
}

/// The advancement coordinator actor.
pub struct Coordinator {
    nodes: Vec<NodeId>,
    cfg: CoordinatorConfig,
    vu: VersionNo,
    vr: VersionNo,
    phase: Phase,
    // current advancement's partial record
    cur: Option<AdvancementRecord>,
    records: Vec<AdvancementRecord>,
    timeline: VersionTimeline,
    pending_trigger: bool,
    /// Global poll sequence number (see [`Phase::Polling`]).
    poll_seq: u64,
    /// Retransmit epoch: bumped on every phase transition. Retransmit
    /// timers carry the epoch they were armed in; a firing whose epoch is
    /// stale is a no-op and does not re-arm, so an idle coordinator
    /// quiesces even with retransmits enabled.
    epoch: u64,
}

const TIMER_POLICY: u64 = 0;
const TIMER_POLL: u64 = 1;
/// Retransmit timer tokens are `TIMER_RETRANSMIT_BASE + epoch`.
const TIMER_RETRANSMIT_BASE: u64 = 1 << 32;

impl Coordinator {
    /// New coordinator over an explicit node set — its partition's nodes,
    /// since the advancement protocol runs per partition and only ever
    /// polls the nodes it governs. Cross-partition activity
    /// still gates advancement, but through the gauge rows in those nodes'
    /// own snapshots — never by talking to another partition.
    pub fn for_nodes(nodes: Vec<NodeId>, cfg: CoordinatorConfig) -> Self {
        Coordinator {
            nodes,
            cfg,
            vu: VersionNo(1),
            vr: VersionNo(0),
            phase: Phase::Idle,
            cur: None,
            records: Vec::new(),
            timeline: VersionTimeline::new(),
            pending_trigger: false,
            poll_seq: 0,
            epoch: 0,
        }
    }

    /// Completed advancement records.
    pub fn records(&self) -> &[AdvancementRecord] {
        &self.records
    }

    /// The version timeline (close/publish instants) for staleness analysis.
    pub fn timeline(&self) -> &VersionTimeline {
        &self.timeline
    }

    /// Remove and return the completed advancement records and the
    /// timeline entries collected so far. A long-running owner with no
    /// use for per-round history (the server engine) drains it after
    /// each round, so coordinator memory stays flat; an advancement in
    /// progress keeps its partial record.
    pub fn take_history(&mut self) -> (Vec<AdvancementRecord>, VersionTimeline) {
        (
            std::mem::take(&mut self.records),
            std::mem::take(&mut self.timeline),
        )
    }

    /// Coordinator's view of the current read version.
    pub fn vr(&self) -> VersionNo {
        self.vr
    }

    /// Coordinator's view of the current update version.
    pub fn vu(&self) -> VersionNo {
        self.vu
    }

    /// Is an advancement currently running?
    pub fn busy(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    fn start_advancement(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.busy() {
            // At most one instance runs at a time (paper §4.3 assumption);
            // remember that another was requested.
            self.pending_trigger = true;
            return;
        }
        let vu_new = self.vu.next();
        ctx.trace(|| format!("advancement to {vu_new} begins (phase 1)"));
        // vu_old stops accumulating *new* transactions now-ish; its close
        // time is the phase-1 start (conservative for staleness).
        self.timeline.record_closed(self.vu, ctx.now());
        self.cur = Some(AdvancementRecord {
            vu_new,
            started: ctx.now(),
            p1_done: ctx.now(),
            p2_done: ctx.now(),
            p3_done: ctx.now(),
            p4_done: ctx.now(),
            p2_rounds: 0,
            p4_rounds: 0,
        });
        self.phase = Phase::P1 {
            acks: BTreeSet::new(),
        };
        self.epoch += 1;
        for n in &self.nodes {
            ctx.send_tagged(*n, Msg::StartAdvancement { vu_new }, "advance");
        }
        self.arm_retransmit(ctx);
    }

    fn begin_polling(&mut self, ctx: &mut Ctx<'_, Msg>, version: VersionNo, is_phase2: bool) {
        self.poll_seq += 1;
        self.phase = Phase::Polling {
            version,
            round: self.poll_seq,
            rounds: 1,
            reports: BTreeMap::new(),
            prev: None,
            is_phase2,
        };
        self.epoch += 1;
        self.send_poll(ctx);
        self.arm_retransmit(ctx);
    }

    fn arm_retransmit(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(rt) = self.cfg.retransmit {
            ctx.schedule(rt, TIMER_RETRANSMIT_BASE + self.epoch);
        }
    }

    /// Re-send the current phase's outstanding control message to every
    /// node that has not answered yet. All handlers are idempotent, so
    /// over-sending is safe; under-sending (losing a broadcast with no
    /// retransmit) is what stalls an advancement forever.
    fn resend_missing(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match &self.phase {
            Phase::Idle => {}
            Phase::P1 { acks } => {
                let vu_new = self.vu.next();
                for n in self.nodes.iter().filter(|n| !acks.contains(n)) {
                    ctx.send_tagged(*n, Msg::StartAdvancement { vu_new }, "advance");
                }
            }
            Phase::Polling {
                version,
                round,
                reports,
                ..
            } => {
                let (version, round) = (*version, *round);
                for n in self.nodes.iter().filter(|n| !reports.contains_key(n)) {
                    ctx.send_tagged(*n, Msg::ReadCounters { round, version }, "advance");
                }
            }
            Phase::P3 { acks } => {
                let vr_new = self.vr.next();
                for n in self.nodes.iter().filter(|n| !acks.contains(n)) {
                    ctx.send_tagged(*n, Msg::AdvanceRead { vr_new }, "advance");
                }
            }
            Phase::P4Gc { acks } => {
                let vr_new = self.vr;
                for n in self.nodes.iter().filter(|n| !acks.contains(n)) {
                    ctx.send_tagged(*n, Msg::Gc { vr_new }, "advance");
                }
            }
        }
    }

    fn send_poll(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Phase::Polling { version, round, .. } = &self.phase else {
            return;
        };
        let (version, round) = (*version, *round);
        for n in &self.nodes {
            ctx.send_tagged(*n, Msg::ReadCounters { round, version }, "advance");
        }
    }

    fn handle_report(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        round: u64,
        version: VersionNo,
        snapshot: CounterSnapshot,
    ) {
        let n_nodes = self.nodes.len();
        let Phase::Polling {
            version: cur_version,
            round: cur_round,
            rounds,
            reports,
            prev,
            is_phase2,
        } = &mut self.phase
        else {
            return;
        };
        if round != *cur_round || version != *cur_version {
            // Stale or duplicated reply from an earlier round or phase.
            // `round` is globally monotone, so this check alone is
            // airtight; the version match is belt-and-braces (and what a
            // reader audits against the paper's per-version counters).
            return;
        }
        // A re-polled node overwrites its earlier snapshot: counters are
        // monotone, so the freshest snapshot is the most conservative.
        reports.insert(from, snapshot);
        if reports.len() < n_nodes {
            return;
        }
        // Full round collected: evaluate the two-round rule.
        let snaps: Vec<(NodeId, CounterSnapshot)> = std::mem::take(reports).into_iter().collect();
        let matrix = CounterMatrix::assemble(&snaps);
        let stable = matrix.balanced() && prev.as_ref() == Some(&matrix);
        let (version, is_phase2, rounds_used) = (*cur_version, *is_phase2, *rounds);
        if stable {
            let rounds = rounds_used;
            ctx.trace(|| {
                format!(
                    "version {version} drained after {rounds} rounds (phase {})",
                    if is_phase2 { 2 } else { 4 }
                )
            });
            if is_phase2 {
                if let Some(c) = &mut self.cur {
                    c.p2_done = ctx.now();
                    c.p2_rounds = rounds;
                }
                self.enter_phase3(ctx);
            } else {
                if let Some(c) = &mut self.cur {
                    c.p4_done = ctx.now();
                    c.p4_rounds = rounds;
                }
                self.begin_gc(ctx);
            }
        } else {
            *prev = Some(matrix);
            self.poll_seq += 1;
            *cur_round = self.poll_seq;
            *rounds += 1;
            let interval = self.cfg.poll_interval;
            ctx.schedule(interval, TIMER_POLL);
        }
    }

    fn enter_phase3(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let vr_new = self.vr.next();
        ctx.trace(|| format!("publishing read version {vr_new} (phase 3)"));
        self.timeline.record_published(vr_new, ctx.now());
        self.phase = Phase::P3 {
            acks: BTreeSet::new(),
        };
        self.epoch += 1;
        for n in &self.nodes {
            ctx.send_tagged(*n, Msg::AdvanceRead { vr_new }, "advance");
        }
        self.arm_retransmit(ctx);
    }

    fn begin_gc(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let vr_new = self.vr.next();
        self.vr = vr_new;
        self.vu = self.vu.next();
        self.phase = Phase::P4Gc {
            acks: BTreeSet::new(),
        };
        self.epoch += 1;
        for n in &self.nodes {
            ctx.send_tagged(*n, Msg::Gc { vr_new }, "advance");
        }
        self.arm_retransmit(ctx);
    }

    fn finish_advancement(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.trace(|| format!("advancement complete: vr={} vu={}", self.vr, self.vu));
        if let Some(rec) = self.cur.take() {
            self.records.push(rec);
        }
        self.phase = Phase::Idle;
        self.epoch += 1; // invalidate any armed retransmit timer
        if self.pending_trigger {
            self.pending_trigger = false;
            self.start_advancement(ctx);
        }
    }
}

impl Actor for Coordinator {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let AdvancementPolicy::Periodic { first, .. } = self.cfg.policy {
            ctx.schedule(first, TIMER_POLICY);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::TriggerAdvancement => self.start_advancement(ctx),
            Msg::AdvanceAck { vu_new } => {
                // The echoed version is the ack's sequence number: a
                // duplicated or stale ack (earlier advancement, or this one
                // after the phase already moved on) fails the match.
                if vu_new != self.vu.next() {
                    return;
                }
                if let Phase::P1 { acks } = &mut self.phase {
                    acks.insert(from);
                    if acks.len() == self.nodes.len() {
                        if let Some(c) = &mut self.cur {
                            c.p1_done = ctx.now();
                        }
                        if self.cfg.skip_p2_drain {
                            // Test-only sabotage (see CoordinatorConfig):
                            // publish the new read version without waiting
                            // for the old update version to drain.
                            if let Some(c) = &mut self.cur {
                                c.p2_done = ctx.now();
                            }
                            self.enter_phase3(ctx);
                        } else {
                            // Phase 2: drain the old update version.
                            let vu_old = self.vu;
                            self.begin_polling(ctx, vu_old, true);
                        }
                    }
                }
            }
            Msg::CountersReport {
                round,
                version,
                snapshot,
            } => self.handle_report(ctx, from, round, version, snapshot),
            Msg::GcAck { vr_new } => {
                if vr_new != self.vr {
                    return; // ack for an older advancement's GC
                }
                if let Phase::P4Gc { acks } = &mut self.phase {
                    acks.insert(from);
                    if acks.len() == self.nodes.len() {
                        self.finish_advancement(ctx);
                    }
                }
            }
            Msg::AdvanceReadAck { vr_new } => {
                if vr_new != self.vr.next() {
                    return;
                }
                if let Phase::P3 { acks } = &mut self.phase {
                    acks.insert(from);
                    if acks.len() == self.nodes.len() {
                        if let Some(c) = &mut self.cur {
                            c.p3_done = ctx.now();
                        }
                        // Phase 4: drain the old read version's queries.
                        let vr_old = self.vr;
                        self.begin_polling(ctx, vr_old, false);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match token {
            TIMER_POLICY => {
                self.start_advancement(ctx);
                if let AdvancementPolicy::Periodic { period, .. } = self.cfg.policy {
                    ctx.schedule(period, TIMER_POLICY);
                }
            }
            TIMER_POLL => self.send_poll(ctx),
            // Only the retransmit timer from the *current* epoch may act;
            // stale ones fall through to the no-op arm and do not re-arm,
            // so the coordinator still quiesces.
            t if t >= TIMER_RETRANSMIT_BASE
                && t - TIMER_RETRANSMIT_BASE == self.epoch
                && !matches!(self.phase, Phase::Idle) =>
            {
                self.resend_missing(ctx);
                self.arm_retransmit(ctx);
            }
            _ => {}
        }
    }
}
