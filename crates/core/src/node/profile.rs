//! Per-stage cost profiling for the node engine's hot path.
//!
//! The engine's per-message work decomposes into five stages — plan
//! **validation**, **lock** acquisition, **store** reads/updates,
//! **counter** maintenance, and the **WAL** hook — plus the residual
//! **dispatch** bucket (everything else: routing, tracker bookkeeping,
//! message construction). `BENCH_hotpath.json` reports where the cycles go
//! so optimisation effort lands on the stage that actually caps
//! throughput.
//!
//! Design constraints, in order:
//!
//! 1. **Observationally free.** Profiling must never change protocol
//!    behaviour. The hooks only *read* a clock and *add* to counters that
//!    nothing in the engine ever consults; the `profiler_is_free` guard in
//!    `tests/batch_equivalence.rs` asserts fingerprint-identical runs
//!    with profiling on and off.
//! 2. **No-op when disabled.** `ProfileMode::Off` (the default) keeps the
//!    node's profile state `None`; every hook is an `Option` check that
//!    branch-predicts away.
//! 3. **Deterministic core.** The engine crate never touches a wall
//!    clock — the *harness* injects one as a plain `fn() -> u64`
//!    ([`ClockFn`]). The DES and model checker stay clock-free; tests
//!    inject a counting fake; `threev-bench` injects a monotonic
//!    nanosecond clock.

/// A monotonic time source supplied by the harness: returns nanoseconds
/// (or any monotone unit — the breakdown only ever reports sums and
/// shares). A plain `fn` pointer so [`super::NodeConfig`] stays `Clone`
/// and the engine cannot capture ambient nondeterminism.
pub type ClockFn = fn() -> u64;

/// Whether (and with which clock) a node profiles its hot-path stages.
#[derive(Clone, Copy, Debug, Default)]
pub enum ProfileMode {
    /// No profiling: zero state, hooks compile to a `None` check.
    #[default]
    Off,
    /// Profile every stage using the supplied monotonic clock.
    On(ClockFn),
}

/// The instrumented stages of one message's execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Pre-execution plan validation (`check_read`/`check_update` pre-pass).
    Validate = 0,
    /// NC3V lock acquisition, including wait-die decisions.
    Lock = 1,
    /// Store reads and updates (version-chain work).
    Store = 2,
    /// R/C counter maintenance.
    Counter = 3,
    /// WAL append hook (0 when durability is off).
    Wal = 4,
    /// Whole-message dispatch; stages above are nested inside it, the
    /// remainder is routing/bookkeeping overhead.
    Dispatch = 5,
}

/// Number of [`Stage`]s (array sizing).
pub const N_STAGES: usize = 6;

/// All stages, in report order.
pub const STAGES: [Stage; N_STAGES] = [
    Stage::Validate,
    Stage::Lock,
    Stage::Store,
    Stage::Counter,
    Stage::Wal,
    Stage::Dispatch,
];

impl Stage {
    /// Stable snake_case name used in `BENCH_hotpath.json`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Validate => "validate",
            Stage::Lock => "lock",
            Stage::Store => "store",
            Stage::Counter => "counter",
            Stage::Wal => "wal",
            Stage::Dispatch => "dispatch",
        }
    }
}

/// Accumulated per-stage cost for one node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Total clock units spent in each stage (indexed by `Stage as usize`).
    pub ns: [u64; N_STAGES],
    /// Times each stage was entered.
    pub calls: [u64; N_STAGES],
}

impl StageBreakdown {
    /// Merge another breakdown into this one (cluster-level aggregation).
    pub fn merge(&mut self, other: &StageBreakdown) {
        for i in 0..N_STAGES {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Total clock units attributed to [`Stage::Dispatch`] (the envelope).
    pub fn total_ns(&self) -> u64 {
        self.ns[Stage::Dispatch as usize]
    }

    /// Clock units not attributed to any nested stage: dispatch envelope
    /// minus the five instrumented stages (saturating — a clock that
    /// jumps can make nested sums exceed the envelope).
    pub fn other_ns(&self) -> u64 {
        let nested: u64 = STAGES[..N_STAGES - 1]
            .iter()
            .map(|&s| self.ns[s as usize])
            .sum();
        self.total_ns().saturating_sub(nested)
    }
}

/// Live profiling state held by a node when `ProfileMode::On`.
#[derive(Clone, Debug)]
pub(super) struct ProfState {
    pub(super) clock: ClockFn,
    pub(super) breakdown: StageBreakdown,
}

impl ProfState {
    pub(super) fn new(clock: ClockFn) -> Self {
        ProfState {
            clock,
            breakdown: StageBreakdown::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_clock() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static T: AtomicU64 = AtomicU64::new(0);
        T.fetch_add(3, Ordering::Relaxed)
    }

    #[test]
    fn breakdown_merges_and_attributes_other() {
        let mut a = StageBreakdown::default();
        a.ns[Stage::Validate as usize] = 10;
        a.ns[Stage::Store as usize] = 20;
        a.ns[Stage::Dispatch as usize] = 50;
        a.calls[Stage::Dispatch as usize] = 2;
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.total_ns(), 100);
        assert_eq!(b.other_ns(), 100 - 20 - 40);
        assert_eq!(b.calls[Stage::Dispatch as usize], 4);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["validate", "lock", "store", "counter", "wal", "dispatch"]
        );
    }

    #[test]
    fn prof_state_ticks_injected_clock() {
        let p = ProfState::new(fake_clock);
        let t0 = (p.clock)();
        let t1 = (p.clock)();
        assert!(t1 > t0, "injected clock is monotone");
    }
}
