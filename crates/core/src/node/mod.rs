//! The per-node 3V engine.
//!
//! Implements, for one database node:
//!
//! * §4.1 — execution of well-behaved update subtransactions: version
//!   assignment at the root, version inference from arriving descendants,
//!   copy-on-update, the update-all-≥`V(T)` rule, request/completion counter
//!   maintenance;
//! * §4.2 — read-only queries (no locks, never delayed, never aborted);
//! * §4.3 — the node side of version advancement: update/read version
//!   switches, atomic counter snapshots, garbage collection;
//! * §3.2 — compensation: tree-structured compensating subtransactions with
//!   per-node deduplication and tombstones for the "compensate before the
//!   original arrives" race;
//! * §5 — NC3V: the `vu == vr + 1` gate for non-commuting roots, exclusive
//!   locks with wait-die, the stale-version abort rule, and two-phase
//!   commit with completion counters incremented atomically with the
//!   decision.
//!
//! The engine is a sans-io state machine: all effects flow through the
//! [`Ctx`] handle, so the same code runs under the discrete-event simulator
//! and the real-thread runtime.
//!
//! This module is the thin shell: configuration, statistics, the engine
//! state, and the [`Actor`] dispatch. The protocol logic lives in the
//! submodules — [`exec`](self) (subtransaction execution, locking,
//! completion tracking, NC3V), `version_state` (version switches and
//! counter snapshots), and `gc` (compensation, tombstones, garbage
//! collection).
//!
//! **Local concurrency control.** The paper assumes a local scheme that
//! serializes subtransactions on each node. Here a node processes one
//! message at a time — whether delivered singly or as a batch — so
//! subtransaction *steps* are trivially atomic; the lock table (active only
//! when non-commuting transactions are admitted) adds two-phase locking
//! across messages, exactly as §5 prescribes.

mod exec;
mod gc;
pub mod profile;
mod version_state;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use threev_durability::{
    Durability, DurabilityStats, FileBackend, MemBackend as MemLogBackend, Snapshot, WalOp,
};
use threev_model::{
    Key, NodeId, PartitionId, Schema, SubtxnId, SubtxnPlan, Topology, TxnId, TxnKind, UpdateOp,
    VersionNo,
};
use threev_sim::{Actor, Ctx, SimDuration};
use threev_storage::{AnyBackend, LockMode, LockTable, Store, StoreStats, UndoLog};
// Re-exported so downstream crates (shard, runtime, binaries) can select a
// backend without depending on threev-storage directly.
pub use threev_storage::BackendConfig;

use crate::counters::CounterTable;
use crate::msg::Msg;
use profile::ProfState;
pub use profile::{ClockFn, ProfileMode, Stage, StageBreakdown, N_STAGES, STAGES};

/// How (and whether) a node persists its protocol state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No WAL, no checkpoints. A crashed node cannot recover its state —
    /// crash injection treats it as a silent outage. This is the default
    /// and leaves the execution path byte-identical to the pre-durability
    /// engine.
    #[default]
    None,
    /// WAL and checkpoints in memory. The log survives a *simulated* crash
    /// (the [`Durability`] handle outlives the volatile state) but not the
    /// process — the deterministic-simulation mode.
    Memory {
        /// Checkpoint after this many log records (0 = never).
        checkpoint_every: usize,
    },
    /// WAL and checkpoints on disk under `dir/node-<id>/` — the real-thread
    /// runtime mode. Survives process restarts.
    File {
        /// Base directory; each node appends its own `node-<id>` subdir.
        dir: PathBuf,
        /// Checkpoint after this many log records (0 = never).
        checkpoint_every: usize,
    },
}

/// Per-node protocol configuration (shared by all nodes of a cluster).
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Enable the NC3V lock table. When `false` (pure 3V), well-behaved
    /// transactions take no locks at all.
    pub locks_enabled: bool,
    /// Backoff before retrying a commuting subtransaction that lost a
    /// wait-die race (only possible when `locks_enabled`).
    pub retry_backoff: SimDuration,
    /// How many times a non-commuting transaction is retried after a global
    /// abort before the failure is reported to the client.
    pub nc_max_retries: u32,
    /// Write-ahead logging and checkpointing policy.
    pub durability: DurabilityMode,
    /// Where the version chains live: in-memory (default, bit-identical to
    /// the pre-trait store) or the on-disk paged engine with incremental
    /// checkpoints. Each node opens `store-node-<id>` under the configured
    /// directory.
    pub backend: BackendConfig,
    /// Cluster partition layout. The default [`Topology::single`] maps
    /// every id to one partition (a standalone node); the cluster builder
    /// sets the real layout so nodes can recognise foreign senders, re-root
    /// their subtransactions, and keep gauge-keyed counter rows per peer
    /// partition.
    pub topology: Topology,
    /// Hot-path stage profiling (see [`profile`]). Off by default and
    /// observationally free when on.
    pub profile: ProfileMode,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            locks_enabled: false,
            retry_backoff: SimDuration::from_micros(500),
            nc_max_retries: 20,
            durability: DurabilityMode::None,
            backend: BackendConfig::Mem,
            topology: Topology::single(),
            profile: ProfileMode::Off,
        }
    }
}

/// Observable per-node protocol statistics.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Subtransactions executed (including compensating ones).
    pub subtxns_executed: u64,
    /// Root subtransactions that arrived here.
    pub roots: u64,
    /// Compensating subtransactions applied.
    pub compensations_applied: u64,
    /// Tombstones created (compensation overtook the original).
    pub tombstones: u64,
    /// Subtransactions skipped because of a tombstone.
    pub skipped_tombstoned: u64,
    /// Commuting subtransactions retried after a wait-die loss.
    pub commuting_retries: u64,
    /// Subtransactions parked waiting for a lock.
    pub parked: u64,
    /// NC transactions locally doomed by the §5 stale-version abort rule.
    pub nc_stale_aborts: u64,
    /// NC participants that voted yes and committed.
    pub nc_commits: u64,
    /// NC participants rolled back by a global abort.
    pub nc_rollbacks: u64,
    /// NC roots that exhausted their retries.
    pub nc_gave_up: u64,
    /// NC roots that waited at the `vu == vr + 1` gate.
    pub nc_gated: u64,
    /// Batched deliveries received through [`Actor::on_batch`].
    pub batches: u64,
    /// Messages that arrived inside a batch. `batched_msgs / batches` is
    /// the mean batch size this node saw.
    pub batched_msgs: u64,
    /// Subtransactions rejected before execution because a step failed
    /// validation (unknown key, no visible base version, type-mismatched
    /// op). A malformed message terminates its subtree cleanly instead of
    /// panicking the node.
    pub malformed_rejected: u64,
    /// Post-validation internal inconsistencies survived by degrading
    /// (e.g. a store operation failing after its pre-pass succeeded).
    /// Non-zero values indicate an engine defect; tests assert zero.
    pub invariant_breaches: u64,
    /// WAL records written (durability enabled only).
    pub wal_records: u64,
    /// Checkpoints taken (durability enabled only).
    pub checkpoints: u64,
    /// Bytes written to stable storage by checkpoints: the encoded
    /// snapshot, plus (paged backend) the dirty pages and meta the
    /// incremental flush wrote. The storage-bench mem-vs-paged comparison
    /// reads this.
    pub checkpoint_bytes: u64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_replayed: u64,
}

/// A unit of runnable work: one subtransaction with its full context.
#[derive(Clone, Debug)]
struct Job {
    txn: TxnId,
    kind: TxnKind,
    version: VersionNo,
    plan: SubtxnPlan,
    /// `(parent node, parent subtransaction)`; `None` for roots.
    parent: Option<(NodeId, SubtxnId)>,
    client: NodeId,
    fail_node: Option<NodeId>,
    /// Node credited in the completion counter (`source(T)` of §4.1).
    source: NodeId,
}

/// Completion-notice bookkeeping for one subtransaction executed here.
#[derive(Debug)]
struct SubTracker {
    txn: TxnId,
    kind: TxnKind,
    version: VersionNo,
    parent: Option<(NodeId, SubtxnId)>,
    client: NodeId,
    pending_children: u32,
    participants: BTreeSet<NodeId>,
    clean: bool,
}

/// What this transaction did on this node — enough to compensate it.
#[derive(Debug, Default)]
struct Footprint {
    version: VersionNo,
    neighbors: BTreeSet<NodeId>,
    inverse_steps: Vec<(Key, UpdateOp)>,
    compensated: bool,
    is_root: bool,
    client: Option<NodeId>,
}

/// Participant-side state of one NC transaction.
#[derive(Debug, Default)]
struct NcLocal {
    undo: UndoLog,
    /// `(version, source)` completion-counter increments owed at decision.
    pending_completions: Vec<(VersionNo, NodeId)>,
    doomed: bool,
    decided: bool,
}

/// Root-side 2PC state of one NC transaction.
#[derive(Debug)]
struct NcCoord {
    participants: BTreeSet<NodeId>,
    votes: BTreeMap<NodeId, bool>,
    version: VersionNo,
}

/// Root-side retry context for NC transactions.
#[derive(Debug)]
struct NcRootCtx {
    plan: SubtxnPlan,
    client: NodeId,
    fail_node: Option<NodeId>,
    retries_left: u32,
}

/// A subtransaction waiting for a lock.
#[derive(Debug)]
struct Parked {
    keys: Vec<(Key, LockMode)>,
    next: usize,
    job: Job,
}

enum TimerAction {
    RetryJob(Box<Job>),
    RetryNcRoot(TxnId),
}

/// A cheap read-only snapshot of one node's protocol state, taken by the
/// model checker (`threev-check`) after every executed event and fed to
/// its invariant oracle. Everything here is a value copy — building a view
/// never perturbs the engine, so checking is schedule-transparent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantView {
    /// The node observed.
    pub node: NodeId,
    /// Current update version `vu`.
    pub vu: VersionNo,
    /// Current read version `vr`.
    pub vr: VersionNo,
    /// Live version-chain length per stored key (P1: never more than 3).
    pub chain_lengths: Vec<(Key, usize)>,
    /// Counter rows per version: `(v, R(v)·q rows, C(v)o· rows)` — the
    /// same export shape as a durability checkpoint, so the oracle can
    /// assemble the global pairwise matrix with [`crate::CounterMatrix`].
    #[allow(clippy::type_complexity)]
    pub counters: Vec<(VersionNo, Vec<(NodeId, u64)>, Vec<(NodeId, u64)>)>,
    /// Exclusive locks currently held: `(key, transaction)`.
    pub exclusive_held: Vec<(Key, threev_model::TxnId)>,
    /// Total queued lock waiters across all keys.
    pub lock_waiters: usize,
    /// [`ThreeVNode::is_quiescent`] at snapshot time.
    pub quiescent: bool,
    /// Is the node down (crashed, recovery not yet run)? A down node's
    /// volatile state is the post-crash wipe, not a protocol state —
    /// checkers must not hold per-node invariants against it, and its
    /// counter tables are absent until recovery replays them.
    pub down: bool,
}

/// The 3V engine for one node.
pub struct ThreeVNode {
    me: NodeId,
    cfg: NodeConfig,
    /// Crashed and not yet recovered (between `on_crash` and `on_restart`).
    down: bool,
    vu: VersionNo,
    vr: VersionNo,
    store: Store<AnyBackend>,
    counters: CounterTable,
    locks: LockTable,
    spawn_seq: u64,
    trackers: BTreeMap<SubtxnId, SubTracker>,
    footprints: BTreeMap<TxnId, Footprint>,
    tombstones: BTreeSet<TxnId>,
    nc_local: BTreeMap<TxnId, NcLocal>,
    nc_coord: BTreeMap<TxnId, NcCoord>,
    nc_root_ctx: BTreeMap<TxnId, NcRootCtx>,
    nc_waiting: Vec<Job>,
    parked: BTreeMap<TxnId, Parked>,
    /// Gauge pins held for unresolved cross-partition transactions: each
    /// entry is an un-matched `R(version, gauge(peer))` increment made when
    /// this node shipped a commuting child to `peer` or re-rooted one
    /// arriving from `peer`. Released (matching `C` increments) when the
    /// transaction resolves — [`Msg::XpResolve`] on clean commit, or the
    /// compensation flood / a local tombstone / a local abort otherwise.
    /// While any pin is live its version cannot drain, so footprints
    /// everywhere in this partition stay compensatable.
    xp_pins: BTreeMap<TxnId, Vec<(VersionNo, PartitionId)>>,
    timers: BTreeMap<u64, TimerAction>,
    next_timer: u64,
    stats: NodeStats,
    /// WAL + checkpoint handle. Survives a crash (it models the disk);
    /// everything else in the struct is volatile.
    dur: Option<Durability>,
    /// Stage profiling state (`None` unless `cfg.profile` is `On`).
    /// Write-only from the engine's perspective: nothing in the protocol
    /// ever reads it, so profiling cannot perturb behaviour.
    prof: Option<Box<ProfState>>,
}

impl ThreeVNode {
    /// Build the node: store initialised from the schema, `vr = 0`,
    /// `vu = 1` (paper §4 initial conditions). With durability enabled an
    /// initial checkpoint is taken immediately, so recovery always has a
    /// base snapshot to start from.
    pub fn new(schema: &Schema, me: NodeId, cfg: NodeConfig) -> Self {
        let dur = match &cfg.durability {
            DurabilityMode::None => None,
            DurabilityMode::Memory { checkpoint_every } => Some(Durability::new(
                Box::new(MemLogBackend::new()),
                *checkpoint_every,
            )),
            DurabilityMode::File {
                dir,
                checkpoint_every,
            } => {
                let node_dir = dir.join(format!("node-{}", me.0));
                // lint-allow(panic-hygiene): construction-time config error
                // (unopenable WAL directory), not a protocol message; the
                // process has no node to degrade to yet.
                let backend = FileBackend::open(&node_dir).unwrap_or_else(|e| {
                    panic!("{}: cannot open WAL dir {}: {e}", me, node_dir.display())
                });
                Some(Durability::new(Box::new(backend), *checkpoint_every))
            }
        };
        // lint-allow(panic-hygiene): construction-time config error
        // (unopenable page-store directory), same fail-stop rationale as
        // the WAL directory above.
        let backend = cfg
            .backend
            .open(me)
            .unwrap_or_else(|e| panic!("{me}: cannot open storage backend {:?}: {e}", cfg.backend));
        let store = Store::from_schema_on(backend, schema, me);
        let prof = match cfg.profile {
            ProfileMode::Off => None,
            ProfileMode::On(clock) => Some(Box::new(ProfState::new(clock))),
        };
        let mut node = ThreeVNode {
            me,
            cfg,
            down: false,
            vu: VersionNo(1),
            vr: VersionNo(0),
            store,
            counters: CounterTable::new(),
            locks: LockTable::new(),
            spawn_seq: 0,
            trackers: BTreeMap::new(),
            footprints: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            nc_local: BTreeMap::new(),
            nc_coord: BTreeMap::new(),
            nc_root_ctx: BTreeMap::new(),
            nc_waiting: Vec::new(),
            parked: BTreeMap::new(),
            xp_pins: BTreeMap::new(),
            timers: BTreeMap::new(),
            next_timer: 0,
            stats: NodeStats::default(),
            dur,
            prof,
        };
        // A file backend may already hold a previous incarnation's state
        // (process restart): recover it rather than overwrite it.
        if node.dur.as_ref().is_some_and(|d| d.has_snapshot()) {
            node.recover_install();
        } else if node.dur.is_some() {
            node.checkpoint_now();
        }
        node
    }

    /// Current update version `vu`.
    pub fn vu(&self) -> VersionNo {
        self.vu
    }

    /// Current read version `vr`.
    pub fn vr(&self) -> VersionNo {
        self.vr
    }

    /// The node's store.
    pub fn store(&self) -> &Store<AnyBackend> {
        &self.store
    }

    /// Storage statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats().clone()
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Counter table (read access for tests and the Table 1 replay).
    pub fn counters(&self) -> &CounterTable {
        &self.counters
    }

    /// Lock table (read access for invariant checks).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Accumulated hot-path stage breakdown, if profiling is on.
    pub fn stage_breakdown(&self) -> Option<&StageBreakdown> {
        self.prof.as_deref().map(|p| &p.breakdown)
    }

    /// Start a profiled span: reads the injected clock iff profiling is
    /// on. Pair with [`ThreeVNode::prof_end`].
    #[inline]
    pub(super) fn prof_start(&self) -> Option<u64> {
        self.prof.as_deref().map(|p| (p.clock)())
    }

    /// Close a profiled span opened by [`ThreeVNode::prof_start`],
    /// attributing the elapsed clock units to `stage`.
    #[inline]
    pub(super) fn prof_end(&mut self, stage: Stage, t0: Option<u64>) {
        if let (Some(t0), Some(p)) = (t0, self.prof.as_deref_mut()) {
            let now = (p.clock)();
            p.breakdown.ns[stage as usize] += now.saturating_sub(t0);
            p.breakdown.calls[stage as usize] += 1;
        }
    }

    /// Durability-layer statistics, if durability is enabled.
    pub fn durability_stats(&self) -> Option<&DurabilityStats> {
        self.dur.as_ref().map(|d| d.stats())
    }

    /// Snapshot this node's state for invariant checking (see
    /// [`InvariantView`]). Read-only and allocation-cheap at model-checking
    /// scales; called by `threev-check` after every executed event.
    pub fn invariant_view(&self) -> InvariantView {
        let chain_lengths: Vec<(Key, usize)> = self
            .store
            .iter_versions()
            .map(|(k, chain)| (k, chain.count()))
            .collect();
        let mut exclusive_held = Vec::new();
        let mut lock_waiters = 0usize;
        for (key, holders, waiters) in self.locks.export_parts() {
            lock_waiters += waiters.len();
            for (txn, mode, _count) in holders {
                if mode == LockMode::Exclusive {
                    exclusive_held.push((key, txn));
                }
            }
        }
        InvariantView {
            node: self.me,
            vu: self.vu,
            vr: self.vr,
            chain_lengths,
            counters: self.counters.to_parts(),
            exclusive_held,
            lock_waiters,
            quiescent: self.is_quiescent(),
            down: self.down,
        }
    }

    /// Is the node quiescent (no trackers, parked work, NC state, or
    /// unresolved cross-partition pins)?
    pub fn is_quiescent(&self) -> bool {
        self.trackers.is_empty()
            && self.parked.is_empty()
            && self.nc_local.is_empty()
            && self.nc_coord.is_empty()
            && self.nc_waiting.is_empty()
            && self.xp_pins.is_empty()
            && self.locks.is_idle()
    }

    /// Gauge pins currently held for unresolved cross-partition
    /// transactions (observability/tests).
    pub fn xp_pins_held(&self) -> usize {
        self.xp_pins.values().map(Vec::len).sum()
    }

    // --------------------------------------------------------- durability

    /// Append one record to the WAL (no-op without durability). Mutation
    /// sites call this *before* applying the change, so the log is always
    /// at least as new as the volatile state (write-ahead rule).
    #[inline]
    pub(super) fn wal(&mut self, op: WalOp) {
        if self.dur.is_some() {
            let t0 = self.prof_start();
            if let Some(d) = self.dur.as_mut() {
                d.log(op);
                self.stats.wal_records += 1;
            }
            self.prof_end(Stage::Wal, t0);
        }
    }

    /// Is WAL logging active? Lets callers skip building expensive records
    /// (e.g. cloning restore values) when durability is off.
    #[inline]
    pub(super) fn wal_enabled(&self) -> bool {
        self.dur.is_some()
    }

    /// Serialize the durable protocol state: the version chains, the lock
    /// table, the counter tables, and `(vr, vu)`. Volatile bookkeeping
    /// (trackers, footprints, tombstones, NC contexts, parked work) is
    /// deliberately excluded — see DESIGN.md "Durability & recovery".
    fn snapshot_now(&self) -> Snapshot {
        // Lock waiters are volatile: the parked jobs that would consume
        // their grants die with the crash, and a restored waiter would
        // also double-promote against the WAL's promotion records. Only
        // holders are durable.
        let mut locks = self.locks.export_parts();
        for row in &mut locks {
            row.2.clear();
        }
        // Paged backends persist the chains natively; the snapshot only
        // carries control state and a flag telling recovery to look at the
        // page files instead of an embedded store image.
        let external = self.store.persists_chains();
        Snapshot {
            node: self.me,
            lsn: 0, // stamped by Durability::checkpoint
            vu: self.vu,
            vr: self.vr,
            external_store: external,
            store: if external {
                Vec::new()
            } else {
                self.store.export_parts()
            },
            counters: self.counters.to_parts(),
            locks,
        }
    }

    /// Take a checkpoint unconditionally (durability enabled only). With a
    /// paged backend this is *incremental*: only dirty records are flushed
    /// to the page files, and the snapshot itself shrinks to control state.
    fn checkpoint_now(&mut self) {
        let snap = self.snapshot_now();
        let Some(d) = self.dur.as_mut() else {
            return;
        };
        let mut bytes = 0u64;
        if self.store.persists_chains() {
            // Flush dirty chains at the WAL's current LSN *before*
            // publishing the snapshot: recovery replays store ops strictly
            // above the page files' durable LSN, so the files must never
            // claim an LSN newer than what they contain. Page-file I/O
            // failure here is fail-stop inside the backend (see DESIGN.md
            // "Storage backends").
            bytes += self.store.flush_dirty(d.lsn());
        }
        bytes += d.checkpoint(snap) as u64;
        d.sync();
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += bytes;
    }

    /// Checkpoint if the log has grown past the configured interval.
    /// Called after every delivery, so the log length seen by a crash is
    /// bounded by `checkpoint_every` plus one delivery's worth of records.
    fn maybe_checkpoint(&mut self) {
        if self.dur.as_ref().is_some_and(|d| d.should_checkpoint()) {
            self.checkpoint_now();
        }
    }

    /// Drop all volatile state, as a crash would. The [`Durability`]
    /// handle survives — it models the disk. Without durability this is a
    /// no-op: losing the store with no way back would turn a transient
    /// outage into data loss, so crash injection on a durability-less node
    /// silences it (the transport already drops its traffic) but leaves
    /// its memory intact.
    pub fn crash_volatile(&mut self) {
        if self.dur.is_none() {
            return;
        }
        // lint-allow(wal-hook-coverage): this *is* the crash — it models
        // losing the volatile state the WAL protects, so logging it would
        // be circular. The placeholder is an empty mem store even under a
        // paged config: the page files survive on disk and recovery
        // reopens them.
        self.store = Store::empty(self.me).into_any();
        self.counters = CounterTable::new();
        self.locks = LockTable::new();
        self.vu = VersionNo(1);
        self.vr = VersionNo(0);
        self.trackers.clear();
        self.footprints.clear();
        self.tombstones.clear();
        self.nc_local.clear();
        self.nc_coord.clear();
        self.nc_root_ctx.clear();
        self.nc_waiting.clear();
        self.parked.clear();
        // Pins are volatile: their txn→(version, peer) mapping is not in
        // the WAL, so a recovered node cannot re-associate a resolve or
        // compensate with the gauge rows it replayed. Sharded runs
        // therefore do not support crash injection yet (see DESIGN.md).
        self.xp_pins.clear();
        self.timers.clear();
        // `spawn_seq` survives as an epoch stand-in: reusing SubtxnIds
        // could credit a stale in-flight completion notice to a new
        // subtransaction.
    }

    /// Rebuild state from the last checkpoint plus the WAL tail. Returns
    /// `false` when durability is off or no snapshot exists. The recovered
    /// node may lag the cluster on `(vr, vu)`; the §2.3/§4.1 skew rules
    /// (version inference from arriving subtransactions, coordinator
    /// retransmits) catch it up without a dedicated protocol.
    pub fn recover_install(&mut self) -> bool {
        if matches!(self.cfg.backend, BackendConfig::Paged { .. }) {
            return self.recover_install_paged();
        }
        let Some(d) = self.dur.as_mut() else {
            return false;
        };
        let Some(state) = d.recover() else {
            return false;
        };
        // lint-allow(wal-hook-coverage): recovery installs state *read
        // from* the checkpoint+WAL; re-logging the install would duplicate
        // every record on the next recovery (replay is LSN-idempotent but
        // the log would grow unboundedly).
        self.store = state.store.into_any();
        self.locks = state.locks;
        self.counters = CounterTable::from_parts(state.counters);
        self.vu = state.vu;
        self.vr = state.vr;
        self.stats.recoveries += 1;
        self.stats.wal_replayed += state.replayed;
        true
    }

    /// Paged-backend recovery: the chains are recovered by *reopening the
    /// page files*, not from the snapshot (which carried `external_store`
    /// and an empty image). The WAL tail replays store-directed records
    /// above the page files' durable LSN and control records above the
    /// snapshot's LSN — two independent guards, because flush and
    /// checkpoint-install are separate atomic steps.
    fn recover_install_paged(&mut self) -> bool {
        if !self.store.persists_chains() {
            // The crash dropped the volatile handle to an empty mem
            // placeholder; the chains survive in the page files.
            // lint-allow(panic-hygiene): unopenable/corrupt page files at
            // recovery are fail-stop by design — same rationale as
            // construction.
            let backend = self
                .cfg
                .backend
                .open(self.me)
                .unwrap_or_else(|e| panic!("{}: cannot reopen storage backend: {e}", self.me));
            // lint-allow(wal-hook-coverage): recovery installs state read
            // back from disk; logging the install would duplicate records.
            self.store = Store::on_backend(backend, self.me);
        }
        let store_lsn = self.store.durable_lsn().unwrap_or(0);
        let Some(d) = self.dur.as_mut() else {
            return false;
        };
        let Some(state) = d.recover_paged(&mut self.store, store_lsn) else {
            return false;
        };
        // Control state always recovers from checkpoint + log regardless
        // of backend; only the chains live in the page files.
        // lint-allow(wal-hook-coverage): recovery install, as above.
        self.locks = state.locks;
        self.counters = CounterTable::from_parts(state.counters);
        self.vu = state.vu;
        self.vr = state.vr;
        self.stats.recoveries += 1;
        self.stats.wal_replayed += state.replayed;
        true
    }

    // ------------------------------------------------------------ helpers

    fn schedule(&mut self, ctx: &mut Ctx<'_, Msg>, delay: SimDuration, action: TimerAction) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, action);
        ctx.schedule(delay, token);
    }

    fn new_sub_id(&mut self) -> SubtxnId {
        let id = SubtxnId::new(self.me, self.spawn_seq);
        self.spawn_seq += 1;
        id
    }

    /// Route one protocol message to its handler. The profiled
    /// [`Stage::Dispatch`] span is the whole-message envelope; the
    /// validate/lock/store/counter/WAL stages nest inside it.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let t0 = self.prof_start();
        self.dispatch_inner(ctx, from, msg);
        self.prof_end(Stage::Dispatch, t0);
    }

    fn dispatch_inner(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Submit {
                txn,
                kind,
                plan,
                client,
                fail_node,
            } => self.handle_submit(ctx, txn, kind, plan, client, fail_node),
            Msg::Subtxn {
                txn,
                kind,
                version,
                plan,
                parent_sub,
                client,
                fail_node,
            } => self.handle_subtxn(
                ctx, from, txn, kind, version, plan, parent_sub, client, fail_node,
            ),
            Msg::SubtreeDone {
                txn,
                parent_sub,
                participants,
                clean,
            } => self.handle_subtree_done(ctx, from, txn, parent_sub, participants, clean),
            Msg::Compensate { txn, version } => self.handle_compensate(ctx, from, txn, version),
            Msg::XpResolve { txn } => self.handle_xp_resolve(ctx, txn),
            Msg::StartAdvancement { vu_new } => self.handle_start_advancement(ctx, from, vu_new),
            Msg::AdvanceRead { vr_new } => self.handle_advance_read(ctx, from, vr_new),
            Msg::ReadCounters { round, version } => {
                self.handle_read_counters(ctx, from, round, version)
            }
            Msg::Gc { vr_new } => self.handle_gc(ctx, from, vr_new),
            Msg::NcPrepare { txn } => self.handle_nc_prepare(ctx, from, txn),
            Msg::NcVote { txn, node, yes } => self.handle_nc_vote(ctx, txn, node, yes),
            Msg::NcDecision { txn, commit } => self.handle_nc_decision(ctx, txn, commit),
            Msg::ReleaseLocks { txn } => self.handle_release_locks(ctx, txn),
            // Client- and coordinator-bound traffic that strays here (e.g.
            // in single-actor tests) is ignored.
            Msg::TxnDone { .. }
            | Msg::ReadResults { .. }
            | Msg::AdvanceAck { .. }
            | Msg::AdvanceReadAck { .. }
            | Msg::CountersReport { .. }
            | Msg::GcAck { .. }
            | Msg::TriggerAdvancement => {}
        }
    }
}

impl Actor for ThreeVNode {
    type Msg = Msg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        self.dispatch(ctx, from, msg);
        self.maybe_checkpoint();
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, batch: &mut Vec<(NodeId, Msg)>) {
        // Strictly in-order: batching only amortises the per-delivery
        // dispatch, it must be observationally identical to one
        // `on_message` per element (the batch-equivalence proptest pins
        // this down).
        self.stats.batches += 1;
        self.stats.batched_msgs += batch.len() as u64;
        for (from, msg) in batch.drain(..) {
            self.dispatch(ctx, from, msg);
        }
        self.maybe_checkpoint();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match self.timers.remove(&token) {
            Some(TimerAction::RetryJob(job)) => self.run_job(ctx, *job),
            Some(TimerAction::RetryNcRoot(txn)) => self.submit_nc_root(ctx, txn),
            None => {}
        }
        self.maybe_checkpoint();
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.trace(|| "crashes (volatile state lost)".to_string());
        self.down = true;
        self.crash_volatile();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.down = false;
        if self.recover_install() {
            ctx.trace(|| {
                format!(
                    "restarts; recovered to vu={} vr={} from checkpoint+log",
                    self.vu, self.vr
                )
            });
        }
    }
}
