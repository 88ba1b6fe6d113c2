//! Subtransaction execution: §4.1 steps 1–6, §4.2 queries, §5 NC3V.
//!
//! Everything between a subtransaction's arrival and its termination lives
//! here — fault injection, tombstone checks, lock acquisition with
//! wait-die, local step execution, child spawning, completion-notice
//! tracking, and the non-commuting path (gate admission, stale-version
//! aborts, two-phase commitment).

use std::collections::{BTreeMap, BTreeSet};

use threev_analysis::ReadObservation;
use threev_durability::WalOp;
use threev_model::{Key, NodeId, OpStep, SubtxnId, SubtxnPlan, TxnId, TxnKind, VersionNo};
use threev_sim::Ctx;
use threev_storage::{LockDecision, LockMode, StoreError};

use crate::msg::Msg;

use super::{Job, NcCoord, NcRootCtx, Parked, Stage, SubTracker, ThreeVNode, TimerAction};

impl ThreeVNode {
    // ------------------------------------------------------ job execution

    /// Entry point for any subtransaction (root or descendant) once its
    /// version is fixed. Handles fault injection, tombstones, and locks,
    /// then executes.
    pub(super) fn run_job(&mut self, ctx: &mut Ctx<'_, Msg>, job: Job) {
        // Fault injection (experiment X10): this subtransaction aborts.
        if job.fail_node == Some(self.me) && job.kind == TxnKind::Commuting {
            self.abort_subtxn(ctx, &job);
            return;
        }
        // Compensation got here first (tombstone), or already swept through
        // this node (compensated footprint): the transaction is aborted and
        // this subtransaction must not execute (nor spawn its subtree).
        let compensated_here = self.footprints.get(&job.txn).is_some_and(|f| f.compensated);
        if self.tombstones.contains(&job.txn) || compensated_here {
            self.stats.skipped_tombstoned += 1;
            self.wal(WalOp::IncCompletion {
                version: job.version,
                from: job.source,
            });
            self.counters.inc_completion(job.version, job.source);
            // A cross-partition compensate may have overtaken the subtxn
            // that pinned: the transaction is dead here, so the re-root's
            // pin (taken just before this call) must not outlive it.
            self.release_xp_pins(job.txn);
            self.finish_without_effects(ctx, &job, false);
            return;
        }
        // Validate every local step before taking locks or applying
        // anything: a malformed subtransaction (unknown key, no visible
        // base version, type-mismatched op) terminates its subtree cleanly
        // instead of panicking the node.
        let t0 = self.prof_start();
        let validated = self.validate_plan(&job);
        self.prof_end(Stage::Validate, t0);
        if let Err(e) = validated {
            self.reject_malformed(ctx, &job, e);
            return;
        }
        // Locks (NC3V mode only; reads take none — §4.2).
        if self.cfg.locks_enabled {
            let mode = match job.kind {
                TxnKind::Commuting => Some(LockMode::Commute),
                TxnKind::NonCommuting => Some(LockMode::Exclusive),
                TxnKind::ReadOnly => None,
            };
            if let Some(mode) = mode {
                let mut keys: Vec<(Key, LockMode)> =
                    job.plan.steps.iter().map(|s| (s.key(), mode)).collect();
                keys.sort_by_key(|(k, _)| *k);
                keys.dedup_by_key(|(k, _)| *k);
                self.acquire_and_run(ctx, Parked { keys, next: 0, job });
                return;
            }
        }
        self.execute_job(ctx, job);
    }

    /// Pre-pass over the plan's local steps against the store — no stats
    /// moved, nothing applied, so rejection needs no undo.
    fn validate_plan(&self, job: &Job) -> Result<(), StoreError> {
        for step in &job.plan.steps {
            match step {
                OpStep::Read(key) => self.store.check_read(*key, job.version)?,
                OpStep::Update(key, op) => self.store.check_update(*key, job.version, *op)?,
            }
        }
        Ok(())
    }

    /// A plan failed validation: terminate the subtree without effects.
    /// Commuting/read-only subtransactions complete unclean (the root
    /// reports the transaction aborted); non-commuting ones take the
    /// existing doom path so the 2PC round aborts globally. Either way the
    /// completion counters stay balanced — the version window can still
    /// advance past the rejected transaction (§2.2).
    fn reject_malformed(&mut self, ctx: &mut Ctx<'_, Msg>, job: &Job, err: StoreError) {
        self.stats.malformed_rejected += 1;
        if ctx.tracing() {
            let e = err.with_window(self.vr, self.vu);
            ctx.trace(|| format!("{}: rejects subtx of {}: {}", self.me, job.txn, e));
        }
        if job.kind == TxnKind::NonCommuting {
            self.doom_nc(ctx, job);
        } else {
            self.wal(WalOp::IncCompletion {
                version: job.version,
                from: job.source,
            });
            self.counters.inc_completion(job.version, job.source);
            // Sharded clusters cannot leave a rejected commuting tree
            // uncompensated: gauge pins at partition-entry nodes are only
            // released by an XpResolve (which an unclean tree never sends)
            // or the compensation flood — so start the flood, exactly as a
            // fault-injected abort would. Single-partition behaviour is
            // unchanged (the root just reports the transaction aborted).
            if job.kind == TxnKind::Commuting && !self.cfg.topology.is_single() {
                self.tombstones.insert(job.txn);
                self.stats.tombstones += 1;
                self.release_xp_pins(job.txn);
                if let Some((parent_node, _)) = job.parent {
                    self.send_compensate(ctx, parent_node, job.txn, job.version);
                }
            }
            self.finish_without_effects(ctx, job, false);
        }
    }

    /// Acquire locks one by one; park on a wait, retry/doom on a die.
    fn acquire_and_run(&mut self, ctx: &mut Ctx<'_, Msg>, mut parked: Parked) {
        while parked.next < parked.keys.len() {
            let (key, mode) = parked.keys[parked.next];
            let t0 = self.prof_start();
            // lint-allow(wal-hook-coverage): logging is decision-dependent —
            // only a direct Granted outcome touches durable holder state,
            // and that arm writes WalOp::LockAcquire itself; Waiting/Abort
            // outcomes mutate volatile wait-queue state only.
            let decision = self.locks.acquire(key, mode, parked.job.txn);
            self.prof_end(Stage::Lock, t0);
            match decision {
                LockDecision::Granted => {
                    // Logged only on a *direct* grant: promotions out of a
                    // release are reproduced by replaying the release.
                    self.wal(WalOp::LockAcquire {
                        key,
                        txn: parked.job.txn,
                        mode,
                    });
                    parked.next += 1;
                }
                LockDecision::Waiting => {
                    self.stats.parked += 1;
                    self.parked.insert(parked.job.txn, parked);
                    return;
                }
                LockDecision::Abort => {
                    // Locks already held by this transaction (from this
                    // acquisition or earlier subtransactions here) are NOT
                    // released: they may protect applied-but-uncommitted
                    // effects. They fall with the eventual clean-up
                    // (commuting) or NC decision (non-commuting).
                    let job = parked.job;
                    match job.kind {
                        TxnKind::Commuting => {
                            // Nothing applied by THIS subtransaction yet: a
                            // pure local retry preserves exactly-once.
                            self.stats.commuting_retries += 1;
                            let backoff = self.cfg.retry_backoff;
                            self.schedule(ctx, backoff, TimerAction::RetryJob(Box::new(job)));
                        }
                        TxnKind::NonCommuting => {
                            self.doom_nc(ctx, &job);
                        }
                        TxnKind::ReadOnly => {
                            // Reads never acquire locks (§4.2), so the lock
                            // table cannot hand one an abort; degrade by
                            // running it lock-free.
                            self.stats.invariant_breaches += 1;
                            self.execute_job(ctx, job);
                        }
                    }
                    return;
                }
            }
        }
        let job = parked.job;
        self.execute_job(ctx, job);
    }

    pub(super) fn process_grants(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        grants: threev_storage::locks::Grants,
    ) {
        for (txn, key, mode) in grants {
            if let Some(mut parked) = self.parked.remove(&txn) {
                debug_assert_eq!(parked.keys[parked.next].0, key);
                // A promotion is a grant the WAL must see: waiter-queue
                // entries are never logged, so replaying the release alone
                // cannot reproduce it. Replaying this acquire against the
                // recovered table (no waiters) yields the same holder state,
                // including the sole-holder upgrade case.
                self.wal(WalOp::LockAcquire { key, txn, mode });
                parked.next += 1;
                self.acquire_and_run(ctx, parked);
            }
            // Grants for non-parked transactions are re-entrant no-ops.
        }
    }

    /// A locally-doomed NC subtransaction: record the doom; the global
    /// abort happens through the 2PC vote. The subtransaction "terminates"
    /// without effects and without spawning children.
    fn doom_nc(&mut self, ctx: &mut Ctx<'_, Msg>, job: &Job) {
        let local = self.nc_local.entry(job.txn).or_default();
        local.doomed = true;
        local.pending_completions.push((job.version, job.source));
        self.finish_without_effects(ctx, job, false);
    }

    /// Fault-injected abort of a commuting subtransaction (§3.2): no local
    /// effects, compensate the rest of the tree through the parent.
    fn abort_subtxn(&mut self, ctx: &mut Ctx<'_, Msg>, job: &Job) {
        ctx.trace(|| format!("subtx of {} aborts; compensation begins", job.txn));
        self.tombstones.insert(job.txn);
        self.stats.tombstones += 1;
        self.wal(WalOp::IncCompletion {
            version: job.version,
            from: job.source,
        });
        self.counters.inc_completion(job.version, job.source);
        // The aborting node resolves the transaction for itself: any pin
        // taken when this subtransaction was re-rooted is released here
        // (the flood it starts below releases the others).
        self.release_xp_pins(job.txn);
        if let Some((parent_node, _)) = job.parent {
            self.send_compensate(ctx, parent_node, job.txn, job.version);
        }
        self.finish_without_effects(ctx, job, true);
    }

    /// Release every gauge pin held for `txn`: one completion increment at
    /// the gauge per pinned request, which re-balances the `(node, gauge)`
    /// pair and lets the pinned version drain. Idempotent — the map entry
    /// is removed, so whichever resolution signal arrives second (e.g. a
    /// compensation forwarded along two tree edges) is a no-op.
    pub(super) fn release_xp_pins(&mut self, txn: TxnId) {
        if let Some(pins) = self.xp_pins.remove(&txn) {
            for (version, peer) in pins {
                let g = threev_model::gauge_node(peer);
                self.wal(WalOp::IncCompletion { version, from: g });
                self.counters.inc_completion(version, g);
            }
        }
    }

    /// Record one gauge pin for `txn` toward `peer`: an `R` increment at
    /// the gauge id that stays un-matched until the transaction resolves.
    fn pin_xp(&mut self, txn: TxnId, version: VersionNo, peer: threev_model::PartitionId) {
        let g = threev_model::gauge_node(peer);
        self.wal(WalOp::IncRequest { version, to: g });
        // lint-allow(counter-balance): the pin is *deliberately* left open
        // here; its matching C moves in release_xp_pins when the tree
        // resolves (XpResolve) or the compensation flood lands.
        self.counters.inc_request(version, g);
        self.xp_pins.entry(txn).or_default().push((version, peer));
    }

    /// Send a compensating subtransaction to `to`. Partition-local sends
    /// are counted (`R` here, `C` at the receiver) exactly like ordinary
    /// subtransactions; a cross-partition send is uncounted — the two
    /// sides run different version spaces, and the receiver's own gauge
    /// pin is what keeps its footprint alive until the flood lands.
    fn send_compensate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        to: NodeId,
        txn: TxnId,
        version: VersionNo,
    ) {
        if self.cfg.topology.same_partition(to, self.me) {
            self.wal(WalOp::IncRequest { version, to });
            self.counters.inc_request(version, to);
        }
        ctx.send_tagged(to, Msg::Compensate { txn, version }, "compensate");
    }

    /// Close out a subtransaction that executed no steps and spawned no
    /// children (tombstoned, doomed, or fault-aborted). `already_counted`
    /// is true when the caller has handled the completion counter.
    fn finish_without_effects(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        job: &Job,
        _already_counted: bool,
    ) {
        let sub_id = self.new_sub_id();
        self.trackers.insert(
            sub_id,
            SubTracker {
                txn: job.txn,
                kind: job.kind,
                version: job.version,
                parent: job.parent,
                client: job.client,
                pending_children: 0,
                participants: BTreeSet::new(),
                clean: false,
            },
        );
        self.finish_subtree(ctx, sub_id);
    }

    /// Execute the local steps, spawn children, and complete — §4.1 steps
    /// 3–6 (well-behaved), §4.2 (queries), §5 steps 3–5 (non-commuting).
    fn execute_job(&mut self, ctx: &mut Ctx<'_, Msg>, mut job: Job) {
        self.stats.subtxns_executed += 1;
        let mut reads: Vec<ReadObservation> = Vec::new();
        let mut clean = true;

        match job.kind {
            TxnKind::ReadOnly | TxnKind::Commuting => {
                for step in &job.plan.steps {
                    match step {
                        OpStep::Read(key) => {
                            // Validated by the pre-pass; a failure here is a
                            // store defect. Skip the step and report unclean.
                            let t0 = self.prof_start();
                            let read = self.store.read_visible(*key, job.version);
                            self.prof_end(Stage::Store, t0);
                            let Ok((ver, value)) = read else {
                                self.stats.invariant_breaches += 1;
                                clean = false;
                                continue;
                            };
                            if ctx.tracing() {
                                ctx.trace(|| format!("{} reads {key} version {ver}", job.txn));
                            }
                            reads.push(ReadObservation {
                                key: *key,
                                version: Some(ver),
                                value,
                            });
                        }
                        OpStep::Update(key, op) => {
                            self.wal(WalOp::Update {
                                key: *key,
                                version: job.version,
                                op: *op,
                                txn: job.txn,
                            });
                            let t0 = self.prof_start();
                            let upd = self.store.update(*key, job.version, *op, job.txn, None);
                            self.prof_end(Stage::Store, t0);
                            let Ok(out) = upd else {
                                self.stats.invariant_breaches += 1;
                                clean = false;
                                continue;
                            };
                            if ctx.tracing() {
                                let n = out.versions_written;
                                ctx.trace(|| {
                                    format!(
                                        "{} updates {key} version {}{}",
                                        job.txn,
                                        job.version,
                                        if n > 1 { " (and newer copies)" } else { "" }
                                    )
                                });
                            }
                            // Record the inverse for potential compensation.
                            let fp = self.footprints.entry(job.txn).or_default();
                            fp.version = job.version;
                            fp.inverse_steps.push((*key, op.compensation(None)));
                        }
                    }
                }
            }
            TxnKind::NonCommuting => {
                // A sibling subtransaction may already have doomed this
                // transaction locally; terminate without effects.
                if self.nc_local.get(&job.txn).is_some_and(|l| l.doomed) {
                    self.doom_nc(ctx, &job);
                    return;
                }
                // §5 step 4: abort if any accessed item already exists in a
                // version above V(K); otherwise update x(V(K)) only.
                let mut doomed = false;
                let t0 = self.prof_start();
                for step in &job.plan.steps {
                    // Validated keys exist; an error here is a store defect —
                    // doom conservatively rather than panic.
                    let newer = match self.store.exists_above(step.key(), job.version) {
                        Ok(b) => b,
                        Err(_) => {
                            self.stats.invariant_breaches += 1;
                            true
                        }
                    };
                    if newer {
                        doomed = true;
                        break;
                    }
                }
                self.prof_end(Stage::Store, t0);
                if doomed {
                    self.stats.nc_stale_aborts += 1;
                    self.doom_nc(ctx, &job);
                    return;
                }
                // Split borrow: take the undo log out while touching the store.
                let mut local = self.nc_local.remove(&job.txn).unwrap_or_default();
                for step in &job.plan.steps {
                    match step {
                        OpStep::Read(key) => {
                            let t0 = self.prof_start();
                            let read = self.store.read_visible(*key, job.version);
                            self.prof_end(Stage::Store, t0);
                            let Ok((ver, value)) = read else {
                                // Post-validation failure: doom the NC
                                // transaction so 2PC aborts it globally.
                                self.stats.invariant_breaches += 1;
                                local.doomed = true;
                                continue;
                            };
                            reads.push(ReadObservation {
                                key: *key,
                                version: Some(ver),
                                value,
                            });
                        }
                        OpStep::Update(key, op) => {
                            self.wal(WalOp::Update {
                                key: *key,
                                version: job.version,
                                op: *op,
                                txn: job.txn,
                            });
                            let t0 = self.prof_start();
                            let upd = self.store.update(
                                *key,
                                job.version,
                                *op,
                                job.txn,
                                Some(&mut local.undo),
                            );
                            self.prof_end(Stage::Store, t0);
                            if upd.is_err() {
                                // Undo already holds the priors of anything
                                // applied so far; dooming lets the 2PC abort
                                // roll the partial effects back.
                                self.stats.invariant_breaches += 1;
                                local.doomed = true;
                            }
                        }
                    }
                }
                local.pending_completions.push((job.version, job.source));
                self.nc_local.insert(job.txn, local);
                clean = true;
            }
        }

        // Maintain the compensation footprint's neighbour set.
        if job.kind == TxnKind::Commuting {
            let fp = self.footprints.entry(job.txn).or_default();
            fp.version = job.version;
            if let Some((parent_node, _)) = job.parent {
                if parent_node != self.me {
                    fp.neighbors.insert(parent_node);
                }
            } else {
                fp.is_root = true;
                fp.client = Some(job.client);
            }
            for child in &job.plan.children {
                if child.node != self.me {
                    fp.neighbors.insert(child.node);
                }
            }
        }

        // §4.1 step 5: increment R, then send, then commit locally. The
        // child plans are *moved* out of the job into their `Subtxn`
        // messages — the parent never reads them again, and cloning a
        // child here would deep-copy its entire subtree (every step and
        // descendant plan) per fan-out, the single biggest allocation on
        // the hot path before this was measured.
        let sub_id = self.new_sub_id();
        let children = std::mem::take(&mut job.plan.children);
        let n_children = children.len() as u32;
        for child in children {
            if self.cfg.topology.same_partition(child.node, self.me) {
                self.wal(WalOp::IncRequest {
                    version: job.version,
                    to: child.node,
                });
                let t0 = self.prof_start();
                self.counters.inc_request(job.version, child.node);
                self.prof_end(Stage::Counter, t0);
                if ctx.tracing() {
                    let r = self.counters.request(job.version, child.node);
                    let (me, v, to) = (self.me, job.version, child.node);
                    ctx.trace(|| {
                        format!("subtx of {} issued to {to}; R{v} {me}->{to} = {r}", job.txn)
                    });
                }
            } else {
                match job.kind {
                    // The child re-roots at the peer's own update version;
                    // what this node tracks is a gauge pin toward the peer,
                    // held until the whole tree resolves (so a late
                    // cross-partition compensate always finds footprints).
                    TxnKind::Commuting => {
                        let peer = self.cfg.topology.partition_of(child.node);
                        self.pin_xp(job.txn, job.version, peer);
                    }
                    // A foreign read re-roots at the peer's read version
                    // and protects itself with the peer's own counters;
                    // nothing here needs to stay open for it.
                    TxnKind::ReadOnly => {}
                    // The shard router never routes a non-commuting tree
                    // across partitions; reaching here is a routing defect.
                    TxnKind::NonCommuting => {
                        self.stats.invariant_breaches += 1;
                    }
                }
            }
            ctx.send_tagged(
                child.node,
                Msg::Subtxn {
                    txn: job.txn,
                    kind: job.kind,
                    version: job.version,
                    plan: child,
                    parent_sub: sub_id,
                    client: job.client,
                    fail_node: job.fail_node,
                },
                "subtxn",
            );
        }

        // §4.1 step 6: completion counter + terminate, one atomic step —
        // except NC subtransactions, whose counter moves with the 2PC
        // decision (§5 step 6).
        if job.kind != TxnKind::NonCommuting {
            self.wal(WalOp::IncCompletion {
                version: job.version,
                from: job.source,
            });
            let t0 = self.prof_start();
            self.counters.inc_completion(job.version, job.source);
            self.prof_end(Stage::Counter, t0);
            if ctx.tracing() {
                let c = self.counters.completion(job.version, job.source);
                let (me, v, src) = (self.me, job.version, job.source);
                ctx.trace(|| format!("subtx of {} completes; C{v} {src}->{me} = {c}", job.txn));
            }
        }

        if !reads.is_empty() {
            ctx.send_tagged(
                job.client,
                Msg::ReadResults {
                    txn: job.txn,
                    reads,
                },
                "client",
            );
        }

        self.trackers.insert(
            sub_id,
            SubTracker {
                txn: job.txn,
                kind: job.kind,
                version: job.version,
                parent: job.parent,
                client: job.client,
                pending_children: n_children,
                participants: BTreeSet::new(),
                clean,
            },
        );
        if n_children == 0 {
            self.finish_subtree(ctx, sub_id);
        }
    }

    /// The subtree rooted at `sub_id` has fully terminated: notify the
    /// parent, or — at the root — close out the transaction.
    fn finish_subtree(&mut self, ctx: &mut Ctx<'_, Msg>, sub_id: SubtxnId) {
        let Some(mut tracker) = self.trackers.remove(&sub_id) else {
            // Callers hold a live tracker; a miss means a duplicate
            // completion slipped through. Drop it rather than panic.
            self.stats.invariant_breaches += 1;
            return;
        };
        let mut participants = std::mem::take(&mut tracker.participants);
        participants.insert(self.me);
        match tracker.parent {
            Some((parent_node, parent_sub)) => {
                ctx.send_tagged(
                    parent_node,
                    Msg::SubtreeDone {
                        txn: tracker.txn,
                        parent_sub,
                        participants: participants.into_iter().collect(),
                        clean: tracker.clean,
                    },
                    "notice",
                );
            }
            None => self.tree_complete(ctx, tracker, participants),
        }
    }

    /// Whole-tree completion at the root node.
    fn tree_complete(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        tracker: SubTracker,
        participants: BTreeSet<NodeId>,
    ) {
        ctx.trace(|| format!("{} is complete", tracker.txn));
        match tracker.kind {
            TxnKind::ReadOnly => {
                // `clean` is false only on the rejection/degradation paths;
                // an ordinary read tree always reports committed.
                ctx.send_tagged(
                    tracker.client,
                    Msg::TxnDone {
                        txn: tracker.txn,
                        version: tracker.version,
                        committed: tracker.clean,
                    },
                    "client",
                );
            }
            TxnKind::Commuting => {
                // Compensation may race the completion chain: a transaction
                // tombstoned or compensated anywhere reports aborted.
                let aborted = !tracker.clean
                    || self.tombstones.contains(&tracker.txn)
                    || self
                        .footprints
                        .get(&tracker.txn)
                        .is_some_and(|f| f.compensated);
                ctx.send_tagged(
                    tracker.client,
                    Msg::TxnDone {
                        txn: tracker.txn,
                        version: tracker.version,
                        committed: !aborted,
                    },
                    "client",
                );
                // §5 clean-up phase: release commute locks asynchronously.
                if self.cfg.locks_enabled {
                    for p in &participants {
                        ctx.send_tagged(*p, Msg::ReleaseLocks { txn: tracker.txn }, "cleanup");
                    }
                }
                // Cross-partition resolution: a tree that touched another
                // partition left gauge pins at every shipping and entry
                // node. On a clean commit, broadcast the resolve so they
                // release; on abort send nothing — the compensation flood
                // is the release signal there, and sending both would let
                // a resolve overtake an in-flight compensate.
                let topo = self.cfg.topology;
                if !topo.is_single()
                    && !aborted
                    && participants
                        .iter()
                        .any(|p| !topo.same_partition(*p, self.me))
                {
                    for p in participants.iter().filter(|p| **p != self.me) {
                        ctx.send_tagged(*p, Msg::XpResolve { txn: tracker.txn }, "xp");
                    }
                    self.release_xp_pins(tracker.txn);
                }
            }
            TxnKind::NonCommuting => {
                // §5 step 6: two-phase commitment over the participants.
                if tracker.clean {
                    self.nc_coord.insert(
                        tracker.txn,
                        NcCoord {
                            participants: participants.clone(),
                            votes: BTreeMap::new(),
                            version: tracker.version,
                        },
                    );
                    for p in &participants {
                        ctx.send_tagged(*p, Msg::NcPrepare { txn: tracker.txn }, "2pc");
                    }
                } else {
                    // Something doomed the transaction mid-tree: abort
                    // without a voting round.
                    for p in &participants {
                        ctx.send_tagged(
                            *p,
                            Msg::NcDecision {
                                txn: tracker.txn,
                                commit: false,
                            },
                            "2pc",
                        );
                    }
                    self.nc_finished(ctx, tracker.txn, tracker.version, false);
                }
            }
        }
    }

    /// Root-side epilogue of an NC transaction: report or retry.
    fn nc_finished(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        version: VersionNo,
        committed: bool,
    ) {
        let Some(root_ctx) = self.nc_root_ctx.get(&txn) else {
            return;
        };
        let client = root_ctx.client;
        let retries_left = root_ctx.retries_left;
        if committed {
            self.nc_root_ctx.remove(&txn);
            ctx.send_tagged(
                client,
                Msg::TxnDone {
                    txn,
                    version,
                    committed: true,
                },
                "client",
            );
        } else if retries_left > 0 {
            if let Some(c) = self.nc_root_ctx.get_mut(&txn) {
                c.retries_left -= 1;
            }
            let backoff = self.cfg.retry_backoff;
            self.schedule(ctx, backoff, TimerAction::RetryNcRoot(txn));
        } else {
            self.stats.nc_gave_up += 1;
            self.nc_root_ctx.remove(&txn);
            ctx.send_tagged(
                client,
                Msg::TxnDone {
                    txn,
                    version,
                    committed: false,
                },
                "client",
            );
        }
    }

    /// (Re)submit an NC root: §5 steps 1–2, the `vu == vr + 1` gate.
    pub(super) fn submit_nc_root(&mut self, ctx: &mut Ctx<'_, Msg>, txn: TxnId) {
        let Some(root) = self.nc_root_ctx.get(&txn) else {
            // Retry timer outlived the transaction (a duplicate decision
            // already closed it): nothing to resubmit.
            return;
        };
        let job = Job {
            txn,
            kind: TxnKind::NonCommuting,
            version: self.vu,
            plan: root.plan.clone(),
            parent: None,
            client: root.client,
            fail_node: root.fail_node,
            source: self.me,
        };
        // Root request counter moves at arrival (§4.1 step 1 applies to NC
        // roots too — their activity must hold version `vu` open).
        self.wal(WalOp::IncRequest {
            version: job.version,
            to: self.me,
        });
        self.counters.inc_request(job.version, self.me);
        if job.version == self.vr.next() {
            self.run_job(ctx, job);
        } else {
            self.stats.nc_gated += 1;
            ctx.trace(|| format!("{txn} waits at gate (vu != vr+1)"));
            self.nc_waiting.push(job);
        }
    }

    // ------------------------------------------------------ msg handlers

    pub(super) fn handle_submit(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        kind: TxnKind,
        plan: SubtxnPlan,
        client: NodeId,
        fail_node: Option<NodeId>,
    ) {
        self.stats.roots += 1;
        match kind {
            TxnKind::ReadOnly => {
                let version = self.vr;
                self.wal(WalOp::IncRequest {
                    version,
                    to: self.me,
                });
                let t0 = self.prof_start();
                self.counters.inc_request(version, self.me);
                self.prof_end(Stage::Counter, t0);
                if ctx.tracing() {
                    ctx.trace(|| format!("read tx {txn} arrives (version {version})"));
                }
                self.run_job(
                    ctx,
                    Job {
                        txn,
                        kind,
                        version,
                        plan,
                        parent: None,
                        client,
                        fail_node,
                        source: self.me,
                    },
                );
            }
            TxnKind::Commuting => {
                let version = self.vu;
                self.wal(WalOp::IncRequest {
                    version,
                    to: self.me,
                });
                let t0 = self.prof_start();
                self.counters.inc_request(version, self.me);
                self.prof_end(Stage::Counter, t0);
                if ctx.tracing() {
                    ctx.trace(|| format!("update tx {txn} arrives (version {version})"));
                }
                self.run_job(
                    ctx,
                    Job {
                        txn,
                        kind,
                        version,
                        plan,
                        parent: None,
                        client,
                        fail_node,
                        source: self.me,
                    },
                );
            }
            TxnKind::NonCommuting => {
                self.nc_root_ctx.insert(
                    txn,
                    NcRootCtx {
                        plan,
                        client,
                        fail_node,
                        retries_left: self.cfg.nc_max_retries,
                    },
                );
                self.submit_nc_root(ctx, txn);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_subtxn(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: TxnId,
        kind: TxnKind,
        version: VersionNo,
        plan: SubtxnPlan,
        parent_sub: SubtxnId,
        client: NodeId,
        fail_node: Option<NodeId>,
    ) {
        if ctx.tracing() {
            ctx.trace(|| format!("subtx of {txn} arrives from {from} (version {version})"));
        }
        if !self.cfg.topology.same_partition(from, self.me) {
            // A foreign sender's version belongs to another partition's
            // version space: neither run at it nor infer advancement from
            // it. Re-root the subtree here instead.
            self.handle_foreign_subtxn(ctx, from, txn, kind, plan, parent_sub, client, fail_node);
            return;
        }
        // §2.3: an update descendant with a newer version acts as the
        // advancement notification.
        if kind != TxnKind::ReadOnly && version > self.vu {
            self.advance_vu(ctx, version, true);
        }
        self.run_job(
            ctx,
            Job {
                txn,
                kind,
                version,
                plan,
                parent: Some((from, parent_sub)),
                client,
                fail_node,
                source: from,
            },
        );
    }

    /// Re-root a subtransaction arriving from another partition: this node
    /// becomes the subtree's root within its own partition. The version is
    /// assigned locally (update version for commuting work, read version
    /// for queries — exactly as [`Self::handle_submit`] would), the
    /// counters mirror a root's (`R`/`C` at this node), and commuting work
    /// additionally takes a gauge pin toward the sender's partition so the
    /// assigned version stays open until the whole tree resolves. The
    /// parent link is kept verbatim: the completion notice still travels
    /// back across the partition boundary.
    #[allow(clippy::too_many_arguments)]
    fn handle_foreign_subtxn(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: TxnId,
        kind: TxnKind,
        plan: SubtxnPlan,
        parent_sub: SubtxnId,
        client: NodeId,
        fail_node: Option<NodeId>,
    ) {
        let version = match kind {
            TxnKind::ReadOnly => self.vr,
            TxnKind::Commuting => self.vu,
            TxnKind::NonCommuting => {
                // The shard router forbids cross-partition non-commuting
                // trees (their 2PC and gate are partition-local notions).
                self.stats.invariant_breaches += 1;
                return;
            }
        };
        if ctx.tracing() {
            ctx.trace(|| format!("subtx of {txn} re-roots at local version {version}"));
        }
        self.wal(WalOp::IncRequest {
            version,
            to: self.me,
        });
        self.counters.inc_request(version, self.me);
        if kind == TxnKind::Commuting {
            let peer = self.cfg.topology.partition_of(from);
            self.pin_xp(txn, version, peer);
        }
        self.run_job(
            ctx,
            Job {
                txn,
                kind,
                version,
                plan,
                parent: Some((from, parent_sub)),
                client,
                fail_node,
                source: self.me,
            },
        );
    }

    pub(super) fn handle_subtree_done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        txn: TxnId,
        parent_sub: SubtxnId,
        participants: Vec<NodeId>,
        clean: bool,
    ) {
        if ctx.tracing() {
            ctx.trace(|| format!("completion notice for subtx of {txn} arrives from {from}"));
        }
        let Some(tracker) = self.trackers.get_mut(&parent_sub) else {
            // Tracker already closed (e.g. duplicate notice) — ignore.
            return;
        };
        tracker.participants.extend(participants);
        tracker.clean &= clean;
        tracker.pending_children = tracker.pending_children.saturating_sub(1);
        if tracker.pending_children == 0 {
            self.finish_subtree(ctx, parent_sub);
        }
    }

    // -------------------------------------------------------------- NC3V

    pub(super) fn handle_nc_prepare(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, txn: TxnId) {
        let yes = self.nc_local.get(&txn).map(|l| !l.doomed).unwrap_or(true);
        ctx.send_tagged(
            from,
            Msg::NcVote {
                txn,
                node: self.me,
                yes,
            },
            "2pc",
        );
    }

    pub(super) fn handle_nc_vote(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        node: NodeId,
        yes: bool,
    ) {
        let Some(coord) = self.nc_coord.get_mut(&txn) else {
            return;
        };
        coord.votes.insert(node, yes);
        if coord.votes.len() == coord.participants.len() {
            let commit = coord.votes.values().all(|v| *v);
            if let Some(coord) = self.nc_coord.remove(&txn) {
                for p in &coord.participants {
                    ctx.send_tagged(*p, Msg::NcDecision { txn, commit }, "2pc");
                }
                self.nc_finished(ctx, txn, coord.version, commit);
            }
        }
    }

    pub(super) fn handle_nc_decision(&mut self, ctx: &mut Ctx<'_, Msg>, txn: TxnId, commit: bool) {
        let Some(mut local) = self.nc_local.remove(&txn) else {
            return;
        };
        if local.decided {
            return;
        }
        local.decided = true;
        if commit {
            self.stats.nc_commits += 1;
        } else {
            self.stats.nc_rollbacks += 1;
            let undo = std::mem::take(&mut local.undo);
            if self.wal_enabled() {
                // Restore records go out in the order the store will apply
                // them (reverse of the undo log), so replay is a verbatim
                // re-application.
                for (key, version, prior) in undo.entries().iter().rev() {
                    self.wal(WalOp::Restore {
                        key: *key,
                        version: *version,
                        prior: prior.clone(),
                    });
                }
            }
            let t0 = self.prof_start();
            self.store.rollback(undo);
            self.prof_end(Stage::Store, t0);
        }
        // §5 step 6: completion counters move atomically with the decision.
        for (version, source) in local.pending_completions.drain(..) {
            self.wal(WalOp::IncCompletion {
                version,
                from: source,
            });
            self.counters.inc_completion(version, source);
        }
        if self.cfg.locks_enabled {
            self.wal(WalOp::LockRelease { txn });
            let t0 = self.prof_start();
            let grants = self.locks.release_all(txn);
            self.prof_end(Stage::Lock, t0);
            self.process_grants(ctx, grants);
        }
    }

    pub(super) fn handle_release_locks(&mut self, ctx: &mut Ctx<'_, Msg>, txn: TxnId) {
        if self.cfg.locks_enabled {
            self.wal(WalOp::LockRelease { txn });
            let t0 = self.prof_start();
            let grants = self.locks.release_all(txn);
            self.prof_end(Stage::Lock, t0);
            self.process_grants(ctx, grants);
        }
        // Footprints are kept: a compensating subtransaction may still be in
        // flight (the completion chain and compensation race). They are
        // garbage-collected by version in `handle_gc`.
    }
}
