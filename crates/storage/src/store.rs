//! The per-node key-value store: the paper's §4 access rules over a
//! pluggable [`StorageBackend`] holding the [`VersionedRecord`]s, plus the
//! statistics the experiments report on.

use std::collections::BTreeSet;
use std::fmt;

use threev_model::{Key, NodeId, Schema, TxnId, UpdateOp, Value, VersionNo};

use crate::backend::{AnyBackend, MemBackend, StorageBackend};
use crate::record::{GcAction, UpdateOutcome, VersionedRecord};
use crate::undo::UndoLog;

/// Storage-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The key is not in this node's fragment.
    UnknownKey {
        /// The missing key.
        key: Key,
    },
    /// No version of the item is visible at the requested version — a
    /// protocol invariant violation (GC ran too early) that we surface
    /// loudly instead of masking.
    NoVisibleVersion {
        /// The key read.
        key: Key,
        /// The version requested.
        version: VersionNo,
        /// The node's `(vr, vu)` window when the read failed, if known.
        /// The store itself does not track versions; the node layer
        /// attaches its window via [`StoreError::with_window`] so the
        /// error names the invariant that broke (a visible read must have
        /// `vr <= version <= vu`).
        window: Option<(VersionNo, VersionNo)>,
    },
    /// The operation does not apply to the stored value kind.
    Apply {
        /// The key updated.
        key: Key,
        /// Underlying model error.
        source: threev_model::ops::ApplyError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownKey { key } => write!(f, "key {key} not stored on this node"),
            StoreError::NoVisibleVersion {
                key,
                version,
                window,
            } => {
                write!(f, "no version of {key} visible at {version}")?;
                if let Some((vr, vu)) = window {
                    write!(f, " (node window vr={vr}, vu={vu})")?;
                }
                Ok(())
            }
            StoreError::Apply { key, source } => write!(f, "updating {key}: {source}"),
        }
    }
}

impl StoreError {
    /// Attach the node's `(vr, vu)` version window to a
    /// [`StoreError::NoVisibleVersion`]; other variants pass through
    /// unchanged.
    pub fn with_window(self, vr: VersionNo, vu: VersionNo) -> Self {
        match self {
            StoreError::NoVisibleVersion { key, version, .. } => StoreError::NoVisibleVersion {
                key,
                version,
                window: Some((vr, vu)),
            },
            other => other,
        }
    }
}

impl std::error::Error for StoreError {}

/// Counters the storage layer maintains for the experiment harnesses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads served.
    pub reads: u64,
    /// Update operations applied (one per op, not per version written).
    pub updates: u64,
    /// Versions materialised by copy-on-update.
    pub copies_created: u64,
    /// Updates that wrote ≥ 2 versions (the §2.3 straggler dual write; X7).
    pub dual_writes: u64,
    /// High-water mark of live versions of any single item (X4: must be ≤ 3).
    pub max_versions_of_any_item: u32,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Versions dropped by GC.
    pub gc_dropped: u64,
    /// Records renamed by GC (item had no copy at the new read version).
    /// Derived: the chains outside the grown set when the floor rises,
    /// plus the renames inside it — what a sweep of every record counts.
    pub gc_renamed: u64,
    /// Records GC visited: the grown set, not the store (see [`Store::gc`]).
    pub gc_visited: u64,
}

/// The node-local store, generic over where the chains live. Bare `Store`
/// keeps meaning the in-memory store it always was; the node engine runs a
/// `Store<AnyBackend>` selected by `BackendConfig`.
#[derive(Clone, Debug)]
pub struct Store<B: StorageBackend = MemBackend> {
    node: NodeId,
    backend: B,
    /// Read floor: a chain's lowest label reads as `max(label, floor)`.
    floor: VersionNo,
    /// Keys written since the last GC, plus the chains GC left unsettled.
    grown: BTreeSet<Key>,
    stats: StoreStats,
}

/// One version at or below the floor: raising the floor is its whole GC.
fn settled(rec: &VersionedRecord, floor: VersionNo) -> bool {
    rec.version_count() == 1 && rec.max_version() <= floor
}

impl Store<MemBackend> {
    /// Build the in-memory store for `node`, materialising every key the
    /// schema homes there at version 0.
    pub fn from_schema(schema: &Schema, node: NodeId) -> Self {
        Store::from_schema_on(MemBackend::default(), schema, node)
    }

    /// Empty in-memory store for `node` (keys inserted with
    /// [`Store::insert_initial`]).
    pub fn empty(node: NodeId) -> Self {
        Store::on_backend(MemBackend::default(), node)
    }

    /// Rebuild a store from exported parts (checkpoint recovery).
    /// Statistics restart from the recovered layout: the historical
    /// counters died with the node.
    pub fn from_parts(node: NodeId, parts: Vec<(Key, Vec<(VersionNo, Value)>)>) -> Self {
        let mut backend = MemBackend::default();
        for (key, versions) in parts {
            backend.insert(key, VersionedRecord::from_versions(versions));
        }
        Store::on_backend(backend, node)
    }

    /// Erase the backend type (the node engine's store is `Store<AnyBackend>`
    /// whichever backend configuration selected).
    pub fn into_any(self) -> Store<AnyBackend> {
        Store {
            node: self.node,
            backend: AnyBackend::Mem(self.backend),
            floor: self.floor,
            grown: self.grown,
            stats: self.stats,
        }
    }
}

impl<B: StorageBackend> Store<B> {
    /// Wrap an opened backend at the floor it persisted; its unsettled
    /// chains form the grown set, compacted as [`Store::gc`] compacts it.
    /// Statistics restart from the recovered layout.
    pub fn on_backend(backend: B, node: NodeId) -> Self {
        let floor = backend.floor();
        let grown = backend
            .iter()
            .filter(|(_, rec)| !settled(rec, floor))
            .map(|(key, _)| *key)
            .collect();
        let mut store = Store {
            node,
            backend,
            floor,
            grown,
            stats: StoreStats::default(),
        };
        store.compact(floor);
        store.stats = StoreStats::default();
        store.stats.max_versions_of_any_item = store.current_max_versions() as u32;
        store
    }

    /// Build the store for `node` on `backend`: a fresh (empty) backend is
    /// materialised from the schema at version 0; a reopened backend keeps
    /// its recovered chains and ignores the schema.
    pub fn from_schema_on(backend: B, schema: &Schema, node: NodeId) -> Self {
        let mut store = Store::on_backend(backend, node);
        if store.backend.is_empty() {
            for decl in schema.keys_on(node) {
                store.insert_initial(decl.key, decl.init.clone());
            }
            store.stats.max_versions_of_any_item = 1;
        }
        store
    }

    /// The underlying backend (observability for tests and benches).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Insert a key at version 0 (test/bootstrap helper).
    pub fn insert_initial(&mut self, key: Key, value: Value) {
        self.backend.insert(key, VersionedRecord::initial(value));
        self.stats.max_versions_of_any_item = self.stats.max_versions_of_any_item.max(1);
    }

    /// Node this store belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Does this store hold `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.backend.get(key).is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Validate the read rule without serving the read (no stats moved, no
    /// value cloned). Lets the node layer reject a malformed subtransaction
    /// *before* applying any of its steps, so rejection needs no undo.
    pub fn check_read(&self, key: Key, v: VersionNo) -> Result<(), StoreError> {
        self.visible(key, v).map(|_| ())
    }

    /// Validate an update without applying it: the key is stored here, a
    /// base version is visible at `v`, and `op` applies to the stored value
    /// kind. Companion pre-pass to [`Store::check_read`].
    pub fn check_update(&self, key: Key, v: VersionNo, op: UpdateOp) -> Result<(), StoreError> {
        let (_, base) = self.visible(key, v)?;
        if op.applies_to() != base.kind() {
            return Err(StoreError::Apply {
                key,
                source: threev_model::ops::ApplyError::TypeMismatch { value: base.kind() },
            });
        }
        Ok(())
    }

    /// Read rule (§4.1 step 3 / §4.2): maximum existing version ≤ `v`.
    /// Returns the version actually read alongside the value.
    pub fn read_visible(
        &mut self,
        key: Key,
        v: VersionNo,
    ) -> Result<(VersionNo, Value), StoreError> {
        let (w, val) = self.visible(key, v).map(|(w, val)| (w, val.clone()))?;
        self.stats.reads += 1;
        Ok((w, val))
    }

    /// The chain of `key` as readers see it: the read floor applied.
    fn chain(
        &self,
        key: Key,
    ) -> Result<impl DoubleEndedIterator<Item = (VersionNo, &Value)> + '_, StoreError> {
        let rec = self
            .backend
            .get(key)
            .ok_or(StoreError::UnknownKey { key })?;
        Ok(rec.floored(self.floor))
    }

    /// The read rule over [`Store::chain`]: maximum version ≤ `v`.
    fn visible(&self, key: Key, v: VersionNo) -> Result<(VersionNo, &Value), StoreError> {
        self.chain(key)?
            .rev()
            .find(|(w, _)| *w <= v)
            .ok_or(StoreError::NoVisibleVersion {
                key,
                version: v,
                window: None,
            })
    }

    /// The chain of `key`, for a write. A key entering the grown set was
    /// settled, so relabelling it to the floor is an O(1) GC.
    fn chain_mut(&mut self, key: Key) -> Result<&mut VersionedRecord, StoreError> {
        let rec = self
            .backend
            .get_mut(key, true)
            .ok_or(StoreError::UnknownKey { key })?;
        if self.grown.insert(key) {
            rec.gc(self.floor);
        }
        Ok(rec)
    }

    /// Update rule (§4.1 step 4): ensure `x(v)` exists (copy-on-update),
    /// then apply `op` to every version ≥ `v`. When `undo` is supplied, the
    /// prior state of every touched version is recorded for rollback.
    pub fn update(
        &mut self,
        key: Key,
        v: VersionNo,
        op: UpdateOp,
        txn: TxnId,
        undo: Option<&mut UndoLog>,
    ) -> Result<UpdateOutcome, StoreError> {
        let rec = self.chain_mut(key)?;
        if let Some(log) = undo {
            // Record priors for all versions >= v, plus (if x(v) is about to
            // be created) a deletion entry for it.
            if !rec.exists(v) {
                log.record_created(key, v);
            }
            for (w, val) in rec.floored(VersionNo::ZERO).filter(|(w, _)| *w >= v) {
                log.record_prior(key, w, Some(val.clone()));
            }
        }
        let out = rec.update(key, v, op, txn)?;
        let count = rec.version_count();
        Ok(self.count_update(out, count))
    }

    /// Statistics for one applied update leaving `count` live versions.
    fn count_update(&mut self, out: UpdateOutcome, count: usize) -> UpdateOutcome {
        self.stats.updates += 1;
        self.stats.copies_created += u64::from(out.created_version);
        self.stats.dual_writes += u64::from(out.versions_written >= 2);
        let high = &mut self.stats.max_versions_of_any_item;
        *high = (*high).max(count as u32);
        out
    }

    /// Update exactly version `v` of `key` (manual-versioning semantics:
    /// late updates do not propagate to newer versions). See
    /// [`crate::record::VersionedRecord::update_exact`].
    pub fn update_exact(
        &mut self,
        key: Key,
        v: VersionNo,
        op: UpdateOp,
        txn: TxnId,
    ) -> Result<UpdateOutcome, StoreError> {
        let rec = self.chain_mut(key)?;
        let out = rec.update_exact(key, v, op, txn)?;
        let count = rec.version_count();
        Ok(self.count_update(out, count))
    }

    /// Does any version of `key` exist strictly above `v`? (NC3V abort rule,
    /// §5 step 4.)
    pub fn exists_above(&self, key: Key, v: VersionNo) -> Result<bool, StoreError> {
        Ok(self.chain(key)?.next_back().is_some_and(|(w, _)| w > v))
    }

    /// Apply an undo log (rollback of an uncommitted subtransaction).
    /// Entries are applied newest-first.
    pub fn rollback(&mut self, log: UndoLog) {
        for (key, version, prior) in log.into_entries_rev() {
            self.restore_version(key, version, prior);
        }
    }

    /// Garbage-collect for the new read version (§4.3 Phase 4), visiting
    /// only the grown set.
    ///
    /// A settled chain (one version at or below the floor) is renamed by
    /// raising the floor, which durable backends persist
    /// ([`StorageBackend::set_floor`]). The §4.3 rule proper,
    /// [`VersionedRecord::gc`], runs over the grown set only. No record is
    /// dirtied: [`Store::on_backend`] re-runs the same compaction at open.
    pub fn gc(&mut self, vr_new: VersionNo) {
        self.stats.gc_runs += 1;
        if vr_new > self.floor {
            self.stats.gc_renamed += (self.backend.len() - self.grown.len()) as u64;
            self.floor = vr_new;
            self.backend.set_floor(vr_new);
        }
        self.compact(vr_new);
    }

    /// Apply the §4.3 rule at `vr_new` to every chain in the grown set,
    /// dropping the chains it settles from the set.
    fn compact(&mut self, vr_new: VersionNo) {
        let (backend, stats, floor) = (&mut self.backend, &mut self.stats, self.floor);
        self.grown.retain(|&key| {
            backend.get_mut(key, false).is_some_and(|rec| {
                stats.gc_visited += 1;
                match rec.gc(vr_new) {
                    GcAction::DroppedOld { dropped } => stats.gc_dropped += u64::from(dropped),
                    GcAction::Renamed { dropped, .. } => {
                        stats.gc_renamed += 1;
                        stats.gc_dropped += u64::from(dropped);
                    }
                    GcAction::None => {}
                }
                !settled(rec, floor)
            })
        });
    }

    /// Restore version `v` of `key` to `prior` (`None` removes the
    /// version). This is the single-entry form of [`Store::rollback`],
    /// exposed so WAL replay can re-apply logged rollbacks during
    /// recovery.
    pub fn restore_version(&mut self, key: Key, v: VersionNo, prior: Option<Value>) {
        if let Ok(rec) = self.chain_mut(key) {
            rec.restore(v, prior);
        }
    }

    /// Export the full version layout of every key, sorted by key —
    /// the store side of a durability checkpoint.
    pub fn export_parts(&self) -> Vec<(Key, Vec<(VersionNo, Value)>)> {
        // Backend iteration is key-ordered, so the parts arrive sorted.
        self.iter_versions()
            .map(|(k, chain)| (k, chain.map(|(v, val)| (v, val.clone())).collect()))
            .collect()
    }

    /// Version layout of one key: `(version, value)` pairs ascending. Used
    /// by the Figure 2 replay and by invariant checks.
    pub fn layout(&self, key: Key) -> Option<Vec<(VersionNo, Value)>> {
        let chain = self.chain(key).ok()?;
        Some(chain.map(|(v, val)| (v, val.clone())).collect())
    }

    /// Current maximum live version count across all items (settled
    /// chains hold one).
    pub fn current_max_versions(&self) -> usize {
        let settled = usize::from(self.grown.len() < self.backend.len());
        self.grown
            .iter()
            .filter_map(|key| self.backend.get(*key))
            .map(VersionedRecord::version_count)
            .fold(settled, usize::max)
    }

    /// Iterate over all keys.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.backend.iter().map(|(k, _)| *k)
    }

    /// Non-cloning snapshot view of every chain, in key order, read floor
    /// applied: `(version, value)` pairs ascending — the backend-agnostic
    /// read path for checkpointing, invariant checks, and the model
    /// checker's oracle (no whole-`Store` clone, no value clones).
    pub fn iter_versions(
        &self,
    ) -> impl Iterator<Item = (Key, impl DoubleEndedIterator<Item = (VersionNo, &Value)>)> + '_
    {
        self.backend
            .iter()
            .map(|(k, rec)| (*k, rec.floored(self.floor)))
    }

    /// Persist every record changed since the last flush and stamp the
    /// durable image with `lsn`; returns bytes written (0 when the backend
    /// is volatile). See [`StorageBackend::flush`].
    pub fn flush_dirty(&mut self, lsn: u64) -> u64 {
        self.backend.flush(lsn)
    }

    /// LSN the durable chain image is current to (see
    /// [`StorageBackend::durable_lsn`]).
    pub fn durable_lsn(&self) -> Option<u64> {
        self.backend.durable_lsn()
    }

    /// Does the backend hold chains on stable storage? (See
    /// [`StorageBackend::persists_chains`].)
    pub fn persists_chains(&self) -> bool {
        self.backend.persists_chains()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::KeyDecl;

    fn t(seq: u64) -> TxnId {
        TxnId::new(seq, NodeId(0))
    }
    fn v(n: u32) -> VersionNo {
        VersionNo(n)
    }

    fn store() -> Store {
        let schema = Schema::new(vec![
            KeyDecl::counter(Key(1), NodeId(0), 100),
            KeyDecl::journal(Key(2), NodeId(0)),
            KeyDecl::counter(Key(3), NodeId(1), 0),
        ]);
        Store::from_schema(&schema, NodeId(0))
    }

    #[test]
    fn schema_fragmentation() {
        let s = store();
        assert_eq!(s.len(), 2, "only node-0 keys are materialised");
        assert!(!s.is_empty());
        assert_eq!(s.node(), NodeId(0));
        assert_eq!(s.keys().count(), 2);
    }

    #[test]
    fn unknown_key_errors() {
        let mut s = store();
        assert_eq!(
            s.read_visible(Key(3), v(0)).unwrap_err(),
            StoreError::UnknownKey { key: Key(3) }
        );
        assert_eq!(
            s.update(Key(3), v(1), UpdateOp::Add(1), t(1), None)
                .unwrap_err(),
            StoreError::UnknownKey { key: Key(3) }
        );
        assert!(s.exists_above(Key(3), v(0)).is_err());
    }

    #[test]
    fn read_update_cycle_with_stats() {
        let mut s = store();
        assert_eq!(s.read_visible(Key(1), v(0)).unwrap().1, Value::Counter(100));
        s.update(Key(1), v(1), UpdateOp::Add(10), t(1), None)
            .unwrap();
        // Reader at version 0 unaffected; reader at 1 sees it.
        assert_eq!(s.read_visible(Key(1), v(0)).unwrap().1, Value::Counter(100));
        assert_eq!(s.read_visible(Key(1), v(1)).unwrap().1, Value::Counter(110));
        let st = s.stats();
        assert_eq!(st.reads, 3);
        assert_eq!(st.updates, 1);
        assert_eq!(st.copies_created, 1);
        assert_eq!(st.dual_writes, 0);
        assert_eq!(st.max_versions_of_any_item, 2);
    }

    #[test]
    fn dual_write_stat() {
        let mut s = store();
        s.update(Key(1), v(1), UpdateOp::Add(1), t(1), None)
            .unwrap();
        s.update(Key(1), v(2), UpdateOp::Add(1), t(2), None)
            .unwrap();
        s.update(Key(1), v(1), UpdateOp::Add(1), t(3), None)
            .unwrap(); // straggler
        let st = s.stats();
        assert_eq!(st.dual_writes, 1);
        assert_eq!(st.max_versions_of_any_item, 3);
        assert_eq!(s.current_max_versions(), 3);
    }

    #[test]
    fn rollback_restores_all_versions() {
        let mut s = store();
        s.update(Key(1), v(1), UpdateOp::Add(10), t(1), None)
            .unwrap();
        s.update(Key(1), v(2), UpdateOp::Add(100), t(2), None)
            .unwrap();
        let before = s.layout(Key(1)).unwrap();

        // A straggler at v1 under an undo log, then rolled back.
        let mut log = UndoLog::default();
        s.update(Key(1), v(1), UpdateOp::Add(7), t(3), Some(&mut log))
            .unwrap();
        assert_ne!(s.layout(Key(1)).unwrap(), before);
        s.rollback(log);
        assert_eq!(s.layout(Key(1)).unwrap(), before);
    }

    #[test]
    fn rollback_removes_created_version() {
        let mut s = store();
        let mut log = UndoLog::default();
        s.update(Key(1), v(1), UpdateOp::Add(10), t(1), Some(&mut log))
            .unwrap();
        assert_eq!(s.layout(Key(1)).unwrap().len(), 2);
        s.rollback(log);
        let layout = s.layout(Key(1)).unwrap();
        assert_eq!(layout.len(), 1);
        assert_eq!(layout[0], (v(0), Value::Counter(100)));
    }

    #[test]
    fn gc_sweeps_everything() {
        let mut s = store();
        s.update(Key(1), v(1), UpdateOp::Add(1), t(1), None)
            .unwrap();
        // Key(2) untouched in v1 -> will be renamed.
        s.gc(v(1));
        let st = s.stats();
        assert_eq!(st.gc_runs, 1);
        assert_eq!(st.gc_dropped, 1); // Key(1)'s version 0
        assert_eq!(st.gc_renamed, 1); // Key(2) renamed 0 -> 1
        assert_eq!(s.current_max_versions(), 1);
        assert_eq!(s.read_visible(Key(2), v(1)).unwrap().0, v(1));
    }

    #[test]
    fn gc_visits_the_written_keys_whatever_the_store_size() {
        for n in [1_000u64, 100_000] {
            let mut s = Store::empty(NodeId(0));
            for k in 0..n {
                s.insert_initial(Key(k), Value::Counter(0));
            }
            for k in 0..10 {
                s.update(Key(k * 97), v(1), UpdateOp::Add(1), t(k), None)
                    .unwrap();
            }
            s.gc(v(1));
            let st = s.stats();
            assert_eq!(st.gc_visited, 10, "{n} keys");
            assert_eq!((st.gc_renamed, st.gc_dropped), (n - 10, 10));
            assert_eq!(s.current_max_versions(), 1);
        }
    }

    #[test]
    fn recovered_chain_above_the_floor_is_not_renamed() {
        // Recovered lone versions above the floor (v0) are unsettled:
        // raising the floor to v2 renames Key(1) but must not count Key(2).
        let mut s = Store::from_parts(
            NodeId(0),
            vec![
                (Key(1), vec![(v(1), Value::Counter(1))]),
                (Key(2), vec![(v(3), Value::Counter(3))]),
            ],
        );
        s.gc(v(2));
        assert_eq!((s.stats().gc_renamed, s.stats().gc_visited), (1, 2));
        assert_eq!(s.layout(Key(1)).unwrap()[0].0, v(2));
        assert_eq!(s.layout(Key(2)).unwrap()[0].0, v(3));
    }

    #[test]
    fn exists_above_for_nc_abort_rule() {
        let mut s = store();
        assert!(!s.exists_above(Key(1), v(0)).unwrap());
        s.update(Key(1), v(2), UpdateOp::Add(1), t(1), None)
            .unwrap();
        assert!(s.exists_above(Key(1), v(1)).unwrap());
        assert!(!s.exists_above(Key(1), v(2)).unwrap());
    }

    #[test]
    fn journal_reads_clone_snapshot() {
        let mut s = store();
        s.update(
            Key(2),
            v(1),
            UpdateOp::Append { amount: 5, tag: 1 },
            t(1),
            None,
        )
        .unwrap();
        let (_, snap) = s.read_visible(Key(2), v(1)).unwrap();
        // Later writes must not affect the returned snapshot.
        s.update(
            Key(2),
            v(1),
            UpdateOp::Append { amount: 6, tag: 1 },
            t(2),
            None,
        )
        .unwrap();
        assert_eq!(snap.as_journal().unwrap().len(), 1);
    }

    #[test]
    fn error_display() {
        let e = StoreError::NoVisibleVersion {
            key: Key(4),
            version: v(2),
            window: None,
        };
        assert!(e.to_string().contains("k4"));
        assert!(e.to_string().contains("v2"));
        assert!(!e.to_string().contains("window"));
        let e = e.with_window(v(3), v(4));
        assert!(e.to_string().contains("vr=v3"));
        assert!(e.to_string().contains("vu=v4"));
    }

    #[test]
    fn with_window_leaves_other_variants_alone() {
        let e = StoreError::UnknownKey { key: Key(1) };
        assert_eq!(e.clone().with_window(v(0), v(1)), e);
    }
}
