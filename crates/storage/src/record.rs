//! Bounded version chains.
//!
//! A [`VersionedRecord`] holds the live versions of one data item, ordered
//! by version number. The paper's central space claim (§4.4 property 1/2a)
//! is that at most **three** versions of any item exist, and only two while
//! no advancement is running; the chain asserts that bound in debug builds
//! and exposes a high-water mark for experiment X4.

use threev_model::{Key, TxnId, UpdateOp, Value, VersionNo};

use crate::store::StoreError;

/// Maximum number of simultaneously live versions (the paper's "3V" bound).
pub const MAX_VERSIONS: usize = 3;

/// Result of applying one update to a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// A new version was materialised by copy-on-update.
    pub created_version: bool,
    /// Number of versions the operation was applied to. A value `>= 2` is a
    /// *dual write* — the straggler case of §2.3, counted by experiment X7.
    pub versions_written: u8,
}

/// What garbage collection did to a record (§4.3 Phase 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcAction {
    /// `x(vr_new)` existed: all earlier versions were dropped.
    DroppedOld {
        /// How many versions were discarded.
        dropped: u8,
    },
    /// `x(vr_new)` did not exist: the latest earlier version was renamed to
    /// `vr_new` (and any versions before *it* dropped).
    Renamed {
        /// The version that was renamed.
        from: VersionNo,
        /// How many versions were discarded.
        dropped: u8,
    },
    /// Nothing to do (record already had a single version `>= vr_new`).
    None,
}

/// The live versions of one data item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedRecord {
    /// `(version, value)` pairs, strictly ascending by version. Tiny by
    /// construction (≤ 3 entries), so a `Vec` beats any tree.
    versions: Vec<(VersionNo, Value)>,
}

impl VersionedRecord {
    /// New record whose initial value carries version 0 (paper §4:
    /// "Initially, all records exist in a single version 0").
    pub fn initial(value: Value) -> Self {
        VersionedRecord {
            versions: vec![(VersionNo::ZERO, value)],
        }
    }

    /// Rebuild a record from an explicit version layout (checkpoint
    /// recovery). `versions` must be non-empty, strictly ascending, and
    /// within the 3V bound — exactly what [`crate::store::Store::layout`]
    /// produces.
    pub fn from_versions(versions: Vec<(VersionNo, Value)>) -> Self {
        assert!(!versions.is_empty(), "record must have >= 1 version");
        assert!(
            versions.windows(2).all(|w| w[0].0 < w[1].0),
            "versions must be strictly ascending"
        );
        assert!(versions.len() <= MAX_VERSIONS, "3V bound violated");
        VersionedRecord { versions }
    }

    /// Number of live versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// The `(version, value)` pairs, ascending, under a store read floor:
    /// the lowest label reads as `max(label, floor)`, the rename a GC at
    /// `floor` would make (see [`crate::store::Store::gc`]). Floor 0 gives
    /// the chain as stored.
    pub fn floored(
        &self,
        floor: VersionNo,
    ) -> impl DoubleEndedIterator<Item = (VersionNo, &Value)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .map(move |(i, (w, val))| (if i == 0 { (*w).max(floor) } else { *w }, val))
    }

    /// Largest live version number.
    pub fn max_version(&self) -> VersionNo {
        // Structural invariant: every constructor materialises at least one
        // version, and GC never drops the last one — an empty record is
        // unrepresentable. Degrading to version 0 beats a reachable panic.
        self.versions
            .last()
            .map(|(v, _)| *v)
            .unwrap_or(VersionNo(0))
    }

    /// Does version `v` exist?
    pub fn exists(&self, v: VersionNo) -> bool {
        self.versions.iter().any(|(w, _)| *w == v)
    }

    /// Value stored under exactly version `v`, if present.
    pub fn value_at(&self, v: VersionNo) -> Option<&Value> {
        let mut chain = self.floored(VersionNo::ZERO);
        chain.find(|(w, _)| *w == v).map(|(_, val)| val)
    }

    /// Read rule (§4.1 step 3): the maximum existing version of the item
    /// that does not exceed `v`.
    pub fn read_visible(&self, v: VersionNo) -> Option<(VersionNo, &Value)> {
        self.floored(VersionNo::ZERO).rev().find(|(w, _)| *w <= v)
    }

    /// Update rule (§4.1 step 4), for transaction `txn` at version `v` on
    /// item `key` (used only for error reporting):
    ///
    /// 1. if `x(v)` does not exist, create it by copying the maximum
    ///    existing version ≤ `v` (checking + creating is one atomic step —
    ///    trivially so here, since the node owns the record exclusively
    ///    while executing a subtransaction step);
    /// 2. apply the operation to **all** versions ≥ `v`.
    pub fn update(
        &mut self,
        key: Key,
        v: VersionNo,
        op: UpdateOp,
        txn: TxnId,
    ) -> Result<UpdateOutcome, StoreError> {
        let created_version = self.copy_on_update(key, v)?;
        debug_assert!(
            !created_version || self.versions.len() <= MAX_VERSIONS,
            "3V bound violated for {key}: {:?}",
            self.versions.iter().map(|(w, _)| *w).collect::<Vec<_>>()
        );
        let mut versions_written = 0u8;
        for (w, val) in self.versions.iter_mut() {
            if *w >= v {
                op.apply(val, txn)
                    .map_err(|source| StoreError::Apply { key, source })?;
                versions_written += 1;
            }
        }
        Ok(UpdateOutcome {
            created_version,
            versions_written,
        })
    }

    /// Copy-on-update (§2.1): if `x(v)` does not exist, create it from the
    /// maximum existing version ≤ `v`. Returns whether it created `x(v)`.
    fn copy_on_update(&mut self, key: Key, v: VersionNo) -> Result<bool, StoreError> {
        if self.exists(v) {
            return Ok(false);
        }
        let (_, base) = self.read_visible(v).ok_or(StoreError::NoVisibleVersion {
            key,
            version: v,
            window: None,
        })?;
        let copy = base.clone();
        let pos = self.versions.partition_point(|(w, _)| *w < v);
        self.versions.insert(pos, (v, copy));
        Ok(true)
    }

    /// Update exactly version `v` (creating it by copy-on-update if
    /// needed), leaving newer versions untouched.
    ///
    /// This is *not* part of the 3V algorithm — it models the classic
    /// manual-versioning scheme (paper §1), whose late updates are lost
    /// from newer versions. The contrast with [`VersionedRecord::update`]
    /// is exactly the dual-write rule 3V adds.
    pub fn update_exact(
        &mut self,
        key: Key,
        v: VersionNo,
        op: UpdateOp,
        txn: TxnId,
    ) -> Result<UpdateOutcome, StoreError> {
        let created_version = self.copy_on_update(key, v)?;
        let Some(slot) = self
            .versions
            .iter_mut()
            .find(|(w, _)| *w == v)
            .map(|(_, val)| val)
        else {
            // Ensured just above; failing here would be a defect in
            // `copy_on_update`, surfaced as an error instead of a panic.
            return Err(StoreError::NoVisibleVersion {
                key,
                version: v,
                window: None,
            });
        };
        op.apply(slot, txn)
            .map_err(|source| StoreError::Apply { key, source })?;
        Ok(UpdateOutcome {
            created_version,
            versions_written: 1,
        })
    }

    /// Restore version `v` to `value` (undo support). Creates the version
    /// entry if the undo needs to re-insert it; passing `None` removes the
    /// version (undoing a copy-on-update creation).
    pub(crate) fn restore(&mut self, v: VersionNo, value: Option<Value>) {
        match value {
            Some(val) => {
                if let Some(slot) = self
                    .versions
                    .iter_mut()
                    .find(|(w, _)| *w == v)
                    .map(|(_, x)| x)
                {
                    *slot = val;
                } else {
                    let pos = self.versions.partition_point(|(w, _)| *w < v);
                    self.versions.insert(pos, (v, val));
                }
            }
            None => self.versions.retain(|(w, _)| *w != v),
        }
    }

    /// Garbage collection rule (§4.3 Phase 4) for a new read version:
    /// if `x(vr_new)` exists, drop all earlier versions; otherwise rename
    /// the latest earlier version to `vr_new`.
    pub fn gc(&mut self, vr_new: VersionNo) -> GcAction {
        if self.exists(vr_new) {
            let before = self.versions.len();
            self.versions.retain(|(w, _)| *w >= vr_new);
            let dropped = (before - self.versions.len()) as u8;
            if dropped == 0 {
                GcAction::None
            } else {
                GcAction::DroppedOld { dropped }
            }
        } else {
            // Find the latest version < vr_new; rename it.
            let Some(idx) = self.versions.iter().rposition(|(w, _)| *w < vr_new) else {
                return GcAction::None; // all versions already >= vr_new
            };
            let from = self.versions[idx].0;
            self.versions[idx].0 = vr_new;
            // Drop everything before it.
            self.versions.drain(..idx);
            GcAction::Renamed {
                from,
                dropped: idx as u8,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::NodeId;

    fn t(seq: u64) -> TxnId {
        TxnId::new(seq, NodeId(0))
    }
    fn v(n: u32) -> VersionNo {
        VersionNo(n)
    }
    const K: Key = Key(1);

    #[test]
    fn initial_record_is_version_zero() {
        let r = VersionedRecord::initial(Value::Counter(5));
        assert_eq!(r.version_count(), 1);
        assert_eq!(r.max_version(), v(0));
        assert_eq!(r.read_visible(v(0)), Some((v(0), &Value::Counter(5))));
        assert_eq!(r.read_visible(v(9)), Some((v(0), &Value::Counter(5))));
    }

    #[test]
    fn copy_on_update_creates_lazily() {
        let mut r = VersionedRecord::initial(Value::Counter(10));
        let out = r.update(K, v(1), UpdateOp::Add(5), t(1)).unwrap();
        assert!(out.created_version);
        assert_eq!(out.versions_written, 1);
        assert_eq!(r.version_count(), 2);
        // version 0 untouched, version 1 updated
        assert_eq!(r.value_at(v(0)), Some(&Value::Counter(10)));
        assert_eq!(r.value_at(v(1)), Some(&Value::Counter(15)));
        // reads below 1 still see version 0
        assert_eq!(r.read_visible(v(0)).unwrap().0, v(0));
        assert_eq!(r.read_visible(v(1)).unwrap().0, v(1));
    }

    #[test]
    fn second_update_does_not_copy() {
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update(K, v(1), UpdateOp::Add(1), t(1)).unwrap();
        let out = r.update(K, v(1), UpdateOp::Add(1), t(2)).unwrap();
        assert!(!out.created_version);
        assert_eq!(r.value_at(v(1)), Some(&Value::Counter(2)));
    }

    #[test]
    fn straggler_updates_all_greater_versions() {
        // Paper §2.3: subtx iq arrives at a node already advanced to v2 and
        // must update versions 1 AND 2 of item D.
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update(K, v(1), UpdateOp::Add(10), t(1)).unwrap(); // creates v1
        r.update(K, v(2), UpdateOp::Add(100), t(2)).unwrap(); // creates v2 (copy of v1)
        assert_eq!(r.value_at(v(2)), Some(&Value::Counter(110)));
        // Straggler at version 1: must hit v1 and v2 (dual write).
        let out = r.update(K, v(1), UpdateOp::Add(1), t(3)).unwrap();
        assert!(!out.created_version);
        assert_eq!(out.versions_written, 2);
        assert_eq!(r.value_at(v(0)), Some(&Value::Counter(0)));
        assert_eq!(r.value_at(v(1)), Some(&Value::Counter(11)));
        assert_eq!(r.value_at(v(2)), Some(&Value::Counter(111)));
    }

    #[test]
    fn straggler_with_no_newer_copy_writes_once() {
        // Paper §2.3: item E has no version-2 copy at site q, so iq executes
        // only against version 1 — no dual-write overhead without contention.
        let mut r = VersionedRecord::initial(Value::Counter(0));
        let out = r.update(K, v(1), UpdateOp::Add(1), t(1)).unwrap();
        assert_eq!(out.versions_written, 1);
    }

    #[test]
    fn three_version_bound_holds() {
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update(K, v(1), UpdateOp::Add(1), t(1)).unwrap();
        r.update(K, v(2), UpdateOp::Add(1), t(2)).unwrap();
        assert_eq!(r.version_count(), 3);
        // GC to read version 1 drops version 0.
        assert_eq!(r.gc(v(1)), GcAction::DroppedOld { dropped: 1 });
        assert_eq!(r.version_count(), 2);
        r.update(K, v(3), UpdateOp::Add(1), t(3)).unwrap();
        assert_eq!(r.version_count(), 3);
    }

    #[test]
    fn gc_renames_when_target_missing() {
        // Item never written in v1: GC to vr_new=1 renames v0 -> v1.
        let mut r = VersionedRecord::initial(Value::Counter(7));
        assert_eq!(
            r.gc(v(1)),
            GcAction::Renamed {
                from: v(0),
                dropped: 0
            }
        );
        assert_eq!(r.version_count(), 1);
        assert!(r.exists(v(1)));
        assert!(!r.exists(v(0)));
        assert_eq!(r.value_at(v(1)), Some(&Value::Counter(7)));
        // Idempotent-ish: second GC with same target does nothing.
        assert_eq!(r.gc(v(1)), GcAction::None);
    }

    #[test]
    fn gc_renames_and_drops_older() {
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update(K, v(1), UpdateOp::Add(1), t(1)).unwrap();
        // GC to version 2 (item never written in v2): v1 renamed to v2, v0 dropped.
        assert_eq!(
            r.gc(v(2)),
            GcAction::Renamed {
                from: v(1),
                dropped: 1
            }
        );
        assert_eq!(r.version_count(), 1);
        assert_eq!(r.value_at(v(2)), Some(&Value::Counter(1)));
    }

    #[test]
    fn reads_after_gc_rename_see_renamed() {
        let mut r = VersionedRecord::initial(Value::Counter(42));
        r.gc(v(1));
        // A version-1 or version-2 reader sees the renamed copy; a
        // version-0 reader cannot exist any more by protocol (Phase 4 waits
        // for them), and indeed sees nothing.
        assert_eq!(r.read_visible(v(2)).unwrap().1, &Value::Counter(42));
        assert!(r.read_visible(v(0)).is_none());
    }

    #[test]
    fn restore_round_trips() {
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update(K, v(1), UpdateOp::Add(5), t(1)).unwrap();
        r.restore(v(1), Some(Value::Counter(100)));
        assert_eq!(r.value_at(v(1)), Some(&Value::Counter(100)));
        r.restore(v(1), None);
        assert!(!r.exists(v(1)));
        assert_eq!(r.version_count(), 1);
    }

    #[test]
    fn journal_dual_write_keeps_versions_independent() {
        let mut r = VersionedRecord::initial(Value::Journal(vec![]));
        r.update(K, v(1), UpdateOp::Append { amount: 1, tag: 0 }, t(1))
            .unwrap();
        r.update(K, v(2), UpdateOp::Append { amount: 2, tag: 0 }, t(2))
            .unwrap();
        // v1 has entry from t1 only; v2 has both.
        assert_eq!(r.value_at(v(1)).unwrap().as_journal().unwrap().len(), 1);
        assert_eq!(r.value_at(v(2)).unwrap().as_journal().unwrap().len(), 2);
    }

    #[test]
    fn update_exact_loses_late_writes() {
        // The manual-versioning defect the paper motivates with: a late
        // January charge applied after February's copy exists never reaches
        // the February version.
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update_exact(K, v(1), UpdateOp::Add(10), t(1)).unwrap();
        r.update_exact(K, v(2), UpdateOp::Add(100), t(2)).unwrap(); // copies v1
        let out = r.update_exact(K, v(1), UpdateOp::Add(7), t(3)).unwrap(); // straggler
        assert_eq!(out.versions_written, 1);
        assert_eq!(r.value_at(v(1)), Some(&Value::Counter(17)));
        assert_eq!(r.value_at(v(2)), Some(&Value::Counter(110)), "charge lost");
    }

    #[test]
    fn version_numbers_sorted() {
        let mut r = VersionedRecord::initial(Value::Counter(0));
        r.update(K, v(2), UpdateOp::Add(1), t(1)).unwrap();
        r.update(K, v(1), UpdateOp::Add(1), t(2)).unwrap();
        let nums: Vec<VersionNo> = r.floored(v(0)).map(|(w, _)| w).collect();
        assert_eq!(nums, vec![v(0), v(1), v(2)]);
    }
}
