//! Property-based verification of the versioned record against a naive
//! reference model: a full map `version -> value` with the same rules.
//! Random protocol-shaped operation sequences (reads, updates at drifting
//! versions, GCs at the trailing read version) must agree between the
//! compact ≤3-version chain and the reference at every step. At the store
//! level, the read-floor store must agree with a store that sweeps every
//! record at each GC.

use std::collections::BTreeMap;

use proptest::prelude::*;
use threev_model::{Key, NodeId, TxnId, UpdateOp, Value, VersionNo};
use threev_storage::{GcAction, Store, StoreError, StoreStats, UndoLog, VersionedRecord};

fn tid(seq: u64) -> TxnId {
    TxnId::new(seq, NodeId(0))
}

/// Reference implementation: unbounded version map with the same rules.
#[derive(Clone, Debug)]
struct RefRecord {
    versions: BTreeMap<u32, Value>,
}

impl RefRecord {
    fn new(init: Value) -> Self {
        let mut versions = BTreeMap::new();
        versions.insert(0, init);
        RefRecord { versions }
    }

    fn read_visible(&self, v: u32) -> Option<(u32, &Value)> {
        self.versions
            .range(..=v)
            .next_back()
            .map(|(w, val)| (*w, val))
    }

    fn update(&mut self, v: u32, op: UpdateOp, txn: TxnId) {
        if !self.versions.contains_key(&v) {
            let base = self
                .read_visible(v)
                .map(|(_, val)| val.clone())
                .expect("visible base");
            self.versions.insert(v, base);
        }
        for (_, val) in self.versions.range_mut(v..) {
            op.apply(val, txn).unwrap();
        }
    }

    fn gc(&mut self, vr_new: u32) {
        if self.versions.contains_key(&vr_new) {
            self.versions.retain(|w, _| *w >= vr_new);
        } else if let Some((&w, _)) = self.versions.range(..vr_new).next_back() {
            let val = self.versions.remove(&w).unwrap();
            self.versions.retain(|x, _| *x >= vr_new);
            self.versions.insert(vr_new, val);
        }
    }
}

/// One protocol-shaped step: the version window drifts forward like real
/// advancement does (update version = gc floor + 1 or + 2).
#[derive(Clone, Debug)]
enum Step {
    /// Update at `gc_floor + offset` (offset 1 = current, 2 = mid-advance,
    /// 0 = straggler at the read version boundary... clamped below).
    Update {
        offset: u32,
        delta: i64,
    },
    Read {
        offset: u32,
    },
    Advance,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (1u32..=2, -100i64..100).prop_map(|(offset, delta)| Step::Update { offset, delta }),
        3 => (0u32..=2).prop_map(|offset| Step::Read { offset }),
        1 => Just(Step::Advance),
    ]
}

proptest! {
    #[test]
    fn chain_matches_reference_model(steps in proptest::collection::vec(step(), 1..120)) {
        let mut real = VersionedRecord::initial(Value::Counter(0));
        let mut reference = RefRecord::new(Value::Counter(0));
        let mut floor = 0u32; // current read version (gc floor)
        let mut seq = 0u64;

        for s in steps {
            match s {
                Step::Update { offset, delta } => {
                    let v = VersionNo(floor + offset);
                    seq += 1;
                    real.update(Key(1), v, UpdateOp::Add(delta), tid(seq)).unwrap();
                    reference.update(floor + offset, UpdateOp::Add(delta), tid(seq));
                }
                Step::Read { offset } => {
                    let v = floor + offset;
                    let got = real.read_visible(VersionNo(v)).map(|(w, val)| (w.0, val.clone()));
                    let want = reference.read_visible(v).map(|(w, val)| (w, val.clone()));
                    prop_assert_eq!(got, want);
                }
                Step::Advance => {
                    // Like the protocol: everything below the new read
                    // version is collected once it drains.
                    floor += 1;
                    real.gc(VersionNo(floor));
                    reference.gc(floor);
                }
            }
            // Invariants the protocol relies on:
            prop_assert!(real.version_count() <= 3, "chain grew past 3");
            prop_assert_eq!(real.version_count(), reference.versions.len());
            let chain: Vec<u32> = real.floored(VersionNo(0)).map(|(v, _)| v.0).collect();
            let reference_keys: Vec<u32> = reference.versions.keys().copied().collect();
            prop_assert_eq!(chain.clone(), reference_keys);
            prop_assert!(chain.windows(2).all(|w| w[0] < w[1]), "sorted strictly");
            // Every live version's value agrees.
            for w in chain {
                prop_assert_eq!(
                    real.value_at(VersionNo(w)),
                    reference.versions.get(&w),
                    "value at v{} diverged", w
                );
            }
        }
    }

    /// GC is idempotent and monotone: collecting twice at the same target,
    /// or at successive targets, never resurrects or corrupts data.
    #[test]
    fn gc_idempotent(updates in proptest::collection::vec((1u32..=2, -50i64..50), 0..20)) {
        let mut r = VersionedRecord::initial(Value::Counter(7));
        for (i, (offset, delta)) in updates.iter().enumerate() {
            r.update(Key(1), VersionNo(*offset), UpdateOp::Add(*delta), tid(i as u64)).unwrap();
        }
        let mut once = r.clone();
        once.gc(VersionNo(1));
        let mut twice = once.clone();
        twice.gc(VersionNo(1));
        prop_assert_eq!(&once, &twice);
        // Monotone follow-up.
        let mut ahead = once.clone();
        ahead.gc(VersionNo(2));
        prop_assert!(ahead.version_count() <= once.version_count());
        prop_assert!(ahead.floored(VersionNo(0)).all(|(v, _)| v >= VersionNo(2)));
    }
}

/// Reference for the store level: the store as it was before the read
/// floor — every chain rewritten in place, and GC sweeping every record
/// with [`VersionedRecord::gc`].
#[derive(Clone, Debug, Default)]
struct SweepStore {
    records: BTreeMap<Key, VersionedRecord>,
    stats: StoreStats,
}

impl SweepStore {
    fn record(&self, key: Key) -> Result<&VersionedRecord, StoreError> {
        self.records.get(&key).ok_or(StoreError::UnknownKey { key })
    }

    fn read_visible(&mut self, key: Key, v: VersionNo) -> Result<(VersionNo, Value), StoreError> {
        let (w, val) = self
            .record(key)?
            .read_visible(v)
            .map(|(w, val)| (w, val.clone()))
            .ok_or(StoreError::NoVisibleVersion {
                key,
                version: v,
                window: None,
            })?;
        self.stats.reads += 1;
        Ok((w, val))
    }

    fn exists_above(&self, key: Key, v: VersionNo) -> Result<bool, StoreError> {
        Ok(self.record(key)?.max_version() > v)
    }

    fn update(
        &mut self,
        key: Key,
        v: VersionNo,
        op: UpdateOp,
        txn: TxnId,
    ) -> Result<(), StoreError> {
        let rec = self
            .records
            .get_mut(&key)
            .ok_or(StoreError::UnknownKey { key })?;
        let out = rec.update(key, v, op, txn)?;
        self.stats.updates += 1;
        self.stats.copies_created += u64::from(out.created_version);
        self.stats.dual_writes += u64::from(out.versions_written >= 2);
        self.stats.max_versions_of_any_item = self
            .stats
            .max_versions_of_any_item
            .max(rec.version_count() as u32);
        Ok(())
    }

    fn restore_version(&mut self, key: Key, v: VersionNo, prior: Option<Value>) {
        let Some(rec) = self.records.get_mut(&key) else {
            return;
        };
        let mut versions: Vec<(VersionNo, Value)> = rec
            .floored(VersionNo(0))
            .filter(|(w, _)| *w != v)
            .map(|(w, val)| (w, val.clone()))
            .collect();
        if let Some(val) = prior {
            versions.push((v, val));
            versions.sort_by_key(|(w, _)| *w);
        }
        *rec = VersionedRecord::from_versions(versions);
    }

    fn gc(&mut self, vr_new: VersionNo) {
        self.stats.gc_runs += 1;
        for rec in self.records.values_mut() {
            match rec.gc(vr_new) {
                GcAction::DroppedOld { dropped } => self.stats.gc_dropped += u64::from(dropped),
                GcAction::Renamed { dropped, .. } => {
                    self.stats.gc_renamed += 1;
                    self.stats.gc_dropped += u64::from(dropped);
                }
                GcAction::None => {}
            }
        }
    }

    fn layout(&self, key: Key) -> Option<Vec<(VersionNo, Value)>> {
        let rec = self.records.get(&key)?;
        Some(
            rec.floored(VersionNo(0))
                .map(|(w, val)| (w, val.clone()))
                .collect(),
        )
    }
}

/// Keys `0..KEYS` are stored (key `JOURNAL` holds a journal, the rest
/// counters); key `KEYS` is unknown to both stores.
const KEYS: u64 = 6;
const JOURNAL: u64 = 5;

/// One protocol-shaped store step, versions relative to the GC floor.
#[derive(Clone, Debug)]
enum StoreStep {
    /// Update at floor + 1 or floor + 2.
    Update { key: u64, offset: u32, op: UpdateOp },
    /// The same, under an undo log that is then rolled back.
    UndoneUpdate { key: u64, offset: u32, op: UpdateOp },
    /// WAL-replay form of one rollback entry.
    Restore {
        key: u64,
        offset: u32,
        prior: Option<i64>,
    },
    /// Phase 4 at floor + 1, or a replayed GC at the current floor.
    Gc { advance: bool },
}

fn store_op() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        (-50i64..50).prop_map(UpdateOp::Add),
        (-50i64..50).prop_map(|amount| UpdateOp::Append { amount, tag: 0 }),
    ]
}

fn store_step() -> impl Strategy<Value = StoreStep> {
    prop_oneof![
        6 => (0..=KEYS, 1u32..=2, store_op())
            .prop_map(|(key, offset, op)| StoreStep::Update { key, offset, op }),
        2 => (0..=KEYS, 1u32..=2, store_op())
            .prop_map(|(key, offset, op)| StoreStep::UndoneUpdate { key, offset, op }),
        1 => (0..=KEYS, 0u32..=2, any::<bool>(), -50i64..50)
            .prop_map(|(key, offset, keep, x)| StoreStep::Restore {
                key,
                // Removing a version only ever undoes a copy-on-update.
                offset: if keep { offset } else { 2 },
                prior: keep.then_some(x),
            }),
        2 => any::<bool>().prop_map(|advance| StoreStep::Gc { advance }),
    ]
}

proptest! {
    /// The floored store, whose GC visits only the grown set, is
    /// indistinguishable from the sweep-every-record reference through
    /// every public view and every statistic but `gc_visited`.
    #[test]
    fn store_matches_sweep_reference(steps in proptest::collection::vec(store_step(), 1..150)) {
        let mut real = Store::empty(NodeId(0));
        let mut reference = SweepStore::default();
        for k in 0..KEYS {
            let init = if k == JOURNAL { Value::Journal(Vec::new()) } else { Value::Counter(k as i64) };
            real.insert_initial(Key(k), init.clone());
            reference.records.insert(Key(k), VersionedRecord::initial(init));
        }
        reference.stats.max_versions_of_any_item = 1;
        let mut floor = 0u32;
        let mut seq = 0u64;

        for s in steps {
            seq += 1;
            match s {
                StoreStep::Update { key, offset, op } => {
                    let v = VersionNo(floor + offset);
                    let got = real.update(Key(key), v, op, tid(seq), None).map(|_| ());
                    prop_assert_eq!(got, reference.update(Key(key), v, op, tid(seq)));
                }
                StoreStep::UndoneUpdate { key, offset, op } => {
                    let v = VersionNo(floor + offset);
                    let before = reference.clone();
                    let mut log = UndoLog::default();
                    let got = real.update(Key(key), v, op, tid(seq), Some(&mut log)).map(|_| ());
                    prop_assert_eq!(got, reference.update(Key(key), v, op, tid(seq)));
                    real.rollback(log);
                    reference.records = before.records;
                }
                StoreStep::Restore { key, offset, prior } => {
                    let v = VersionNo(floor + offset);
                    let prior = prior.map(|x| {
                        if key == JOURNAL { Value::Journal(Vec::new()) } else { Value::Counter(x) }
                    });
                    real.restore_version(Key(key), v, prior.clone());
                    reference.restore_version(Key(key), v, prior);
                }
                StoreStep::Gc { advance } => {
                    floor += u32::from(advance);
                    real.gc(VersionNo(floor));
                    reference.gc(VersionNo(floor));
                }
            }
            for k in 0..=KEYS {
                let key = Key(k);
                prop_assert_eq!(real.layout(key), reference.layout(key), "layout of {:?}", key);
                for v in floor.saturating_sub(1)..=floor + 2 {
                    let v = VersionNo(v);
                    prop_assert_eq!(real.read_visible(key, v), reference.read_visible(key, v));
                    prop_assert_eq!(real.exists_above(key, v), reference.exists_above(key, v));
                }
            }
            let expected = StoreStats { gc_visited: real.stats().gc_visited, ..reference.stats.clone() };
            prop_assert_eq!(real.stats(), &expected);
        }
        let parts: Vec<_> = reference.records.keys().map(|k| (*k, reference.layout(*k).unwrap())).collect();
        prop_assert_eq!(real.export_parts(), parts);
    }
}
