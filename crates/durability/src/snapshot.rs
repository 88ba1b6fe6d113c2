//! Checkpoint snapshots.
//!
//! A snapshot is the whole durable state of one node at one LSN: the
//! ≤3-version chains, the R/C counter tables, the lock table, and the
//! `(vr, vu)` version window. Recovery loads the snapshot and replays
//! only the log records with a higher LSN.

use threev_model::{Key, NodeId, TxnId, Value, VersionNo};
use threev_storage::LockMode;

use crate::wire::{ByteReader, ByteWriter, WireError};

/// Format byte bumped on any incompatible layout change. Format 2 added
/// `external_store` (paged-backend checkpoints no longer inline the
/// chains).
const FORMAT: u8 = 2;

/// Counter rows of one version: `(requests_to, completions_from)`, each a
/// sorted `(node, count)` list — the serialisable form of the core
/// crate's counter table.
pub type CounterRow = (VersionNo, Vec<(NodeId, u64)>, Vec<(NodeId, u64)>);

/// Lock-table row of one key: holders `(txn, mode, re-entry count)` and
/// queued waiters `(txn, mode)` in queue order.
pub type LockRow = (Key, Vec<(TxnId, LockMode, u32)>, Vec<(TxnId, LockMode)>);

/// One node's durable state at one log position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The node this snapshot belongs to.
    pub node: NodeId,
    /// Log position folded into this snapshot; replay starts after it.
    pub lsn: u64,
    /// Update version variable.
    pub vu: VersionNo,
    /// Read version variable.
    pub vr: VersionNo,
    /// The ≤3-version chains live outside this snapshot, in the node's
    /// paged storage backend (whose own durable image carries an LSN).
    /// When set, [`Snapshot::store`] is empty and recovery replays store
    /// records against the reopened backend instead.
    pub external_store: bool,
    /// Version layout of every key, sorted by key (empty when
    /// [`Snapshot::external_store`] is set).
    pub store: Vec<(Key, Vec<(VersionNo, Value)>)>,
    /// R/C counter rows, sorted by version.
    pub counters: Vec<CounterRow>,
    /// Lock-table rows, sorted by key.
    pub locks: Vec<LockRow>,
}

impl Snapshot {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(FORMAT);
        w.node(self.node);
        w.u64(self.lsn);
        w.version(self.vu);
        w.version(self.vr);
        w.u8(u8::from(self.external_store));
        w.len(self.store.len());
        for (key, versions) in &self.store {
            w.key(*key);
            w.len(versions.len());
            for (v, val) in versions {
                w.version(*v);
                w.value(val);
            }
        }
        w.len(self.counters.len());
        for (v, reqs, comps) in &self.counters {
            w.version(*v);
            w.len(reqs.len());
            for (n, c) in reqs {
                w.node(*n);
                w.u64(*c);
            }
            w.len(comps.len());
            for (n, c) in comps {
                w.node(*n);
                w.u64(*c);
            }
        }
        w.len(self.locks.len());
        for (key, holders, waiters) in &self.locks {
            w.key(*key);
            w.len(holders.len());
            for (txn, mode, count) in holders {
                w.txn(*txn);
                w.lock_mode(*mode);
                w.u32(*count);
            }
            w.len(waiters.len());
            for (txn, mode) in waiters {
                w.txn(*txn);
                w.lock_mode(*mode);
            }
        }
        w.into_bytes()
    }

    /// Decode from bytes produced by [`Snapshot::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, WireError> {
        let mut r = ByteReader::new(bytes);
        if r.u8()? != FORMAT {
            return Err(WireError("unknown snapshot format"));
        }
        let node = r.node()?;
        let lsn = r.u64()?;
        let vu = r.version()?;
        let vr = r.version()?;
        let external_store = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError("bad external_store flag")),
        };
        let n_keys = r.read_len()?;
        let mut store = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let key = r.key()?;
            store.push((key, r.chain()?));
        }
        let n_counter_rows = r.read_len()?;
        let mut counters = Vec::with_capacity(n_counter_rows);
        for _ in 0..n_counter_rows {
            let v = r.version()?;
            let n_reqs = r.read_len()?;
            let mut reqs = Vec::with_capacity(n_reqs);
            for _ in 0..n_reqs {
                let n = r.node()?;
                let c = r.u64()?;
                reqs.push((n, c));
            }
            let n_comps = r.read_len()?;
            let mut comps = Vec::with_capacity(n_comps);
            for _ in 0..n_comps {
                let n = r.node()?;
                let c = r.u64()?;
                comps.push((n, c));
            }
            counters.push((v, reqs, comps));
        }
        let n_locks = r.read_len()?;
        let mut locks = Vec::with_capacity(n_locks);
        for _ in 0..n_locks {
            let key = r.key()?;
            let n_holders = r.read_len()?;
            let mut holders = Vec::with_capacity(n_holders);
            for _ in 0..n_holders {
                let txn = r.txn()?;
                let mode = r.lock_mode()?;
                let count = r.u32()?;
                holders.push((txn, mode, count));
            }
            let n_waiters = r.read_len()?;
            let mut waiters = Vec::with_capacity(n_waiters);
            for _ in 0..n_waiters {
                let txn = r.txn()?;
                let mode = r.lock_mode()?;
                waiters.push((txn, mode));
            }
            locks.push((key, holders, waiters));
        }
        if !r.is_exhausted() {
            return Err(WireError("trailing bytes after Snapshot"));
        }
        Ok(Snapshot {
            node,
            lsn,
            vu,
            vr,
            external_store,
            store,
            counters,
            locks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::JournalEntry;

    fn sample() -> Snapshot {
        Snapshot {
            node: NodeId(2),
            lsn: 41,
            vu: VersionNo(2),
            vr: VersionNo(1),
            external_store: false,
            store: vec![
                (
                    Key(1),
                    vec![
                        (VersionNo(1), Value::Counter(5)),
                        (VersionNo(2), Value::Counter(9)),
                    ],
                ),
                (
                    Key(11),
                    vec![(
                        VersionNo(1),
                        Value::Journal(vec![JournalEntry {
                            txn: TxnId::new(4, NodeId(0)),
                            amount: 3,
                            tag: 7,
                        }]),
                    )],
                ),
            ],
            counters: vec![(
                VersionNo(2),
                vec![(NodeId(0), 3), (NodeId(1), 1)],
                vec![(NodeId(0), 2)],
            )],
            locks: vec![(
                Key(1),
                vec![(TxnId::new(9, NodeId(1)), LockMode::Exclusive, 2)],
                vec![(TxnId::new(4, NodeId(0)), LockMode::Commute)],
            )],
        }
    }

    #[test]
    fn round_trip() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn empty_round_trip() {
        let snap = Snapshot {
            node: NodeId(0),
            lsn: 0,
            vu: VersionNo(1),
            vr: VersionNo(0),
            external_store: false,
            store: vec![],
            counters: vec![],
            locks: vec![],
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn external_store_round_trips() {
        let snap = Snapshot {
            external_store: true,
            store: vec![],
            ..sample()
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn bad_format_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = 0xFF;
        assert!(Snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn invalid_chain_layouts_rejected() {
        let chain = |versions: &[u32]| {
            versions
                .iter()
                .map(|v| (VersionNo(*v), Value::Counter(0)))
                .collect()
        };
        for versions in [&[][..], &[2, 1], &[1, 1], &[0, 1, 2, 3]] {
            let snap = Snapshot {
                store: vec![(Key(1), chain(versions))],
                ..sample()
            };
            assert!(
                Snapshot::decode(&snap.encode()).is_err(),
                "{versions:?} decoded"
            );
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
