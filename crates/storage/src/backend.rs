//! The pluggable storage seam: where a node's ≤3-version chains live.
//!
//! [`Store`](crate::Store) implements the paper's §4 rules (copy-on-update,
//! read-max-≤v, update-all-≥v, GC) against an abstract [`StorageBackend`]
//! holding the actual `Key → VersionedRecord` map:
//!
//! * [`MemBackend`] — a plain `BTreeMap`, the historical behaviour. Chains
//!   are volatile; durability (if any) is whole-store checkpoint
//!   serialisation through `threev-durability`.
//! * [`PagedBackend`](crate::paged::PagedBackend) — chains held natively in
//!   fixed-size on-disk pages with a free-list allocator; checkpoints
//!   become *incremental* (only dirty records are rewritten).
//!
//! [`AnyBackend`] erases the choice at runtime so the node engine carries a
//! single concrete store type, and [`BackendConfig`] is the small config
//! enum threaded through `NodeConfig`/`ShardedConfig` to select one.

use std::collections::{btree_map, BTreeMap};
use std::io;
use std::path::PathBuf;

use threev_model::{Key, NodeId, VersionNo};

use crate::paged::PagedBackend;
use crate::record::VersionedRecord;

/// Where a [`Store`](crate::Store) keeps its version chains.
///
/// The contract mirrors the handful of map operations the §4 rules need.
/// Backends with durable state additionally track a *dirty set* (every
/// record written through [`get_mut`](StorageBackend::get_mut) /
/// [`insert`](StorageBackend::insert)) and persist exactly that set, plus
/// the store's read floor, on [`flush`](StorageBackend::flush) — the
/// incremental-checkpoint seam. GC writes no record: the store applies the
/// floor, and re-derives its compactions at open (see
/// [`Store::gc`](crate::Store::gc)).
pub trait StorageBackend: Send + std::fmt::Debug {
    /// Read one record.
    fn get(&self, key: Key) -> Option<&VersionedRecord>;

    /// Mutable access to one record. With `dirty`, a durable backend
    /// rewrites it at the next flush; without, the change must be one that
    /// reopening re-derives (GC compaction, see [`Store::gc`](crate::Store::gc)).
    fn get_mut(&mut self, key: Key, dirty: bool) -> Option<&mut VersionedRecord>;

    /// Insert (or replace) a record, marking it dirty.
    fn insert(&mut self, key: Key, rec: VersionedRecord);

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Is the backend empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate all records in key order.
    fn iter(&self) -> btree_map::Iter<'_, Key, VersionedRecord>;

    /// The persisted read floor of the store (0 for volatile backends).
    fn floor(&self) -> VersionNo {
        VersionNo::ZERO
    }

    /// The store raised its read floor; persist it with the next flush.
    fn set_floor(&mut self, floor: VersionNo) {
        let _ = floor;
    }

    /// Persist every dirty record and stamp the durable image with `lsn`.
    /// Returns the number of bytes written to stable storage (0 for
    /// volatile backends).
    fn flush(&mut self, lsn: u64) -> u64 {
        let _ = lsn;
        0
    }

    /// LSN the durable chain image is current to, if the backend persists
    /// chains (`None` for volatile backends).
    fn durable_lsn(&self) -> Option<u64> {
        None
    }

    /// Does this backend hold the chains on stable storage? When `true`,
    /// checkpoints skip whole-store serialisation (the snapshot carries
    /// `external_store`) and recovery replays only WAL records beyond
    /// [`durable_lsn`](StorageBackend::durable_lsn).
    fn persists_chains(&self) -> bool {
        false
    }
}

/// The in-memory backend: the `BTreeMap` the store always used, extracted
/// behind the trait. Fully deterministic (key-ordered iteration, no I/O),
/// so it is what the DES kernel and model checker run on by default.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    records: BTreeMap<Key, VersionedRecord>,
}

impl StorageBackend for MemBackend {
    fn get(&self, key: Key) -> Option<&VersionedRecord> {
        self.records.get(&key)
    }

    fn get_mut(&mut self, key: Key, _dirty: bool) -> Option<&mut VersionedRecord> {
        self.records.get_mut(&key)
    }

    fn insert(&mut self, key: Key, rec: VersionedRecord) {
        self.records.insert(key, rec);
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn iter(&self) -> btree_map::Iter<'_, Key, VersionedRecord> {
        self.records.iter()
    }
}

/// Runtime-selected backend: lets the node engine hold one concrete
/// `Store<AnyBackend>` regardless of configuration, keeping the generics
/// out of every call site.
#[derive(Debug)]
pub enum AnyBackend {
    /// Volatile `BTreeMap` chains.
    Mem(MemBackend),
    /// On-disk paged chains (see [`crate::paged`]).
    Paged(PagedBackend),
}

impl StorageBackend for AnyBackend {
    fn get(&self, key: Key) -> Option<&VersionedRecord> {
        match self {
            AnyBackend::Mem(b) => b.get(key),
            AnyBackend::Paged(b) => b.get(key),
        }
    }

    fn get_mut(&mut self, key: Key, dirty: bool) -> Option<&mut VersionedRecord> {
        match self {
            AnyBackend::Mem(b) => b.get_mut(key, dirty),
            AnyBackend::Paged(b) => b.get_mut(key, dirty),
        }
    }

    fn insert(&mut self, key: Key, rec: VersionedRecord) {
        match self {
            AnyBackend::Mem(b) => b.insert(key, rec),
            AnyBackend::Paged(b) => b.insert(key, rec),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyBackend::Mem(b) => b.len(),
            AnyBackend::Paged(b) => b.len(),
        }
    }

    fn iter(&self) -> btree_map::Iter<'_, Key, VersionedRecord> {
        match self {
            AnyBackend::Mem(b) => b.iter(),
            AnyBackend::Paged(b) => b.iter(),
        }
    }

    fn floor(&self) -> VersionNo {
        match self {
            AnyBackend::Mem(b) => b.floor(),
            AnyBackend::Paged(b) => b.floor(),
        }
    }

    fn set_floor(&mut self, floor: VersionNo) {
        match self {
            AnyBackend::Mem(b) => b.set_floor(floor),
            AnyBackend::Paged(b) => b.set_floor(floor),
        }
    }

    fn flush(&mut self, lsn: u64) -> u64 {
        match self {
            AnyBackend::Mem(b) => b.flush(lsn),
            AnyBackend::Paged(b) => b.flush(lsn),
        }
    }

    fn durable_lsn(&self) -> Option<u64> {
        match self {
            AnyBackend::Mem(b) => b.durable_lsn(),
            AnyBackend::Paged(b) => b.durable_lsn(),
        }
    }

    fn persists_chains(&self) -> bool {
        match self {
            AnyBackend::Mem(b) => b.persists_chains(),
            AnyBackend::Paged(b) => b.persists_chains(),
        }
    }
}

/// Which [`StorageBackend`] a node opens — threaded through `NodeConfig`
/// and the cluster builders.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendConfig {
    /// Volatile in-memory chains (the default; bit-identical to the
    /// pre-trait store).
    #[default]
    Mem,
    /// On-disk paged chains rooted at `dir`; each node opens the
    /// subdirectory `store-node-<id>` so one `dir` serves a whole cluster.
    Paged {
        /// Cluster-level root directory for the page files.
        dir: PathBuf,
    },
}

impl BackendConfig {
    /// Open the configured backend for `node`.
    ///
    /// # Errors
    /// Propagates I/O and page-file corruption errors from
    /// [`PagedBackend::open`]; the `Mem` arm never fails.
    pub fn open(&self, node: NodeId) -> io::Result<AnyBackend> {
        match self {
            BackendConfig::Mem => Ok(AnyBackend::Mem(MemBackend::default())),
            BackendConfig::Paged { dir } => {
                let node_dir = dir.join(format!("store-node-{}", node.0));
                Ok(AnyBackend::Paged(PagedBackend::open(&node_dir)?))
            }
        }
    }

    /// A `Paged` config rooted at a fresh scratch directory under the
    /// system temp dir, namespaced by `tag`, the process id, and a
    /// counter, so repeated runs within one process never see each
    /// other's page files. The `THREEV_BACKEND` env dispatch lives in
    /// `threev::testutil::backend_from_env`, shared by the equivalence
    /// suites and the server binaries.
    pub fn paged_scratch(tag: &str) -> BackendConfig {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("threev-backend-{tag}-{}-{n}", std::process::id()));
        // Stale page files from a previous crashed run would be recovered
        // as live chains; start from nothing.
        let _ = std::fs::remove_dir_all(&dir);
        BackendConfig::Paged { dir }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::Value;

    #[test]
    fn mem_backend_round_trips_records() {
        let mut b = MemBackend::default();
        assert!(b.is_empty());
        b.insert(Key(1), VersionedRecord::initial(Value::Counter(5)));
        assert_eq!(b.len(), 1);
        assert_eq!(
            b.get(Key(1)).unwrap().value_at(threev_model::VersionNo(0)),
            Some(&Value::Counter(5))
        );
        assert!(b.get(Key(2)).is_none());
        assert_eq!(b.flush(7), 0, "volatile flush writes nothing");
        assert_eq!(b.durable_lsn(), None);
        assert!(!b.persists_chains());
    }

    #[test]
    fn any_backend_delegates() {
        let mut b = BackendConfig::Mem.open(NodeId(0)).unwrap();
        b.insert(Key(9), VersionedRecord::initial(Value::Counter(1)));
        assert_eq!(b.len(), 1);
        assert_eq!(b.iter().count(), 1);
        assert_eq!(b.floor(), VersionNo::ZERO);
        assert!(!b.persists_chains());
    }

    #[test]
    fn paged_scratch_dirs_are_unique() {
        let a = BackendConfig::paged_scratch("x");
        let b = BackendConfig::paged_scratch("x");
        assert_ne!(a, b, "each scratch config gets its own directory");
        assert!(matches!(a, BackendConfig::Paged { .. }));
    }
}
