//! On-disk paged storage backend: ≤3-version chains held natively in
//! fixed-size pages.
//!
//! Layout (two files per node, under the node's store directory):
//!
//! ```text
//! pages.bin   ── array of 256-byte pages
//!   page := payload_len  u32 │ checksum(payload) u32 │ payload │ zero pad
//!   record payload (may span pages, in directory order):
//!     key u64 │ n_versions u32 │ (version u32, value)*     (wire codec)
//!
//! meta.bin    ── single checksum-framed frame (atomic tmp+rename publish)
//!   frame   := payload_len u32 │ checksum(payload) u32 │ payload
//!   payload := magic u32 │ format u8 │ lsn u64 │ vr_floor u32
//!            │ directory: len │ (key_delta varint, n_pages varint, page varint *)*
//!            │ free list: len │ page_delta varint *   (ascending)
//!            │ next_fresh u32
//! ```
//!
//! The meta frame is republished on *every* flush, so its directory is
//! delta-varint packed (keys ascending, each stored as the gap from its
//! predecessor; chain page ids absolute, in chain order): a few bytes per
//! key instead of 16, which keeps the per-checkpoint floor well below the
//! cost of serialising the records themselves.
//!
//! Writes are **shadow paged**: a flush encodes every dirty record into
//! freshly allocated pages, syncs `pages.bin`, publishes the new `meta.bin`
//! via the same atomic tmp+rename discipline as the durability
//! checkpoint, and only *then* returns the superseded pages to the
//! [`PageAllocator`]'s free list. A torn page write can therefore only ever
//! land in space the last published meta considers free — recovery opens
//! the old meta and never reads the torn bytes. The per-page checksum
//! (same FNV-1a framing as the WAL, [`crate::wire::checksum`]) catches the
//! remaining corruption modes fail-stop.
//!
//! The whole record set is mirrored in an in-memory `BTreeMap` cache, so
//! reads and the §4 update rules run at memory speed and stay
//! deterministic; the disk image is only read again at
//! [`PagedBackend::open`] (recovery).
//!
//! **GC renames are metadata, not data.** A §4.3 Phase-4 GC renames the
//! surviving version of every record whose chain predates the new read
//! version; rewriting those would dirty the whole store on every
//! advancement. Instead the store keeps a *read floor* — a chain's lowest
//! label reads as `max(label, floor)` — so renaming an untouched chain is
//! raising the floor (see [`crate::Store::gc`]). This backend persists only
//! the floor (`vr_floor` in the meta) and hands it back at open; pages keep
//! the chains as last written. Nor does GC dirty the chains it compacts
//! (those written since the last GC): the compaction is a deterministic
//! function of the chain and the floor, composable over rising floors, and
//! the store re-runs the same pass over every unsettled chain at open.
//! Only writes dirty a record.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use threev_model::{Key, VersionNo};

use crate::backend::StorageBackend;
use crate::record::VersionedRecord;
use crate::wire::{checksum, ByteReader, ByteWriter, WireError};

/// On-disk page size in bytes (header included).
pub const PAGE_SIZE: usize = 256;
/// Per-page header: payload length + payload checksum.
const PAGE_HEADER: usize = 8;
/// Payload capacity of one page.
const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;
/// `meta.bin` magic ("3VPG").
const META_MAGIC: u32 = 0x3356_5047;
/// `meta.bin` format version.
const META_FORMAT: u8 = 1;

/// Free-list page allocator: recycles the lowest-numbered free page first
/// (deterministic), growing the file only when the free list is empty.
///
/// Pages are identified by index (`offset = index * PAGE_SIZE`). The
/// allocator never shrinks the file; GC shrinking a chain simply returns
/// pages here for reuse.
#[derive(Clone, Debug, Default)]
pub struct PageAllocator {
    free: BTreeSet<u32>,
    next_fresh: u32,
}

impl PageAllocator {
    /// Rebuild an allocator from a recovered meta image.
    pub fn new(next_fresh: u32, free: impl IntoIterator<Item = u32>) -> Self {
        PageAllocator {
            free: free.into_iter().collect(),
            next_fresh,
        }
    }

    /// Allocate one page: the smallest free index, else a fresh one.
    pub fn alloc(&mut self) -> u32 {
        match self.free.iter().next().copied() {
            Some(p) => {
                self.free.remove(&p);
                p
            }
            None => {
                let p = self.next_fresh;
                self.next_fresh += 1;
                p
            }
        }
    }

    /// Return a previously allocated page to the free list.
    pub fn free(&mut self, page: u32) {
        assert!(
            page < self.next_fresh,
            "freeing never-allocated page {page}"
        );
        assert!(self.free.insert(page), "double free of page {page}");
    }

    /// One past the highest page ever allocated (the file's page count).
    pub fn high_water(&self) -> u32 {
        self.next_fresh
    }

    /// Currently free page indices, ascending.
    pub fn free_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.free.iter().copied()
    }

    /// Number of free pages.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

/// The on-disk paged backend. See the module docs for the file layout and
/// the shadow-paging flush protocol.
#[derive(Debug)]
pub struct PagedBackend {
    dir: PathBuf,
    pages: File,
    cache: BTreeMap<Key, VersionedRecord>,
    dirty: BTreeSet<Key>,
    directory: BTreeMap<Key, Vec<u32>>,
    alloc: PageAllocator,
    lsn: u64,
    /// The store's read floor, persisted in the meta (see the module docs).
    vr_floor: VersionNo,
}

fn corrupt(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("page store: {what}"))
}

/// Encode one record as a self-describing page payload.
fn encode_record(key: Key, rec: &VersionedRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.key(key);
    w.len(rec.version_count());
    for (v, val) in rec.floored(VersionNo::ZERO) {
        w.version(v);
        w.value(val);
    }
    w.into_bytes()
}

/// Decode a record payload written by [`encode_record`].
fn decode_record(payload: &[u8]) -> Result<(Key, VersionedRecord), WireError> {
    let mut r = ByteReader::new(payload);
    let key = r.key()?;
    let versions = r.chain()?;
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after record"));
    }
    Ok((key, VersionedRecord::from_versions(versions)))
}

struct Meta {
    lsn: u64,
    vr_floor: VersionNo,
    directory: BTreeMap<Key, Vec<u32>>,
    free: Vec<u32>,
    next_fresh: u32,
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(META_MAGIC);
    w.u8(META_FORMAT);
    w.u64(meta.lsn);
    w.version(meta.vr_floor);
    w.len(meta.directory.len());
    let mut prev_key = 0u64;
    for (key, pages) in &meta.directory {
        w.varint(key.0 - prev_key);
        prev_key = key.0;
        w.varint(pages.len() as u64);
        for &p in pages {
            w.varint(u64::from(p));
        }
    }
    // The free list is a set (the allocator re-sorts it on open), so it is
    // serialised ascending for delta packing.
    let mut free_sorted = meta.free.clone();
    free_sorted.sort_unstable();
    w.len(free_sorted.len());
    let mut prev_free = 0u64;
    for &p in &free_sorted {
        w.varint(u64::from(p) - prev_free);
        prev_free = u64::from(p);
    }
    w.u32(meta.next_fresh);
    let payload = w.into_bytes();
    let mut framed = ByteWriter::new();
    framed.len(payload.len());
    framed.u32(checksum(&payload));
    let mut bytes = framed.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, WireError> {
    let mut frame = ByteReader::new(bytes);
    let len = frame.read_len()?;
    let cks = frame.u32()?;
    // `read_len` counted the checksum as remaining input, so a frame cut
    // short by up to four bytes still passes it.
    let payload = bytes
        .get(8..8 + len)
        .ok_or(WireError("meta shorter than its frame"))?;
    if checksum(payload) != cks {
        return Err(WireError("meta checksum mismatch"));
    }
    let mut r = ByteReader::new(payload);
    if r.u32()? != META_MAGIC {
        return Err(WireError("bad meta magic"));
    }
    if r.u8()? != META_FORMAT {
        return Err(WireError("unknown meta format"));
    }
    let lsn = r.u64()?;
    let vr_floor = r.version()?;
    let n_keys = r.read_len()?;
    let mut directory = BTreeMap::new();
    let mut prev_key = 0u64;
    for _ in 0..n_keys {
        let key = prev_key
            .checked_add(r.varint()?)
            .ok_or(WireError("directory key delta overflows"))?;
        prev_key = key;
        let n_pages = r.varint()? as usize;
        if n_pages > r.remaining() {
            return Err(WireError("directory page list longer than meta"));
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(u32::try_from(r.varint()?).map_err(|_| WireError("page id exceeds u32"))?);
        }
        directory.insert(Key(key), pages);
    }
    let n_free = r.read_len()?;
    let mut free = Vec::with_capacity(n_free);
    let mut prev_free = 0u64;
    for _ in 0..n_free {
        let p = prev_free
            .checked_add(r.varint()?)
            .ok_or(WireError("free-list delta overflows"))?;
        prev_free = p;
        free.push(u32::try_from(p).map_err(|_| WireError("free page id exceeds u32"))?);
    }
    let next_fresh = r.u32()?;
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after meta"));
    }
    Ok(Meta {
        lsn,
        vr_floor,
        directory,
        free,
        next_fresh,
    })
}

impl PagedBackend {
    /// Open (or create) the paged store rooted at `dir`, loading every
    /// chain the last published meta references into the cache.
    ///
    /// # Errors
    /// I/O failures, and fail-stop `InvalidData` on any corruption the
    /// checksums or the allocator-accounting cross-checks catch. Bytes
    /// beyond what the published meta references — e.g. pages torn by a
    /// crash mid-flush — are never read and never an error.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut pages = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("pages.bin"))?;
        let meta = match fs::read(dir.join("meta.bin")) {
            Ok(bytes) => decode_meta(&bytes).map_err(corrupt)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Meta {
                lsn: 0,
                vr_floor: VersionNo(0),
                directory: BTreeMap::new(),
                free: Vec::new(),
                next_fresh: 0,
            },
            Err(e) => return Err(e),
        };
        // Every page must be accounted for exactly once (free xor in one
        // chain) and lie below the high-water mark — otherwise the
        // allocator would eventually hand out a live page.
        let mut seen = BTreeSet::new();
        for &p in meta.directory.values().flatten().chain(meta.free.iter()) {
            if p >= meta.next_fresh || !seen.insert(p) {
                return Err(corrupt(format!("page {p} double-booked or out of range")));
            }
        }
        let mut cache = BTreeMap::new();
        for (key, page_list) in &meta.directory {
            let payload = read_chain(&mut pages, page_list)?;
            let (k, rec) = decode_record(&payload).map_err(corrupt)?;
            if k != *key {
                return Err(corrupt(format!("directory says {key:?}, page says {k:?}")));
            }
            cache.insert(*key, rec);
        }
        Ok(PagedBackend {
            dir: dir.to_path_buf(),
            pages,
            cache,
            dirty: BTreeSet::new(),
            directory: meta.directory,
            alloc: PageAllocator::new(meta.next_fresh, meta.free),
            lsn: meta.lsn,
            vr_floor: meta.vr_floor,
        })
    }

    /// Directory root of this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records modified since the last flush.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The page allocator (observability for tests and benches).
    pub fn allocator(&self) -> &PageAllocator {
        &self.alloc
    }

    /// Shadow-paged flush of every dirty record; see the module docs.
    /// Returns the bytes written (pages + meta).
    fn flush_inner(&mut self, lsn: u64) -> io::Result<u64> {
        let mut bytes = 0u64;
        let mut pending_free: Vec<u32> = Vec::new();
        for key in std::mem::take(&mut self.dirty) {
            let Some(rec) = self.cache.get(&key) else {
                continue;
            };
            let payload = encode_record(key, rec);
            let n_pages = payload.len().div_ceil(PAGE_PAYLOAD);
            let page_list: Vec<u32> = (0..n_pages).map(|_| self.alloc.alloc()).collect();
            for (i, &page) in page_list.iter().enumerate() {
                let chunk = &payload[i * PAGE_PAYLOAD..payload.len().min((i + 1) * PAGE_PAYLOAD)];
                let mut buf = [0u8; PAGE_SIZE];
                buf[0..4].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                buf[4..8].copy_from_slice(&checksum(chunk).to_le_bytes());
                buf[PAGE_HEADER..PAGE_HEADER + chunk.len()].copy_from_slice(chunk);
                self.pages
                    .seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64))?;
                self.pages.write_all(&buf)?;
                bytes += PAGE_SIZE as u64;
            }
            if let Some(old) = self.directory.insert(key, page_list) {
                pending_free.extend(old);
            }
        }
        self.pages.sync_data()?;
        // Publish: the new meta's free list already includes the pages the
        // superseded chains occupied (they are free the instant the rename
        // lands), but the in-memory allocator only learns about them after
        // the rename — so an interrupted flush can never have handed old
        // chain pages out for reuse while an old meta still references them.
        let meta_bytes = encode_meta(&Meta {
            lsn,
            vr_floor: self.vr_floor,
            directory: self.directory.clone(),
            free: self
                .alloc
                .free_pages()
                .chain(pending_free.iter().copied())
                .collect(),
            next_fresh: self.alloc.high_water(),
        });
        let tmp = self.dir.join("meta.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&meta_bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, self.dir.join("meta.bin"))?;
        bytes += meta_bytes.len() as u64;
        for p in pending_free {
            self.alloc.free(p);
        }
        self.lsn = lsn;
        Ok(bytes)
    }
}

/// Read and verify one record's page chain, concatenating the payloads.
fn read_chain(pages: &mut File, page_list: &[u32]) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    for &page in page_list {
        let mut buf = [0u8; PAGE_SIZE];
        pages.seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64))?;
        pages.read_exact(&mut buf)?;
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        let cks = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if len > PAGE_PAYLOAD {
            return Err(corrupt(format!("page {page} payload length {len}")));
        }
        let chunk = &buf[PAGE_HEADER..PAGE_HEADER + len];
        if checksum(chunk) != cks {
            return Err(corrupt(format!("page {page} checksum mismatch")));
        }
        payload.extend_from_slice(chunk);
    }
    Ok(payload)
}

impl StorageBackend for PagedBackend {
    fn get(&self, key: Key) -> Option<&VersionedRecord> {
        self.cache.get(&key)
    }

    fn get_mut(&mut self, key: Key, dirty: bool) -> Option<&mut VersionedRecord> {
        let rec = self.cache.get_mut(&key)?;
        if dirty {
            self.dirty.insert(key);
        }
        Some(rec)
    }

    fn insert(&mut self, key: Key, rec: VersionedRecord) {
        self.cache.insert(key, rec);
        self.dirty.insert(key);
    }

    fn len(&self) -> usize {
        self.cache.len()
    }

    fn iter(&self) -> btree_map::Iter<'_, Key, VersionedRecord> {
        self.cache.iter()
    }

    fn floor(&self) -> VersionNo {
        self.vr_floor
    }

    fn set_floor(&mut self, floor: VersionNo) {
        self.vr_floor = floor;
    }

    fn flush(&mut self, lsn: u64) -> u64 {
        // lint-allow(panic-hygiene): fail-stop — if the page files can no
        // longer be written the node must not keep acknowledging commits
        // against a durable image that stopped advancing.
        self.flush_inner(lsn)
            .unwrap_or_else(|e| panic!("paged store flush to {:?}: {e}", self.dir))
    }

    fn durable_lsn(&self) -> Option<u64> {
        Some(self.lsn)
    }

    fn persists_chains(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use threev_model::{NodeId, TxnId, UpdateOp, Value, VersionNo};

    fn tdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("threev-paged-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(n: i64) -> VersionedRecord {
        VersionedRecord::initial(Value::Counter(n))
    }

    #[test]
    fn flush_and_reopen_round_trips() {
        let dir = tdir("roundtrip");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(10));
        b.insert(Key(2), rec(20));
        b.get_mut(Key(1), true)
            .unwrap()
            .update(
                Key(1),
                VersionNo(1),
                UpdateOp::Add(5),
                TxnId::new(1, NodeId(0)),
            )
            .unwrap();
        assert_eq!(b.dirty_count(), 2);
        let bytes = b.flush(7);
        assert!(bytes > 0);
        assert_eq!(b.dirty_count(), 0);
        drop(b);

        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.durable_lsn(), Some(7));
        assert_eq!(b2.len(), 2);
        assert_eq!(
            b2.get(Key(1)).unwrap().value_at(VersionNo(1)),
            Some(&Value::Counter(15))
        );
        assert_eq!(
            b2.get(Key(2)).unwrap().value_at(VersionNo(0)),
            Some(&Value::Counter(20))
        );
    }

    #[test]
    fn unflushed_records_do_not_survive_reopen() {
        let dir = tdir("volatile-tail");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        b.insert(Key(2), rec(2));
        drop(b); // crash before flush

        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.len(), 1, "Key(2) was never flushed");
        assert_eq!(b2.durable_lsn(), Some(1));
    }

    #[test]
    fn big_journal_spans_pages_and_gc_reclaims_them() {
        let dir = tdir("overflow");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(5), VersionedRecord::initial(Value::Journal(Vec::new())));
        // ~40 journal entries at 22 bytes each: several pages.
        for i in 0..40 {
            b.get_mut(Key(5), true)
                .unwrap()
                .update(
                    Key(5),
                    VersionNo(1),
                    UpdateOp::Append { amount: i, tag: 0 },
                    TxnId::new(i as u64, NodeId(0)),
                )
                .unwrap();
        }
        b.flush(1);
        let big_pages = b.directory[&Key(5)].len();
        assert!(big_pages > 1, "journal should overflow one page");
        drop(b);

        let mut b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(
            b2.get(Key(5)).unwrap().value_at(VersionNo(1)).unwrap(),
            b2.cache[&Key(5)].value_at(VersionNo(1)).unwrap()
        );
        // Shrink the record sharply (GC to a renamed single version after
        // assigning a small value) and check pages return to the free list.
        *b2.cache.get_mut(&Key(5)).unwrap() =
            VersionedRecord::from_versions(vec![(VersionNo(2), Value::Counter(0))]);
        b2.dirty.insert(Key(5));
        b2.flush(2);
        assert_eq!(b2.directory[&Key(5)].len(), 1);
        assert!(
            b2.allocator().free_count() >= big_pages - 1,
            "superseded overflow pages must be reusable"
        );
        // And reuse actually happens: the next flush allocates from them.
        let high_water = b2.allocator().high_water();
        b2.insert(Key(6), rec(6));
        b2.flush(3);
        assert_eq!(b2.allocator().high_water(), high_water, "no fresh growth");
    }

    #[test]
    fn torn_tail_beyond_meta_is_ignored() {
        let dir = tdir("torn");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        drop(b);
        // A crash mid-flush leaves garbage past the published high water.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("pages.bin"))
            .unwrap();
        f.write_all(&[0xAB; PAGE_SIZE / 2]).unwrap();
        drop(f);

        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.len(), 1);
        assert_eq!(b2.durable_lsn(), Some(1));
    }

    #[test]
    fn corrupt_referenced_page_fails_stop() {
        let dir = tdir("corrupt");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        drop(b);
        let mut f = OpenOptions::new()
            .write(true)
            .open(dir.join("pages.bin"))
            .unwrap();
        f.seek(SeekFrom::Start(PAGE_HEADER as u64)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        assert!(PagedBackend::open(&dir).is_err());
    }

    /// A paged store holding a single-version chain (`Key(1)`, never
    /// written) and a chain written at v1 and v2, flushed at LSN 1 and then
    /// collected at v1: `Key(2)` keeps two versions across the GC.
    fn gc_scenario(dir: &Path) -> Store<PagedBackend> {
        let mut store = Store::on_backend(PagedBackend::open(dir).unwrap(), NodeId(0));
        store.insert_initial(Key(1), Value::Counter(10));
        store.insert_initial(Key(2), Value::Counter(20));
        for (seq, v) in [(1, 1), (2, 2)] {
            store
                .update(
                    Key(2),
                    VersionNo(v),
                    UpdateOp::Add(1),
                    TxnId::new(seq, NodeId(0)),
                    None,
                )
                .unwrap();
        }
        store.flush_dirty(1);
        store.gc(VersionNo(1));
        store
    }

    fn reopen(dir: &Path) -> Store<PagedBackend> {
        Store::on_backend(PagedBackend::open(dir).unwrap(), NodeId(0))
    }

    #[test]
    fn gc_then_flush_reopens_to_the_same_layouts() {
        let dir = tdir("gc-flush");
        let mut store = gc_scenario(&dir);
        let before = store.export_parts();
        assert_eq!(before[0].1, vec![(VersionNo(1), Value::Counter(10))]);
        assert_eq!(
            before[1].1.iter().map(|(v, _)| v.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // GC dirtied nothing: reopening re-derives it from the floor.
        assert_eq!(store.backend().dirty_count(), 0);
        store.flush_dirty(2);
        drop(store);

        let store = reopen(&dir);
        assert_eq!(store.backend().floor(), VersionNo(1));
        assert_eq!(store.export_parts(), before);
        assert_eq!(store.stats().max_versions_of_any_item, 2);
    }

    #[test]
    fn gc_lost_to_a_crash_is_replayed_to_the_same_layouts() {
        let reference = gc_scenario(&tdir("gc-no-crash"));
        let dir = tdir("gc-crash");
        drop(gc_scenario(&dir)); // crash: the GC after the last flush is lost
        let mut store = reopen(&dir);
        assert_eq!(store.backend().floor(), VersionNo(0));
        store.gc(VersionNo(1)); // WAL replay of the lost GC
        assert_eq!(store.export_parts(), reference.export_parts());
        assert_eq!(store.stats().gc_renamed, reference.stats().gc_renamed);
        assert_eq!(store.stats().gc_dropped, reference.stats().gc_dropped);
    }

    #[test]
    fn short_meta_fails_with_invalid_data() {
        let dir = tdir("short-meta");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        drop(b);
        let meta = fs::read(dir.join("meta.bin")).unwrap();
        for cut in 1..=4 {
            fs::write(dir.join("meta.bin"), &meta[..meta.len() - cut]).unwrap();
            let err = PagedBackend::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
        }
    }

    #[test]
    fn invalid_chain_layouts_fail_with_invalid_data() {
        let dir = tdir("bad-chain");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        let page = b.directory[&Key(1)][0];
        drop(b);
        for versions in [vec![], vec![2, 1], vec![1, 1], vec![0, 1, 2, 3]] {
            let mut w = ByteWriter::new();
            w.key(Key(1));
            w.len(versions.len());
            for v in &versions {
                w.version(VersionNo(*v));
                w.value(&Value::Counter(0));
            }
            let payload = w.into_bytes();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            buf[4..8].copy_from_slice(&checksum(&payload).to_le_bytes());
            buf[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(&payload);
            let mut f = OpenOptions::new()
                .write(true)
                .open(dir.join("pages.bin"))
                .unwrap();
            f.seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64))
                .unwrap();
            f.write_all(&buf).unwrap();
            drop(f);
            let err = PagedBackend::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{versions:?}");
        }
    }

    #[test]
    fn allocator_reuses_lowest_free_page_first() {
        let mut a = PageAllocator::default();
        assert_eq!((a.alloc(), a.alloc(), a.alloc()), (0, 1, 2));
        a.free(1);
        a.free(0);
        assert_eq!(a.alloc(), 0, "lowest free index first");
        assert_eq!(a.alloc(), 1);
        assert_eq!(a.alloc(), 3, "then fresh growth");
        assert_eq!(a.high_water(), 4);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn allocator_rejects_double_free() {
        let mut a = PageAllocator::default();
        let p = a.alloc();
        a.free(p);
        a.free(p);
    }
}
