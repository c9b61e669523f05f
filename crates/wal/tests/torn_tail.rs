//! Property-based torn-write recovery: the log may be cut or corrupted
//! at *any* byte, and recovery must stay total.
//!
//! Three obligations, matching the durability plane's contract:
//!
//! 1. **Never panics**: recovery over a truncated or bit-flipped log is
//!    a pure scan — no `unwrap` on untrusted bytes, no allocation sized
//!    from a corrupt length prefix (the codec already guarantees the
//!    latter; these properties exercise it through the WAL framing).
//! 2. **Valid prefix**: whatever survives is a *prefix* of what was
//!    appended — corruption can cost the tail, never reorder, duplicate,
//!    or invent records. Records wholly before the damage always
//!    survive: a committed (fsynced) transaction ahead of the corruption
//!    point is never lost.
//! 3. **Idempotence**: recovering twice — including re-tearing an
//!    already-recovered disk — yields the same state. A power loss
//!    *during* recovery is just another recovery.
//! 4. **Completion is the durability line**: a sync handed to the disk's
//!    syncer covers nothing until it completes. What is still in flight
//!    at a power cut tears like the unsynced tail; a record whose
//!    completion was reported never does.
//! 5. **Segments**: on the file backend the log is a chain of segment
//!    files. A power cut at any point of the chain's life — a record torn
//!    at the head of a fresh segment, an image renamed into place before
//!    the segments below it are unlinked, a spare segment half prepared,
//!    a syncer that outran its spare and prepared the next segment itself
//!    — leaves a directory from which a fresh [`Disk::open`] recovers the
//!    snapshot plus every acknowledged record above it, each exactly
//!    once, and on which the next incarnation's log goes on.

use proptest::prelude::*;
use shadowdb_eventml::Value;
use shadowdb_runtime::StorageMode;
use shadowdb_wal::{recover, settle_disks, Disk, Recovered, Wal, SEGMENT};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Distinguishable record bodies (index is carried separately by the
/// frame; the body must roundtrip byte-exactly).
fn body(i: i64) -> Value {
    Value::pair(
        Value::Int(i * 31 + 7),
        Value::str(&format!("txn-{i}-payload")),
    )
}

/// Hands off a snapshot of `blob` through `index`, installed ahead of the
/// unsynced tail, and waits until the disk reports it durable.
fn snapshot(wal: &mut Wal, index: i64, blob: &str) {
    let blob = Value::str(blob);
    let (tx, rx) = mpsc::channel();
    let image = move |buf: &mut _| shadowdb_eventml::codec::encode_value(&blob, buf);
    wal.hand_off_snapshot(index, image, move |_| tx.send(()).unwrap());
    rx.recv_timeout(Duration::from_secs(10)).expect("reported");
}

/// A disk with `n` committed records (indexes `0..n`), plus each
/// record's end offset in the log (frames are variable-size: varint
/// ints and growing strings).
fn committed_disk(n: usize) -> (Disk, Vec<usize>) {
    let disk = Disk::in_memory(Duration::ZERO);
    let mut wal = Wal::open(disk.clone());
    let mut ends = Vec::with_capacity(n);
    for i in 0..n {
        wal.append(i as i64, &body(i as i64));
        wal.commit();
        ends.push(disk.synced_len());
    }
    (disk, ends)
}

/// Asserts `rec` is a prefix of `0..n` with intact bodies.
fn assert_prefix(records: &[(i64, Value)], n: usize) -> Result<(), TestCaseError> {
    prop_assert!(records.len() <= n);
    for (k, (idx, val)) in records.iter().enumerate() {
        prop_assert_eq!(*idx, k as i64);
        prop_assert_eq!(val, &body(k as i64));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating the log at an arbitrary byte never panics and always
    /// yields a valid prefix; every record wholly before the cut
    /// survives.
    #[test]
    fn truncation_yields_a_valid_prefix(n in 0usize..40, cut_pm in 0u64..=1000) {
        let (disk, ends) = committed_disk(n);
        let full = disk.synced_len();
        let cut = (full * cut_pm as usize) / 1000;
        disk.truncate_synced(cut);
        let rec = recover(&disk);
        assert_prefix(&rec.records, n)?;
        if cut == full {
            // An uncut log loses nothing.
            prop_assert_eq!(rec.records.len(), n);
        }
        // Every frame that lies wholly inside the cut must survive.
        let intact = ends.iter().filter(|e| **e <= cut).count();
        prop_assert!(rec.records.len() >= intact);
    }

    /// Flipping an arbitrary bit never panics; recovery still yields a
    /// valid prefix, and every record wholly before the flipped byte
    /// survives.
    #[test]
    fn bit_flip_yields_a_valid_prefix(n in 1usize..40, bit_pm in 0u64..1000) {
        let (disk, ends) = committed_disk(n);
        let bits = disk.synced_len() * 8;
        let bit = (bits * bit_pm as usize / 1000).min(bits - 1);
        disk.flip_bit(bit);
        let rec = recover(&disk);
        assert_prefix(&rec.records, n)?;
        // Every record that ends before the damaged byte must survive.
        let intact = ends.iter().filter(|e| **e <= bit / 8).count();
        prop_assert!(
            rec.records.len() >= intact,
            "lost a record before the corruption point: kept {} of {}, {} intact",
            rec.records.len(), n, intact
        );
    }

    /// Recovery is idempotent: recovering an already-recovered disk —
    /// even through another power-loss tear — changes nothing.
    #[test]
    fn double_recovery_is_idempotent(
        n in 0usize..40,
        cut_pm in 0u64..=1000,
        seed in any::<u64>(),
    ) {
        let (disk, _ends) = committed_disk(n);
        disk.truncate_synced(disk.synced_len() * cut_pm as usize / 1000);
        let first = recover(&disk);
        // A second crash during/after recovery: everything is synced, so
        // the tear has nothing to bite and recovery must be stable.
        disk.begin_recovery(seed);
        let second = recover(&disk);
        prop_assert_eq!(first.records, second.records);
        prop_assert_eq!(first.snapshot, second.snapshot);
    }

    /// A power-loss tear of the unsynced tail never touches committed
    /// records: the commit point is the durability line.
    #[test]
    fn torn_unsynced_tail_never_loses_committed_records(
        committed in 0usize..25,
        uncommitted in 0usize..25,
        seed in any::<u64>(),
    ) {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..committed {
            wal.append(i as i64, &body(i as i64));
        }
        wal.commit();
        for i in committed..committed + uncommitted {
            wal.append(i as i64, &body(i as i64));
        }
        // Power loss mid-fsync: an arbitrary prefix of the unsynced tail
        // (possibly with a flipped bit) reaches the platter.
        disk.begin_recovery(seed);
        let rec = recover(&disk);
        prop_assert!(rec.records.len() >= committed, "lost a committed record");
        prop_assert!(rec.records.len() <= committed + uncommitted);
        assert_prefix(&rec.records, committed + uncommitted)?;
    }

    /// Snapshots compose with corruption: the snapshot is installed
    /// atomically, so recovery yields the snapshot plus a valid prefix
    /// of the post-snapshot records.
    #[test]
    fn snapshot_plus_torn_log_recovers_consistently(
        before in 1usize..20,
        after in 0usize..20,
        cut_pm in 0u64..=1000,
    ) {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..before {
            wal.append(i as i64, &body(i as i64));
        }
        wal.commit();
        let snap_at = (before - 1) as i64;
        snapshot(&mut wal, snap_at, "state-blob");
        for i in before..before + after {
            wal.append(i as i64, &body(i as i64));
        }
        wal.commit();
        disk.truncate_synced(disk.synced_len() * cut_pm as usize / 1000);
        let rec = recover(&disk);
        // The snapshot file is separate from the log; log corruption
        // cannot lose it.
        let (idx, blob) = rec.snapshot.clone().expect("snapshot survives log damage");
        prop_assert_eq!(idx, snap_at);
        prop_assert_eq!(blob, Value::str("state-blob"));
        // Post-snapshot records are a prefix of `before..before+after`.
        prop_assert!(rec.records.len() <= after);
        for (k, (i, v)) in rec.records.iter().enumerate() {
            let expect = (before + k) as i64;
            prop_assert_eq!(*i, expect);
            prop_assert_eq!(v, &body(expect));
        }
        prop_assert!(rec.high_index() >= snap_at);
    }

    /// A power cut with a sync in flight: the records whose completion
    /// was reported survive, those handed off since may tear (with the
    /// unsynced tail behind them), and the cut-off sync never reports.
    #[test]
    fn handed_off_records_may_tear_but_reported_ones_never_do(
        reported in 0usize..20,
        in_flight in 0usize..20,
        unsynced in 0usize..20,
        seed in any::<u64>(),
    ) {
        let (disk, late) = power_cut_mid_hand_off(reported, in_flight, unsynced, seed);
        prop_assert!(!late.load(Ordering::SeqCst), "a cut-off sync reported");
        prop_assert!(!disk.complete_next(), "the cut ended the sync in flight");
        let rec = recover(&disk);
        prop_assert!(rec.records.len() >= reported, "lost a reported record");
        assert_prefix(&rec.records, reported + in_flight + unsynced)?;
    }
}

/// A deferred disk with `reported` records synced and reported, the next
/// `in_flight` handed off without completing, `unsynced` more appended —
/// and then the power goes. Returns the disk and whether the in-flight
/// sync ever reported.
fn power_cut_mid_hand_off(
    reported: usize,
    in_flight: usize,
    unsynced: usize,
    seed: u64,
) -> (Disk, Arc<AtomicBool>) {
    let disk = Disk::in_memory_deferred(Duration::ZERO);
    let mut wal = Wal::open(disk.clone());
    let flag = || Arc::new(AtomicBool::new(false));
    let (first, late) = (flag(), flag());
    let mut n = 0;
    let mut append = |wal: &mut Wal, k: usize| {
        for _ in 0..k {
            wal.append(n, &body(n));
            n += 1;
        }
    };
    append(&mut wal, reported);
    let f = first.clone();
    wal.hand_off(move |_| f.store(true, Ordering::SeqCst));
    assert!(disk.complete_next() && first.load(Ordering::SeqCst));
    append(&mut wal, in_flight);
    let l = late.clone();
    wal.hand_off(move |_| l.store(true, Ordering::SeqCst));
    append(&mut wal, unsynced);
    disk.begin_recovery(seed);
    (disk, late)
}

/// The property above is not vacuous: over a few seeds, a cut both tears
/// into the in-flight records and keeps some of them.
#[test]
fn in_flight_records_tear_for_some_seeds_and_survive_for_others() {
    let kept: Vec<usize> = (0..64)
        .map(|seed| {
            recover(&power_cut_mid_hand_off(3, 6, 0, seed).0)
                .records
                .len()
        })
        .collect();
    assert!(kept.iter().all(|k| (3..=9).contains(k)));
    assert!(
        kept.iter().any(|k| *k < 9),
        "no seed tore an in-flight record"
    );
    assert!(
        kept.iter().any(|k| *k > 3),
        "no seed kept an in-flight record"
    );
}

/// A file-backed disk's storage root, removed again when dropped.
struct Files {
    root: PathBuf,
}

impl Files {
    fn new(label: &str) -> Files {
        Files {
            root: StorageMode::fresh_file_root(label),
        }
    }

    /// A fresh opening of the disk — what a rebooted process gets: the
    /// state comes from the files alone.
    fn open(&self) -> Disk {
        let mode = StorageMode::File {
            root: self.root.clone(),
        };
        Disk::open(&mode, "r", Duration::ZERO)
    }

    /// Waits for the disk's threads, then reads every file back.
    fn contents(&self) -> Vec<(PathBuf, Vec<u8>)> {
        settle_disks(&self.root);
        let mut files: Vec<PathBuf> = std::fs::read_dir(self.root.join("r"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect()
    }

    /// The segment file with id `id`.
    fn segment(&self, id: u64) -> PathBuf {
        self.root.join("r").join(format!("log-{id:08}.seg"))
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        settle_disks(&self.root);
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A record of about 40 KB: six fill a segment, and a seventh starts the
/// next one.
fn big(i: i64) -> Value {
    Value::pair(Value::Int(i), Value::str(&"s".repeat(40_000)))
}

fn bigs(range: std::ops::Range<i64>) -> Vec<(i64, Value)> {
    range.map(|i| (i, big(i))).collect()
}

fn append_and_commit(wal: &mut Wal, range: std::ops::Range<i64>) {
    for i in range {
        wal.append(i, &big(i));
        wal.commit();
    }
}

/// Reopens the disk `files` hold, checks it recovers `snapshot` and
/// exactly the records `range`, then has the next incarnation commit two
/// more and checks a further reopening reads them behind the rest.
fn recovers_and_goes_on(
    files: &Files,
    snapshot: Option<(i64, Value)>,
    range: std::ops::Range<i64>,
) {
    let disk = files.open();
    let rec = recover(&disk);
    assert_eq!(rec.snapshot, snapshot);
    assert_eq!(rec.records, bigs(range.clone()), "every record, once");
    let mut wal = Wal::open(disk.clone());
    append_and_commit(&mut wal, range.end..range.end + 2);
    drop((wal, disk));
    let rec = recover(&files.open());
    assert_eq!(rec.snapshot, snapshot);
    assert_eq!(rec.records, bigs(range.start..range.end + 2));
}

/// Six of these records fill a segment (the layout the crash tests below
/// rely on).
#[test]
fn six_big_records_fill_a_segment() {
    let disk = Disk::in_memory(Duration::ZERO);
    let mut wal = Wal::open(disk.clone());
    append_and_commit(&mut wal, 0..1);
    let frame = disk.synced_len();
    assert!(6 * frame <= SEGMENT && 7 * frame > SEGMENT);
}

/// A power cut while the first record of a fresh segment is being
/// written: what reached the new segment is at most a torn record, and a
/// reopening keeps every committed record once, whatever the tear kept,
/// and writes the next incarnation's records over the torn one.
#[test]
fn a_record_torn_at_the_head_of_a_fresh_segment() {
    let mut kept = Vec::new();
    for seed in 0..16 {
        let files = Files::new("torn-head");
        let disk = files.open();
        let mut wal = Wal::open(disk.clone());
        append_and_commit(&mut wal, 0..6);
        wal.append(6, &big(6)); // starts the next segment
        wal.append(7, &big(7));
        disk.begin_recovery(seed);
        drop((wal, disk));
        let n = recover(&files.open()).records.len() as i64;
        assert!((6..=8).contains(&n), "seed {seed}: kept {n}");
        recovers_and_goes_on(&files, None, 0..n);
        kept.push(n);
    }
    assert!(kept.contains(&6), "no seed tore the head record");
    assert!(kept.iter().any(|n| *n > 6), "no seed kept the head record");
}

/// A power cut after a snapshot was renamed into place but before the
/// segments below its cut were unlinked: the stale segments' records are
/// at or below the snapshot's index and recovery skips them.
#[test]
fn an_image_renamed_before_the_segments_below_it_are_unlinked() {
    let files = Files::new("torn-unlink");
    let disk = files.open();
    let mut wal = Wal::open(disk.clone());
    append_and_commit(&mut wal, 0..14); // three segments
    let before = files.contents();
    snapshot(&mut wal, 9, "state@9");
    drop((wal, disk));
    let mut restored = 0;
    for (path, bytes) in before {
        if !path.exists() {
            std::fs::write(&path, bytes).unwrap();
            restored += 1;
        }
    }
    assert_eq!(restored, 1, "the checkpoint unlinked the first segment");
    recovers_and_goes_on(&files, Some((9, Value::str("state@9"))), 10..14);
}

/// A power cut while the image writer was zeroing the spare segment: the
/// spare is shorter than a segment (or holds a stub), reads as empty,
/// and takes the next incarnation's records.
#[test]
fn a_spare_half_prepared() {
    for stub in [SEGMENT / 2, 3, 0] {
        let files = Files::new("torn-spare");
        let disk = files.open();
        let mut wal = Wal::open(disk.clone());
        append_and_commit(&mut wal, 0..4); // past half a segment: a spare
        drop((wal, disk));
        let spare = files.segment(2);
        let len = std::fs::metadata(&spare).expect("a spare ahead").len();
        assert_eq!(len as usize, SEGMENT);
        std::fs::File::options()
            .write(true)
            .open(&spare)
            .and_then(|f| f.set_len(stub as u64))
            .unwrap();
        recovers_and_goes_on(&files, None, 0..4);
        // The next incarnation fills the spare and moves past it.
        let disk = files.open();
        let mut wal = Wal::open(disk.clone());
        append_and_commit(&mut wal, 6..18);
        drop((wal, disk));
        assert_eq!(recover(&files.open()).records, bigs(0..18), "stub {stub}");
    }
}

/// A power cut after the syncer outran its spare — the image writer was
/// busy with an image — and prepared the next segment itself, skipping
/// the spare it had asked for: whether or not the skipped spare still
/// exists, as zeros, recovery reads the snapshot and every record once.
#[test]
fn a_power_cut_after_a_fallback_switch() {
    let files = Files::new("torn-fallback");
    let disk = files.open();
    let mut wal = Wal::open(disk.clone());
    let (tx, rx) = mpsc::channel();
    let hand_off = |wal: &mut Wal, range: std::ops::Range<i64>| {
        for i in range {
            wal.append(i, &big(i));
            let tx = tx.clone();
            wal.hand_off(move |_| tx.send(()).unwrap());
            rx.recv_timeout(Duration::from_secs(10)).expect("reported");
        }
    };
    hand_off(&mut wal, 0..6);
    settle_disks(&files.root); // segment 2, asked at half, is ready
                               // The image writer is held inside an image until the test lets go.
    let (hold, held) = mpsc::channel::<()>();
    let (entered, inside) = mpsc::channel::<()>();
    let done = tx.clone();
    wal.hand_off_checkpoint(
        5,
        move |buf| {
            entered.send(()).unwrap();
            held.recv().unwrap();
            shadowdb_eventml::codec::encode_value(&Value::str("state@5"), buf);
        },
        move |_| done.send(()).unwrap(),
    );
    rx.recv_timeout(Duration::from_secs(10))
        .expect("checkpoint reported");
    inside
        .recv_timeout(Duration::from_secs(10))
        .expect("image started");
    // Record 6 moves to the ready spare; the spare asked once that one is
    // half full waits behind the image, so record 12 makes the syncer
    // prepare a segment itself.
    hand_off(&mut wal, 6..13);
    assert!(!files.segment(3).exists(), "the asked spare is not written");
    assert!(files.segment(4).exists(), "the syncer's own segment");
    hold.send(()).unwrap();
    drop((wal, disk));
    settle_disks(&files.root);
    let snapshot = Some((5, Value::str("state@5")));
    assert!(!files.segment(3).exists(), "the skipped spare is removed");
    recovers_and_goes_on(&files, snapshot.clone(), 6..13);
    // The cut came before the skipped spare was removed: it is whole
    // zeros between the segments the log runs through, or its
    // preparation was itself cut short.
    for (stub, end) in [(SEGMENT, 15), (100, 17)] {
        std::fs::write(files.segment(3), vec![0; stub]).unwrap();
        recovers_and_goes_on(&files, snapshot.clone(), 6..end);
    }
}

/// A wiped file-backed disk holds nothing: a fresh opening recovers
/// empty, although the wiped log spanned several segments and a snapshot.
#[test]
fn a_wiped_file_disk_reopens_empty() {
    let files = Files::new("wiped");
    let disk = files.open();
    let mut wal = Wal::open(disk.clone());
    append_and_commit(&mut wal, 0..14);
    snapshot(&mut wal, 3, "state@3");
    disk.wipe();
    assert_eq!(recover(&disk), Recovered::default());
    drop((wal, disk));
    assert_eq!(recover(&files.open()), Recovered::default());
}

/// The test hooks address the whole log: `synced_len` counts every
/// segment's records, and a truncation or a bit flip anywhere in the
/// chain reads back, after a fresh opening, as the same valid prefix the
/// open disk recovers.
#[test]
fn the_test_hooks_cover_every_segment() {
    let files = Files::new("hooks");
    let mut disk = files.open();
    let mut wal = Wal::open(disk.clone());
    append_and_commit(&mut wal, 0..14);
    let frame = disk.synced_len() / 14;
    assert_eq!(disk.synced_len(), 14 * frame, "every segment counted");
    drop(wal);
    // Into the third segment, and into the second.
    for (cut, keep) in [(13 * frame - 5, 12), (9 * frame + 3, 9)] {
        disk.truncate_synced(cut);
        assert_eq!(recover(&disk).records, bigs(0..keep));
        drop(disk);
        let reopened = files.open();
        assert_eq!(recover(&reopened).records, bigs(0..keep));
        assert_eq!(reopened.synced_len(), keep as usize * frame);
        disk = reopened;
    }
    disk.flip_bit((7 * frame + 100) * 8);
    assert_eq!(recover(&disk).records, bigs(0..7));
    drop(disk);
    assert_eq!(recover(&files.open()).records, bigs(0..7));
}
