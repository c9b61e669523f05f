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

use proptest::prelude::*;
use shadowdb_eventml::Value;
use shadowdb_wal::{recover, Disk, Wal};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Distinguishable record bodies (index is carried separately by the
/// frame; the body must roundtrip byte-exactly).
fn body(i: i64) -> Value {
    Value::pair(
        Value::Int(i * 31 + 7),
        Value::str(&format!("txn-{i}-payload")),
    )
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
        wal.save_snapshot(snap_at, &Value::str("state-blob"));
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
    wal.hand_off(move || f.store(true, Ordering::SeqCst));
    assert!(disk.complete_next() && first.load(Ordering::SeqCst));
    append(&mut wal, in_flight);
    let l = late.clone();
    wal.hand_off(move || l.store(true, Ordering::SeqCst));
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
