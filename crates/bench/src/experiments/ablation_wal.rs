//! Ablation: WAL durability — fsync batch size × snapshot interval.
//!
//! The durability plane commits the WAL at group-apply boundaries (one
//! fsync per delivered group, not per transaction) and takes a periodic
//! snapshot that truncates the log. This harness sweeps the two knobs
//! separately, on a real file-backed disk under the OS temp dir:
//!
//! * **fsync batch size** — the same record stream appended and
//!   committed in groups of 1..256. A group of 1 is the naive durable
//!   design (an fsync per transaction); larger groups amortize the sync
//!   into one platter round trip per batch, which is the group-commit
//!   claim `perf_smoke` gates at ≥5×.
//! * **snapshot interval** — a fixed 4,096-record history snapshotted
//!   every 16..1024 records, then recovered by a fresh opening of the
//!   disk. The interval buys a shorter replay (fewer records past the
//!   snapshot) at the price of more snapshot writes during the run. The
//!   log bytes left on disk count every segment file still there: a
//!   checkpoint unlinks only segments wholly below its cut, so they
//!   shrink with the interval by whole segments.
//!
//! Expected shape: commit throughput climbs roughly linearly with the
//! batch until the append `write()` itself dominates (past ~64 the sync
//! is amortized away); recovery cost tracks the records left above the
//! last snapshot — about half the interval on average — while the
//! snapshot count during the run is inversely proportional to it.

use crate::output;
use shadowdb_eventml::codec::encode_value;
use shadowdb_eventml::Value;
use shadowdb_runtime::StorageMode;
use shadowdb_wal::{recover, Disk, Wal};
use std::io::{self, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A bank transaction's framed apply record is ~100 bytes.
fn record() -> Value {
    Value::pair(
        Value::Int(7),
        Value::Bytes(bytes::Bytes::from(vec![0xA5u8; 96])),
    )
}

/// Appends `txns` records committing every `group`, on a fresh
/// file-backed disk. Returns (txns/sec, syncs performed). `perf_smoke`'s
/// `wal_group_commit_txns_per_sec` leg is this run at groups of 1 and 64.
pub fn commit_run(mode: &StorageMode, txns: usize, group: usize) -> (f64, u64) {
    let disk = Disk::open(mode, &format!("commit-g{group}"), Duration::ZERO);
    let mut wal = Wal::open(disk.clone());
    let body = record();
    let t = Instant::now();
    for i in 0..txns {
        wal.append(i as i64, &body);
        if (i + 1) % group == 0 {
            wal.commit();
        }
    }
    wal.commit();
    (txns as f64 / t.elapsed().as_secs_f64(), disk.sync_count())
}

/// Runs a fixed-length history with a snapshot every `every`, then
/// recovers the disk as a rebooted process does: a fresh opening reads
/// the snapshot and every segment file still on disk. Returns (snapshots
/// taken, log bytes at recovery, records replayed past the snapshot,
/// recovery micros).
fn snapshot_run(mode: &StorageMode, txns: usize, every: usize) -> (usize, usize, usize, f64) {
    let name = format!("snap-e{every}");
    let disk = Disk::open(mode, &name, Duration::ZERO);
    let mut wal = Wal::open(disk.clone());
    let body = record();
    // The snapshot blob models a small-bank dump: size-independent of
    // the interval, so the sweep isolates the log-suffix effect.
    let blob = Value::Bytes(bytes::Bytes::from(vec![0x5Au8; 4 * 1024]));
    let mut snaps = 0usize;
    for i in 0..txns {
        wal.append(i as i64, &body);
        if (i + 1) % 64 == 0 {
            wal.commit();
        }
        if (i + 1) % every == 0 {
            let (blob, (tx, rx)) = (blob.clone(), mpsc::channel());
            let image = move |buf: &mut _| encode_value(&blob, buf);
            wal.hand_off_snapshot(i as i64, image, move |_| tx.send(()).expect("waiting"));
            rx.recv().expect("the syncer reports");
            snaps += 1;
        }
    }
    wal.commit();
    drop((wal, disk));
    let t = Instant::now();
    let disk = Disk::open(mode, &name, Duration::ZERO);
    let rec = recover(&disk);
    let us = t.elapsed().as_secs_f64() * 1e6;
    // The records in every segment the reopening read, those below the
    // last snapshot's cut that share its segment included.
    let log_bytes = disk.synced_len();
    assert_eq!(rec.high_index(), txns as i64 - 1, "recovery lost records");
    (snaps, log_bytes, rec.records.len(), us)
}

/// Runs the fsync-batch sweep, then the snapshot-interval sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let root = StorageMode::fresh_file_root("ablation-wal");
    let mode = StorageMode::File { root: root.clone() };

    const TXNS: usize = 2_000;
    let mut rows: Vec<(String, String)> = Vec::new();
    for &group in &[1usize, 8, 64, 256] {
        let (rate, syncs) = commit_run(&mode, TXNS, group);
        rows.push((
            format!("group of {group:>3}"),
            format!("{rate:>9.0} txns/s  ({syncs} fsyncs)"),
        ));
    }
    output::pairs(
        out,
        &format!("{TXNS} appends, one fsync per commit group"),
        "fsync batch",
        "throughput",
        &rows,
    )?;

    // Not a multiple of any interval, so the crash point always leaves a
    // genuine suffix past the last snapshot — the replay work the sweep
    // is about. (A multiple would snapshot away the whole history and
    // make every row recover in zero.)
    const HISTORY: usize = 3_999;
    let mut rows: Vec<(String, String)> = Vec::new();
    for &every in &[16usize, 64, 256, 1_024] {
        let (snaps, log_bytes, replayed, us) = snapshot_run(&mode, HISTORY, every);
        rows.push((
            format!("every {every:>4}"),
            format!("{replayed:>4} replayed, {log_bytes:>6} B log, {us:>6.0} us recovery  ({snaps} snaps)"),
        ));
    }
    output::pairs(
        out,
        &format!("{HISTORY}-record history, then recover from disk"),
        "snapshot",
        "recovery",
        &rows,
    )?;

    let _ = std::fs::remove_dir_all(&root);
    output::note(
        out,
        "Group commit amortizes the sync: throughput climbs with the batch until\n\
         the append write itself dominates. The snapshot interval trades snapshot\n\
         writes during the run for replay work at recovery: the log suffix past\n\
         the last snapshot — what restart-from-disk must re-execute — shrinks\n\
         linearly with the interval. The bytes recovery reads are whole segment\n\
         files, from the one holding the last snapshot's cut on.",
    )
}
