//! Per-replica write-ahead log: the durability plane.
//!
//! Replicas log every executed transaction here and hold its
//! acknowledgment until the record is synced — one sync covers every
//! record appended since the previous one (group commit) — take periodic
//! snapshots, and truncate the log to the snapshot point. A replica
//! restarted after power loss reconstructs its state from snapshot + log
//! replay and rejoins the group by fetching only the suffix it missed — no
//! full state transfer.
//!
//! # Record format
//!
//! One record per executed transaction (or configuration adoption):
//!
//! ```text
//! [u32_le payload_len][u32_le checksum][payload]
//! payload = eventml::codec::encode_value(Pair(Int(index), body))
//! ```
//!
//! The payload is the system codec — already total on arbitrary bytes —
//! and the checksum (FNV-1a over the payload) catches the case framing
//! alone cannot: a bit flip *inside* a record that still decodes to a
//! well-formed value. Recovery scans the longest valid prefix: any
//! truncation, checksum mismatch, decode failure, or index regression
//! ends the log there. It never panics and never sizes an allocation
//! from a corrupt length prefix.
//!
//! # Crash model
//!
//! A [`Disk`] outlives the process that writes it (the harness holds a
//! handle across crash/restart). Appends land in an *unsynced tail*;
//! [`Wal::commit`] promotes the tail to the synced log (a real
//! `write + fsync` on the file backend, a modeled [`Duration`] cost on the
//! virtual one). Power loss may persist any prefix of the unsynced tail —
//! possibly mid-record, possibly with a flipped bit — which
//! [`Disk::begin_recovery`] emulates deterministically from a seed before
//! the restarted replica reads the log. Everything `commit` returned for
//! is stable; the torn region is only ever the tail written after the
//! last sync, which by the logging discipline contains no acked
//! transaction.

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use shadowdb_eventml::codec::{decode_value, encode_value};
use shadowdb_eventml::Value;
use shadowdb_runtime::fault::mix64;
use shadowdb_runtime::StorageMode;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Largest record payload recovery will follow a length prefix for.
/// Records are single transactions or config adoptions — a claim beyond
/// this is corruption, not data.
pub const MAX_RECORD: usize = 16 * 1024 * 1024;

const LOG_FILE: &str = "wal.log";
const LOG_TMP: &str = "wal.tmp";
const SNAP_FILE: &str = "snap.bin";
const SNAP_TMP: &str = "snap.tmp";

/// FNV-1a, 32-bit: cheap corruption detection for log records (torn
/// writes and bit rot, not adversaries).
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

enum Backend {
    /// Virtual storage: bytes held in memory, fsync a modeled cost. The
    /// simulator's runtime returns this mode; the "disk" survives crashes
    /// because the harness keeps the [`Disk`] handle across restart.
    Mem,
    /// Real files under `dir`: commit is `write + sync_all`, snapshot
    /// install is write-tmp + `sync_all` + atomic rename + directory sync.
    File { dir: PathBuf },
}

struct DiskInner {
    backend: Backend,
    /// Synced log bytes (the file backend mirrors these on disk; the
    /// in-memory copy keeps recovery reads uniform across backends).
    synced: Vec<u8>,
    /// Appended but not yet synced: the region power loss may tear.
    unsynced: Vec<u8>,
    /// Installed snapshot: `(covered index, encoded blob)`.
    snapshot: Option<(i64, Bytes)>,
    fsync_cost: Duration,
    syncs: u64,
}

impl DiskInner {
    /// Rewrites the whole log file (recovery/truncation paths; the hot
    /// commit path appends instead).
    fn sync_to_file(&mut self) {
        if let Backend::File { dir } = &self.backend {
            let path = dir.join(LOG_FILE);
            std::fs::write(&path, &self.synced).expect("wal log write");
            if let Ok(f) = std::fs::File::open(&path) {
                let _ = f.sync_all();
            }
        }
    }

    /// Appends `tail` to the log file and fsyncs — the group-commit hot
    /// path writes only the new bytes, not the whole log.
    fn append_to_file(&mut self, tail: &[u8]) {
        if let Backend::File { dir } = &self.backend {
            use std::io::Write;
            let r = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(LOG_FILE))
                .and_then(|mut f| {
                    f.write_all(tail)?;
                    f.sync_all()
                });
            r.expect("wal log append");
        }
    }
}

/// A per-replica persistent store that survives process crash/restart.
///
/// Cloning shares the same storage — the harness keeps one handle, the
/// replica process another, and a restarted replica opens its state
/// through a fresh clone of the same disk.
#[derive(Clone)]
pub struct Disk {
    inner: Arc<Mutex<DiskInner>>,
}

impl Disk {
    /// Opens (or re-opens) the disk named `name` under the runtime's
    /// storage mode. `fsync_cost` is the modeled duration one sync charges
    /// on the virtual backend (the file backend pays real time instead,
    /// and charges zero).
    pub fn open(mode: &StorageMode, name: &str, fsync_cost: Duration) -> Disk {
        let (backend, synced, snapshot, cost) = match mode {
            StorageMode::Virtual => (Backend::Mem, Vec::new(), None, fsync_cost),
            StorageMode::File { root } => {
                let dir = root.join(name);
                std::fs::create_dir_all(&dir).expect("wal dir");
                let synced = std::fs::read(dir.join(LOG_FILE)).unwrap_or_default();
                let snapshot = std::fs::read(dir.join(SNAP_FILE))
                    .ok()
                    .and_then(|raw| decode_snapshot_file(&raw));
                (Backend::File { dir }, synced, snapshot, Duration::ZERO)
            }
        };
        Disk {
            inner: Arc::new(Mutex::new(DiskInner {
                backend,
                synced,
                unsynced: Vec::new(),
                snapshot,
                fsync_cost: cost,
                syncs: 0,
            })),
        }
    }

    /// A purely in-memory disk with the given modeled fsync cost.
    pub fn in_memory(fsync_cost: Duration) -> Disk {
        Disk::open(&StorageMode::Virtual, "mem", fsync_cost)
    }

    /// Emulates the effect of the power loss that preceded this restart:
    /// any prefix of the unsynced tail — chosen deterministically from
    /// `seed`, possibly mid-record, possibly with one flipped bit — may
    /// have reached the platter; the rest is gone. Idempotent once the
    /// tail is consumed: calling again with no new appends is a no-op.
    pub fn begin_recovery(&self, seed: u64) {
        let mut d = self.inner.lock();
        if d.unsynced.is_empty() {
            return;
        }
        let h = mix64(seed);
        let keep = (h % (d.unsynced.len() as u64 + 1)) as usize;
        let mut torn: Vec<u8> = d.unsynced[..keep].to_vec();
        // One run in four also flips a bit inside the kept prefix.
        if keep > 0 && (h >> 32) & 3 == 0 {
            let bit = ((h >> 34) % (keep as u64 * 8)) as usize;
            torn[bit / 8] ^= 1 << (bit % 8);
        }
        d.synced.extend_from_slice(&torn);
        d.unsynced.clear();
        d.sync_to_file();
    }

    /// Drops everything — the disk itself was lost (the amnesia restart
    /// kind). Present so harnesses can model disk loss explicitly.
    pub fn wipe(&self) {
        let mut d = self.inner.lock();
        d.synced.clear();
        d.unsynced.clear();
        d.snapshot = None;
        if let Backend::File { dir } = &d.backend {
            let _ = std::fs::remove_file(dir.join(LOG_FILE));
            let _ = std::fs::remove_file(dir.join(SNAP_FILE));
        }
    }

    /// Number of syncs performed (group-commit accounting).
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// Bytes in the synced log (test observability).
    pub fn synced_len(&self) -> usize {
        self.inner.lock().synced.len()
    }

    /// Test hook: corrupt the synced log by truncating it to `len` bytes.
    pub fn truncate_synced(&self, len: usize) {
        let mut d = self.inner.lock();
        let n = len.min(d.synced.len());
        d.synced.truncate(n);
        d.sync_to_file();
    }

    /// Test hook: flip one bit of the synced log.
    pub fn flip_bit(&self, bit: usize) {
        let mut d = self.inner.lock();
        if d.synced.is_empty() {
            return;
        }
        let bit = bit % (d.synced.len() * 8);
        d.synced[bit / 8] ^= 1 << (bit % 8);
        d.sync_to_file();
    }
}

/// Writes `bytes` to `dir/tmp`, forces them to storage, then renames the
/// file over `dir/name`: whichever name a crash leaves behind holds whole,
/// synced contents — never a renamed-but-empty file.
fn install_synced(dir: &Path, tmp: &str, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(dir.join(tmp))?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(dir.join(tmp), dir.join(name))
}

fn encode_snapshot_file(index: i64, blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + blob.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&checksum(blob).to_le_bytes());
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(blob);
    out
}

fn decode_snapshot_file(raw: &[u8]) -> Option<(i64, Bytes)> {
    if raw.len() < 16 {
        return None;
    }
    let index = i64::from_le_bytes(raw[0..8].try_into().ok()?);
    let sum = u32::from_le_bytes(raw[8..12].try_into().ok()?);
    let len = u32::from_le_bytes(raw[12..16].try_into().ok()?) as usize;
    if raw.len() < 16 + len {
        return None;
    }
    let blob = &raw[16..16 + len];
    if checksum(blob) != sum {
        return None;
    }
    Some((index, Bytes::from(blob.to_vec())))
}

/// What recovery reconstructed from a disk.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recovered {
    /// The installed snapshot, if any: `(covered index, blob)`.
    pub snapshot: Option<(i64, Value)>,
    /// Valid log records past the snapshot, in index order.
    pub records: Vec<(i64, Value)>,
}

impl Recovered {
    /// The highest index this recovery reaches (snapshot or last record);
    /// -1 when the disk was empty.
    pub fn high_index(&self) -> i64 {
        self.records
            .last()
            .map(|(i, _)| *i)
            .or(self.snapshot.as_ref().map(|(i, _)| *i))
            .unwrap_or(-1)
    }
}

/// Scans log bytes for the longest valid record prefix. Total on
/// arbitrary input: stops (never panics) at the first truncated frame,
/// checksum mismatch, codec error, malformed payload shape, or
/// non-increasing index. Records at or below `floor` are skipped (already
/// covered by the snapshot).
pub fn scan_log(log: &[u8], floor: i64) -> Vec<(i64, Value)> {
    scan(log, floor).0
}

/// [`scan_log`], also returning the byte length of the valid prefix.
fn scan(log: &[u8], floor: i64) -> (Vec<(i64, Value)>, usize) {
    let mut out = Vec::new();
    let mut at = 0usize;
    let mut last = i64::MIN;
    while log.len() - at >= 8 {
        let len = u32::from_le_bytes([log[at], log[at + 1], log[at + 2], log[at + 3]]) as usize;
        let sum = u32::from_le_bytes([log[at + 4], log[at + 5], log[at + 6], log[at + 7]]);
        if len > MAX_RECORD || log.len() - at < 8 + len {
            break; // torn tail (or a length made absurd by a flipped bit)
        }
        let payload = &log[at + 8..at + 8 + len];
        if checksum(payload) != sum {
            break;
        }
        let mut view = Bytes::from(payload.to_vec());
        let Ok(value) = decode_value(&mut view) else {
            break;
        };
        if !view.is_empty() {
            break; // trailing garbage inside a frame
        }
        let Value::Pair(p) = &value else { break };
        let Value::Int(index) = p.0 else { break };
        if index <= last && last != i64::MIN {
            break; // index regression: corruption that still decoded
        }
        last = index;
        if index > floor {
            out.push((index, p.1.clone()));
        }
        at += 8 + len;
    }
    (out, at)
}

/// The write-ahead log over a [`Disk`]: framed appends, group commit,
/// snapshot install with log truncation.
pub struct Wal {
    disk: Disk,
    scratch: BytesMut,
    pending: u64,
}

impl Wal {
    /// Opens a log over the disk, cutting the synced log back to its valid
    /// prefix first: whatever a power cut tore must not stay *inside* the
    /// log, or every record appended behind it would be invisible to the
    /// next recovery scan.
    pub fn open(disk: Disk) -> Wal {
        {
            let mut d = disk.inner.lock();
            let valid = scan(&d.synced, i64::MIN).1;
            if valid < d.synced.len() {
                d.synced.truncate(valid);
                d.sync_to_file();
            }
        }
        Wal {
            disk,
            scratch: BytesMut::new(),
            pending: 0,
        }
    }

    /// The underlying disk handle.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Appends one record to the unsynced tail. Not durable until
    /// [`Wal::commit`].
    pub fn append(&mut self, index: i64, body: &Value) {
        self.scratch.clear();
        encode_value(
            &Value::pair(Value::Int(index), body.clone()),
            &mut self.scratch,
        );
        let mut d = self.disk.inner.lock();
        d.unsynced
            .extend_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        d.unsynced
            .extend_from_slice(&checksum(&self.scratch).to_le_bytes());
        d.unsynced.extend_from_slice(&self.scratch);
        self.pending += 1;
    }

    /// Records appended since the last commit.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Group commit: promotes the whole unsynced tail with one sync and
    /// returns the modeled cost to charge (zero when nothing was pending,
    /// and always zero on the file backend, which pays in real time).
    pub fn commit(&mut self) -> Duration {
        if self.pending == 0 {
            return Duration::ZERO;
        }
        self.pending = 0;
        let mut d = self.disk.inner.lock();
        let tail = std::mem::take(&mut d.unsynced);
        d.synced.extend_from_slice(&tail);
        d.syncs += 1;
        d.append_to_file(&tail);
        d.fsync_cost
    }

    /// Installs a snapshot covering everything through `index` and
    /// truncates the log to the records above it. On the file backend the
    /// snapshot lands via write-tmp + fsync + atomic rename, then the log
    /// is rewritten the same way and the directory synced — a crash
    /// between the two renames leaves the new snapshot with stale low
    /// records, which recovery skips by index. Returns the modeled cost
    /// (one sync).
    pub fn save_snapshot(&mut self, index: i64, blob: &Value) -> Duration {
        self.scratch.clear();
        encode_value(blob, &mut self.scratch);
        let blob_bytes = self.scratch.to_vec();
        let mut d = self.disk.inner.lock();
        // Records above the snapshot point survive truncation; the
        // unsynced tail is promoted first so nothing appended in this
        // step is dropped (the snapshot save is itself a sync point).
        let tail = std::mem::take(&mut d.unsynced);
        d.synced.extend_from_slice(&tail);
        self.pending = 0;
        let retained = scan_log(&d.synced, index);
        let mut log = Vec::new();
        let mut frame = BytesMut::new();
        for (i, body) in &retained {
            frame.clear();
            encode_value(&Value::pair(Value::Int(*i), body.clone()), &mut frame);
            log.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            log.extend_from_slice(&checksum(&frame).to_le_bytes());
            log.extend_from_slice(&frame);
        }
        if let Backend::File { dir } = &d.backend {
            let snap = encode_snapshot_file(index, &blob_bytes);
            install_synced(dir, SNAP_TMP, SNAP_FILE, &snap).expect("snapshot install");
            install_synced(dir, LOG_TMP, LOG_FILE, &log).expect("log install");
            // The renames themselves live in the directory: without this a
            // power cut could bring back the old names over the new files.
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .expect("wal dir sync");
        }
        d.snapshot = Some((index, Bytes::from(blob_bytes)));
        d.synced = log;
        d.syncs += 1;
        d.fsync_cost
    }
}

/// Reads a disk back into snapshot + valid log suffix. Read-only and
/// total: corrupt snapshots fall back to `None`, corrupt logs to their
/// longest valid prefix. Call [`Disk::begin_recovery`] first after a
/// modeled power loss so the torn tail is resolved.
pub fn recover(disk: &Disk) -> Recovered {
    let d = disk.inner.lock();
    let snapshot = d.snapshot.as_ref().and_then(|(index, blob)| {
        let mut view = blob.clone();
        let value = decode_value(&mut view).ok()?;
        view.is_empty().then_some((*index, value))
    });
    let floor = snapshot.as_ref().map(|(i, _)| *i).unwrap_or(i64::MIN);
    let records = scan_log(&d.synced, floor);
    Recovered { snapshot, records }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: i64) -> Value {
        Value::pair(Value::str("txn"), Value::Int(i * 100))
    }

    #[test]
    fn append_commit_recover_roundtrip() {
        let disk = Disk::in_memory(Duration::from_micros(500));
        let mut wal = Wal::open(disk.clone());
        for i in 0..10 {
            wal.append(i, &rec(i));
        }
        assert_eq!(wal.pending(), 10);
        assert_eq!(wal.commit(), Duration::from_micros(500));
        assert_eq!(wal.commit(), Duration::ZERO, "nothing pending");
        let got = recover(&disk);
        assert_eq!(got.snapshot, None);
        assert_eq!(got.records.len(), 10);
        assert_eq!(got.records[3], (3, rec(3)));
        assert_eq!(got.high_index(), 9);
    }

    #[test]
    fn uncommitted_tail_is_not_durable_without_recovery_tear() {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        wal.append(0, &rec(0));
        wal.commit();
        wal.append(1, &rec(1)); // never committed
        let got = recover(&disk);
        assert_eq!(got.records.len(), 1, "unsynced tail invisible until torn");
    }

    #[test]
    fn torn_tail_recovers_a_valid_prefix_and_never_the_committed_part() {
        for seed in 0..64 {
            let disk = Disk::in_memory(Duration::ZERO);
            let mut wal = Wal::open(disk.clone());
            for i in 0..5 {
                wal.append(i, &rec(i));
            }
            wal.commit();
            for i in 5..9 {
                wal.append(i, &rec(i));
            }
            // Power loss with 4 records in the unsynced tail.
            disk.begin_recovery(seed);
            let got = recover(&disk);
            assert!(
                got.records.len() >= 5,
                "committed records survive: seed {seed}"
            );
            for (k, (i, body)) in got.records.iter().enumerate() {
                assert_eq!((*i, body.clone()), (k as i64, rec(k as i64)), "seed {seed}");
            }
        }
    }

    /// A torn tail is cut off when the log is reopened: what the next
    /// incarnation appends and syncs is there for the recovery after it.
    #[test]
    fn records_synced_after_a_torn_recovery_survive_the_next_one() {
        for seed in 0..64 {
            let disk = Disk::in_memory(Duration::ZERO);
            let mut wal = Wal::open(disk.clone());
            for i in 0..4 {
                wal.append(i, &rec(i));
            }
            disk.begin_recovery(seed); // power cut before any sync
            let next = recover(&disk).high_index() + 1;
            let mut wal = Wal::open(disk.clone());
            for i in next..next + 3 {
                wal.append(i, &rec(i));
            }
            wal.commit();
            let got = recover(&disk);
            assert_eq!(got.high_index(), next + 2, "seed {seed}");
            assert_eq!(got.records.len() as i64, next + 3, "seed {seed}");
        }
    }

    #[test]
    fn snapshot_truncates_and_recovery_resumes_past_it() {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..20 {
            wal.append(i, &rec(i));
        }
        wal.commit();
        let before = disk.synced_len();
        wal.save_snapshot(14, &Value::str("state@14"));
        assert!(disk.synced_len() < before, "log truncated");
        let got = recover(&disk);
        assert_eq!(got.snapshot, Some((14, Value::str("state@14"))));
        let idx: Vec<i64> = got.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn file_backend_survives_reopen() {
        let root = std::env::temp_dir().join(format!("shadowdb-wal-test-{}", std::process::id()));
        let mode = StorageMode::File { root: root.clone() };
        {
            let disk = Disk::open(&mode, "r1", Duration::ZERO);
            disk.wipe();
            let mut wal = Wal::open(disk);
            for i in 0..8 {
                wal.append(i, &rec(i));
            }
            wal.commit();
            wal.save_snapshot(3, &Value::str("state@3"));
            wal.append(8, &rec(8));
            wal.commit();
        }
        // A fresh open (new process) reads the same state back from disk.
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        let got = recover(&disk);
        assert_eq!(got.snapshot, Some((3, Value::str("state@3"))));
        let idx: Vec<i64> = got.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![4, 5, 6, 7, 8]);
        disk.wipe();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn bit_flip_inside_a_record_stops_the_scan_there() {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..6 {
            wal.append(i, &rec(i));
        }
        wal.commit();
        let frame = disk.synced_len() / 6;
        // Flip a bit in the 4th record's payload region.
        disk.flip_bit((3 * frame + 10) * 8);
        let got = recover(&disk);
        assert_eq!(got.records.len(), 3, "scan stops at the corrupt record");
    }

    #[test]
    fn group_commit_counts_one_sync_per_batch() {
        let disk = Disk::in_memory(Duration::from_micros(300));
        let mut wal = Wal::open(disk.clone());
        for batch in 0..4 {
            for i in 0..16 {
                wal.append(batch * 16 + i, &rec(i));
            }
            wal.commit();
        }
        assert_eq!(disk.sync_count(), 4, "64 records, 4 syncs");
    }
}
