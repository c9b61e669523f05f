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
//! # Syncs: inline, or handed to the disk's syncer
//!
//! A sync is one of two jobs: a *commit* (append the unsynced tail and
//! fsync it) or a *checkpoint* (write a snapshot image, fsync, rename,
//! install the log's suffix above it, sync the directory). [`Wal::commit`]
//! and [`Wal::save_snapshot`] run the job on the caller's thread.
//! [`Wal::hand_off`] and [`Wal::hand_off_checkpoint`] queue it instead:
//! on the file backend each [`Disk`] has one syncer thread that runs its
//! jobs in FIFO order over one log handle that stays open, and calls
//! the job's `done` once the bytes are durable — a replica turns that
//! into a message to itself (see `shadowdb_runtime::completion`). At most
//! one job is in flight per disk; records appended meanwhile wait in the
//! unsynced tail for the next one. Each [`Wal::open`] draws a fresh
//! [`Wal::generation`], so a completion can name the log it belongs to.
//!
//! # Crash model
//!
//! A [`Disk`] outlives the process that writes it (the harness holds a
//! handle across crash/restart). Appends land in an *unsynced tail*; a
//! sync moves it *in flight*, and only the job's completion moves it into
//! the synced log (a real `write + fsync` on the file backend, a modeled
//! [`Duration`] cost on the virtual one). Power loss may persist any
//! prefix of what is in flight or unsynced — possibly mid-record,
//! possibly with a flipped bit — which [`Disk::begin_recovery`] emulates
//! deterministically from a seed before the restarted replica reads the
//! log. Everything whose completion was reported is stable; the torn
//! region is only ever written after the last completed sync, which by
//! the logging discipline contains no acked transaction.

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex, MutexGuard};
use shadowdb_eventml::codec::{decode_value, encode_value};
use shadowdb_eventml::Value;
use shadowdb_runtime::fault::mix64;
use shadowdb_runtime::StorageMode;
use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
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
    /// In memory, but a handed-off sync completes only when the test says
    /// so ([`Disk::complete_next`]). `early`: the broken double of
    /// [`Disk::report_at_hand_off`].
    Deferred { early: bool },
    /// Real files under `dir`: commit is `write + sync_all`, snapshot
    /// install is write-tmp + `sync_all` + atomic rename + directory sync.
    File { dir: PathBuf },
}

/// What one sync does.
enum Work {
    /// Appends the in-flight bytes to the log and syncs them.
    Commit,
    /// Installs a snapshot at `index`, rendered from `image`, and keeps
    /// the log's bytes from offset `cut` on (see [`DiskInner::trimmed`]).
    /// `behind`: the in-flight tail is committed to the log first and the
    /// sync reports then, while the image is written behind it; otherwise
    /// the snapshot stands in for the tail and the sync reports once it is
    /// installed.
    Checkpoint {
        index: i64,
        cut: usize,
        image: Image,
        behind: bool,
    },
}

/// Renders a snapshot image — the encoding of its blob value, appended to
/// the buffer — on whichever thread writes it.
type Image = Box<dyn FnOnce(&mut BytesMut) + Send>;

/// What to call once a handed-off sync is durable.
type Done = Box<dyn FnOnce() + Send>;

/// A sync and what to call once it is durable.
struct Job {
    work: Work,
    done: Option<Done>,
}

/// A snapshot image written behind the commits: `(index, cut, image)` of
/// a [`Work::Checkpoint`] whose tail is already in the log.
type Behind = (i64, usize, Image);

struct DiskInner {
    backend: Backend,
    /// Synced log bytes (the file backend mirrors these on disk; the
    /// in-memory copy keeps recovery reads uniform across backends).
    synced: Vec<u8>,
    /// Bytes dropped off the front of the log by checkpoints so far: log
    /// offset `trimmed` is `synced[0]`. Checkpoint cuts are log offsets,
    /// so one taken while an earlier image is still being written stays
    /// valid after that image trims the log.
    trimmed: usize,
    /// Handed to a sync that has not completed: log bytes after `synced`,
    /// as tearable as `unsynced`.
    in_flight: Vec<u8>,
    /// Appended but not yet handed to a sync: the log's tail.
    unsynced: Vec<u8>,
    /// Installed snapshot: `(covered index, encoded blob)`.
    snapshot: Option<(i64, Bytes)>,
    fsync_cost: Duration,
    syncs: u64,
    /// A sync is in flight (at most one is).
    busy: bool,
    /// A snapshot image is being written behind the commits (at most one
    /// is).
    imaging: bool,
    /// A worker thread has exited — the disk is being dropped, or the
    /// thread panicked and will never finish what it owes.
    stopped: bool,
    /// A deferred disk's in-flight sync, waiting for the test.
    deferred: Option<Job>,
}

impl DiskInner {
    fn dir(&self) -> Option<PathBuf> {
        match &self.backend {
            Backend::File { dir } => Some(dir.clone()),
            _ => None,
        }
    }
}

/// Zero bytes the file backend keeps written ahead of the log's end.
const LOG_AHEAD: usize = 256 * 1024;
static ZEROS: [u8; LOG_AHEAD] = [0; LOG_AHEAD];

/// The open log file. Its length runs [`LOG_AHEAD`] zero bytes past the
/// last record, so a commit overwrites blocks the file already has and
/// `sync_data` flushes the records alone: the file's size and allocation
/// stay as they were, and the sync waits for no filesystem journal
/// commit. Recovery reads the zeros as the end of the log.
struct LogFile {
    file: std::fs::File,
    /// Bytes the file holds, records and zeros.
    len: usize,
}

impl LogFile {
    fn open(dir: &Path) -> LogFile {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOG_FILE))
            .expect("wal log open");
        let len = file.metadata().expect("wal log size").len() as usize;
        LogFile { file, len }
    }

    /// Writes `bytes` at log offset `at` and makes them durable.
    fn commit(&mut self, at: usize, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all_at(bytes, at as u64)?;
        let end = at + bytes.len();
        if end <= self.len {
            return self.file.sync_data();
        }
        // Past the zeros: write the next stretch of them, and sync the
        // file's new size with the records.
        self.file.write_all_at(&ZEROS, end as u64)?;
        self.len = end + LOG_AHEAD;
        self.file.sync_all()
    }
}

struct Shared {
    /// The log file, kept open between commits and dropped whenever the
    /// file is replaced. Whoever writes the log holds this lock for the
    /// whole write — taken before `state`, never after it.
    log: Mutex<Option<LogFile>>,
    state: Mutex<DiskInner>,
    /// Signalled whenever a sync completes or an image is installed.
    changed: Condvar,
}

impl Shared {
    /// Rewrites the whole log file from the synced bytes (recovery and
    /// test paths, on a quiet disk; the hot commit path writes over the
    /// zeros ahead of the log instead).
    fn rewrite_log(&self, log: &mut Option<LogFile>, d: &DiskInner) {
        if let Some(dir) = d.dir() {
            *log = None;
            let path = dir.join(LOG_FILE);
            std::fs::write(&path, &d.synced).expect("wal log write");
            if let Ok(f) = std::fs::File::open(&path) {
                let _ = f.sync_all();
            }
        }
    }
}

/// Every file-backed disk open in the process, with its storage root.
static FILE_DISKS: Mutex<Vec<(PathBuf, Weak<Shared>)>> = Mutex::new(Vec::new());

/// Waits until no disk still open under `root` has a sync or a snapshot
/// image in flight, or until its worker died. A substrate calls it before
/// removing `root`, once nothing can hand its disks new work: a disk the
/// harness keeps may still be writing there on its own threads.
pub fn settle_disks(root: &Path) {
    let open: Vec<Arc<Shared>> = FILE_DISKS
        .lock()
        .iter()
        .filter(|(r, _)| r == root)
        .filter_map(|(_, d)| d.upgrade())
        .collect();
    for shared in open {
        let mut d = shared.state.lock();
        while (d.busy || d.imaging) && !d.stopped {
            shared.changed.wait(&mut d);
        }
    }
}

/// Appends the in-flight bytes to the log and makes them durable.
fn commit(shared: &Shared) {
    let mut log = shared.log.lock();
    let d = shared.state.lock();
    let tail = d.in_flight.clone();
    let (dir, at) = (d.dir(), d.synced.len());
    drop(d);
    if let Some(dir) = dir {
        log.get_or_insert_with(|| LogFile::open(&dir))
            .commit(at, &tail)
            .expect("wal log append");
    }
    let mut d = shared.state.lock();
    d.synced.extend_from_slice(&tail);
    d.in_flight.clear();
}

/// Installs the snapshot `image` renders as covering `index`, then cuts
/// the log at offset `cut`, keeping the bytes after it verbatim. With
/// `with_tail` the in-flight bytes count as part of the log (a snapshot
/// that stands in for the tail it covers).
fn install(shared: &Shared, index: i64, cut: usize, image: Image, with_tail: bool) {
    let (dir, size) = {
        let d = shared.state.lock();
        (
            d.dir(),
            d.snapshot.as_ref().map_or(0, |(_, blob)| blob.len()),
        )
    };
    // The file's bytes, rendered in place into one buffer sized like the
    // previous image; the in-memory blob is a view of the same buffer.
    let mut file = BytesMut::with_capacity(SNAP_HEAD + size);
    file.put_slice(&[0; SNAP_HEAD]);
    image(&mut file);
    seal_snapshot_file(index, &mut file);
    let file = file.freeze();
    let blob = file.slice(SNAP_HEAD..);
    if let Some(dir) = &dir {
        install_synced(dir, SNAP_TMP, SNAP_FILE, &[&file]).expect("snapshot install");
        // Until the log is cut below, recovery skips the records the
        // snapshot covers by index.
        sync_dir(dir);
    }
    let mut log = shared.log.lock();
    let mut d = shared.state.lock();
    let mut keep = std::mem::take(&mut d.synced);
    if with_tail {
        keep.append(&mut d.in_flight);
    }
    keep.drain(..(cut - d.trimmed).min(keep.len()));
    drop(d);
    if let Some(dir) = &dir {
        *log = None; // the rename replaces the file
        install_synced(dir, LOG_TMP, LOG_FILE, &[&keep, &ZEROS]).expect("log install");
        sync_dir(dir);
    }
    let mut d = shared.state.lock();
    d.snapshot = Some((index, blob));
    d.synced = keep;
    d.trimmed = cut;
}

/// Makes renames inside `dir` durable: without this a power cut could
/// bring back the old names over the new files.
fn sync_dir(dir: &Path) {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .expect("wal dir sync");
}

/// Runs one sync to completion, then calls its `done`. A checkpoint's
/// image goes to `behind` when the disk has an image writer, else it is
/// written here, before the report.
fn run(shared: &Shared, job: Job, behind: Option<&mpsc::Sender<Behind>>) {
    match job.work {
        Work::Commit => commit(shared),
        Work::Checkpoint {
            index,
            cut,
            image,
            behind: true,
        } => {
            commit(shared);
            match behind {
                Some(tx) => {
                    let mut d = shared.state.lock();
                    while d.imaging {
                        shared.changed.wait(&mut d);
                    }
                    d.imaging = true;
                    drop(d);
                    tx.send((index, cut, image))
                        .expect("wal image writer alive");
                }
                None => install(shared, index, cut, image, false),
            }
        }
        Work::Checkpoint {
            index, cut, image, ..
        } => {
            let mut d = shared.state.lock();
            while d.imaging {
                shared.changed.wait(&mut d);
            }
            drop(d);
            install(shared, index, cut, image, true);
        }
    }
    let mut d = shared.state.lock();
    d.syncs += 1;
    d.busy = false;
    drop(d);
    shared.changed.notify_all();
    if let Some(done) = job.done {
        done();
    }
}

/// The file backend's worker threads: the syncer runs the syncs handed
/// off, in FIFO order; the image writer writes the snapshot images of
/// checkpoints behind them, at idle priority. Dropping the last handle
/// stops both after the work already queued.
struct Workers {
    jobs: Option<mpsc::Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

impl Workers {
    fn spawn(shared: &Arc<Shared>, name: &str) -> Workers {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (images, image_rx) = mpsc::channel::<Behind>();
        let spawn = |what: &str, body: Box<dyn FnOnce() + Send>| {
            let exit = Exit(shared.clone());
            std::thread::Builder::new()
                .name(format!("wal-{what}-{name}"))
                .spawn(move || {
                    let _exit = exit;
                    body()
                })
                .expect("spawn wal worker")
        };
        let syncer = {
            let shared = shared.clone();
            spawn(
                "sync",
                Box::new(move || {
                    for job in job_rx {
                        run(&shared, job, Some(&images));
                    }
                }),
            )
        };
        let writer = {
            let shared = shared.clone();
            spawn(
                "image",
                Box::new(move || {
                    run_at_idle_priority();
                    for (index, cut, image) in image_rx {
                        install(&shared, index, cut, image, false);
                        shared.state.lock().imaging = false;
                        shared.changed.notify_all();
                    }
                }),
            )
        };
        Workers {
            jobs: Some(jobs),
            threads: vec![syncer, writer],
        }
    }
}

/// Lowers the calling thread to idle scheduling priority, where it only
/// gets CPU no other thread wants. Rendering an image is a millisecond-long
/// burst of CPU; at normal priority, on a machine with as many cores as
/// event loops, it would hold a loop off its core for as long. Best effort:
/// where the call fails the thread keeps its priority.
#[cfg(target_os = "linux")]
fn run_at_idle_priority() {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: pid 0 is the calling thread, and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) };
}

#[cfg(not(target_os = "linux"))]
fn run_at_idle_priority() {}

/// Marks the disk's workers stopped when a worker thread exits, by a
/// panic too, so [`settle_disks`] stops waiting for work that will
/// never complete.
struct Exit(Arc<Shared>);

impl Drop for Exit {
    fn drop(&mut self) {
        self.0.state.lock().stopped = true;
        self.0.changed.notify_all();
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // The syncer exits first and drops the image writer's sender.
        self.jobs.take();
        for t in self.threads.drain(..) {
            if t.thread().id() != std::thread::current().id() {
                let _ = t.join();
            }
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
    shared: Arc<Shared>,
    workers: Option<Arc<Workers>>,
}

impl Disk {
    /// Opens (or re-opens) the disk named `name` under the runtime's
    /// storage mode. `fsync_cost` is the modeled duration one sync charges
    /// on the virtual backend (the file backend pays real time instead,
    /// and charges zero). A file-backed disk starts its syncer thread and
    /// its image writer.
    pub fn open(mode: &StorageMode, name: &str, fsync_cost: Duration) -> Disk {
        match mode {
            StorageMode::Virtual => Disk::new(Backend::Mem, Vec::new(), None, fsync_cost),
            StorageMode::File { root } => {
                let dir = root.join(name);
                std::fs::create_dir_all(&dir).expect("wal dir");
                let synced = std::fs::read(dir.join(LOG_FILE)).unwrap_or_default();
                let snapshot = std::fs::read(dir.join(SNAP_FILE))
                    .ok()
                    .and_then(|raw| decode_snapshot_file(&raw));
                let mut disk = Disk::new(Backend::File { dir }, synced, snapshot, Duration::ZERO);
                disk.workers = Some(Arc::new(Workers::spawn(&disk.shared, name)));
                let mut disks = FILE_DISKS.lock();
                disks.retain(|(_, d)| d.strong_count() > 0);
                disks.push((root.clone(), Arc::downgrade(&disk.shared)));
                disk
            }
        }
    }

    fn new(
        backend: Backend,
        synced: Vec<u8>,
        snapshot: Option<(i64, Bytes)>,
        fsync_cost: Duration,
    ) -> Disk {
        let inner = DiskInner {
            backend,
            synced,
            trimmed: 0,
            in_flight: Vec::new(),
            unsynced: Vec::new(),
            snapshot,
            fsync_cost,
            syncs: 0,
            busy: false,
            imaging: false,
            stopped: false,
            deferred: None,
        };
        Disk {
            shared: Arc::new(Shared {
                log: Mutex::new(None),
                state: Mutex::new(inner),
                changed: Condvar::new(),
            }),
            workers: None,
        }
    }

    /// A copy whose future diverges from this disk's, as a forked
    /// execution's must (the model checker forks replicas): a virtual
    /// disk's bytes are copied, while any other disk is shared — there is
    /// one platter, and only virtual disks are forked.
    pub fn fork(&self) -> Disk {
        let d = self.shared.state.lock();
        if !matches!(d.backend, Backend::Mem) {
            return self.clone();
        }
        let copy = Disk::new(
            Backend::Mem,
            d.synced.clone(),
            d.snapshot.clone(),
            d.fsync_cost,
        );
        let mut c = copy.shared.state.lock();
        (c.trimmed, c.unsynced, c.syncs) = (d.trimmed, d.unsynced.clone(), d.syncs);
        drop(c);
        copy
    }

    /// A purely in-memory disk with the given modeled fsync cost.
    pub fn in_memory(fsync_cost: Duration) -> Disk {
        Disk::open(&StorageMode::Virtual, "mem", fsync_cost)
    }

    /// An in-memory disk whose handed-off syncs complete only when the
    /// test calls [`Disk::complete_next`] — late, after further appends,
    /// or never before a power cut. Inline syncs complete at once.
    pub fn in_memory_deferred(fsync_cost: Duration) -> Disk {
        Disk::new(
            Backend::Deferred { early: false },
            Vec::new(),
            None,
            fsync_cost,
        )
    }

    /// Test double of a broken syncer, for a deferred disk: every
    /// hand-off reports completion at once, while its bytes still wait for
    /// [`Disk::complete_next`] to become durable.
    pub fn report_at_hand_off(&self) {
        if let Backend::Deferred { early } = &mut self.shared.state.lock().backend {
            *early = true;
        }
    }

    /// Completes a deferred disk's in-flight sync, calling its `done`.
    /// False when none is in flight.
    pub fn complete_next(&self) -> bool {
        let job = self.shared.state.lock().deferred.take();
        match job {
            Some(job) => {
                run(&self.shared, job, None);
                true
            }
            None => false,
        }
    }

    /// Whether handed-off syncs complete later, off the caller's thread
    /// (the file backend, and deferred test disks). A virtual disk always
    /// syncs inline.
    pub fn syncs_off_thread(&self) -> bool {
        !matches!(self.shared.state.lock().backend, Backend::Mem)
    }

    /// Whether a checkpoint's image is still being written behind the
    /// commits. A checkpoint handed off meanwhile would hold up the syncer
    /// until it is done, and every commit behind that one.
    pub fn image_in_flight(&self) -> bool {
        self.shared.state.lock().imaging
    }

    /// The disk's locks once nothing is in flight: no sync, no image.
    fn quiet(&self) -> (MutexGuard<'_, Option<LogFile>>, MutexGuard<'_, DiskInner>) {
        loop {
            let log = self.shared.log.lock();
            let mut d = self.shared.state.lock();
            if !d.busy && !d.imaging {
                return (log, d);
            }
            assert!(
                d.deferred.is_none(),
                "a deferred disk's sync completes through `complete_next`"
            );
            drop(log);
            self.shared.changed.wait(&mut d);
        }
    }

    /// Runs `work` on the calling thread, image included; returns the
    /// modeled cost.
    fn sync_inline(&self, work: Work) -> Duration {
        let cost = {
            let (_log, mut d) = self.quiet();
            d.in_flight = std::mem::take(&mut d.unsynced);
            d.busy = true;
            d.fsync_cost
        };
        run(&self.shared, Job { work, done: None }, None);
        cost
    }

    /// Queues `work` — the whole unsynced tail goes in flight with it;
    /// `done` runs once it is durable. The caller starts the next sync
    /// only after `done`, so this never waits.
    fn sync_off_thread(&self, work: Work, done: Done) {
        let mut d = self.shared.state.lock();
        assert!(!d.busy, "one sync in flight per disk");
        d.in_flight = std::mem::take(&mut d.unsynced);
        d.busy = true;
        let mut job = Job {
            work,
            done: Some(done),
        };
        match &d.backend {
            Backend::File { .. } => {
                drop(d);
                let workers = self
                    .workers
                    .as_ref()
                    .expect("a file-backed disk has workers");
                let jobs = workers
                    .jobs
                    .as_ref()
                    .expect("the syncer runs while the disk is open");
                jobs.send(job).expect("wal syncer alive");
            }
            Backend::Deferred { early } => {
                let early = early.then(|| job.done.take()).flatten();
                d.deferred = Some(job);
                drop(d);
                if let Some(done) = early {
                    done();
                }
            }
            Backend::Mem => {
                drop(d);
                run(&self.shared, job, None);
            }
        }
    }

    /// Emulates the effect of the power loss that preceded this restart:
    /// any prefix of what was in flight or unsynced — chosen
    /// deterministically from `seed`, possibly mid-record, possibly with
    /// one flipped bit — may have reached the platter; the rest is gone.
    /// Work still running on the disk's threads finishes first (so the cut
    /// sees a quiet disk); a deferred sync the test never completed is cut
    /// off and never reports. Idempotent once the tail is consumed:
    /// calling again with no new appends is a no-op.
    pub fn begin_recovery(&self, seed: u64) {
        {
            let mut d = self.shared.state.lock();
            if d.deferred.take().is_some() {
                d.busy = false;
            }
        }
        let (mut log, mut d) = self.quiet();
        let mut tail = std::mem::take(&mut d.in_flight);
        tail.append(&mut d.unsynced);
        if tail.is_empty() {
            return;
        }
        let h = mix64(seed);
        let keep = (h % (tail.len() as u64 + 1)) as usize;
        tail.truncate(keep);
        // One run in four also flips a bit inside the kept prefix.
        if keep > 0 && (h >> 32) & 3 == 0 {
            let bit = ((h >> 34) % (keep as u64 * 8)) as usize;
            tail[bit / 8] ^= 1 << (bit % 8);
        }
        d.synced.extend_from_slice(&tail);
        self.shared.rewrite_log(&mut log, &d);
    }

    /// Drops everything — the disk itself was lost (the amnesia restart
    /// kind). Present so harnesses can model disk loss explicitly.
    pub fn wipe(&self) {
        let (mut log, mut d) = self.quiet();
        d.synced.clear();
        d.unsynced.clear();
        d.snapshot = None;
        *log = None;
        if let Some(dir) = d.dir() {
            let _ = std::fs::remove_file(dir.join(LOG_FILE));
            let _ = std::fs::remove_file(dir.join(SNAP_FILE));
        }
    }

    /// Number of syncs completed (group-commit accounting).
    pub fn sync_count(&self) -> u64 {
        self.shared.state.lock().syncs
    }

    /// Bytes in the synced log (test observability).
    pub fn synced_len(&self) -> usize {
        self.shared.state.lock().synced.len()
    }

    /// Test hook: corrupt the synced log by truncating it to `len` bytes.
    pub fn truncate_synced(&self, len: usize) {
        let (mut log, mut d) = self.quiet();
        let n = len.min(d.synced.len());
        d.synced.truncate(n);
        self.shared.rewrite_log(&mut log, &d);
    }

    /// Test hook: flip one bit of the synced log.
    pub fn flip_bit(&self, bit: usize) {
        let (mut log, mut d) = self.quiet();
        if d.synced.is_empty() {
            return;
        }
        let bit = bit % (d.synced.len() * 8);
        d.synced[bit / 8] ^= 1 << (bit % 8);
        self.shared.rewrite_log(&mut log, &d);
    }
}

/// Writes `bytes` to `dir/tmp`, forces them to storage, then renames the
/// file over `dir/name`: whichever name a crash leaves behind holds whole,
/// synced contents — never a renamed-but-empty file.
fn install_synced(dir: &Path, tmp: &str, name: &str, parts: &[&[u8]]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(dir.join(tmp))?;
    for bytes in parts {
        f.write_all(bytes)?;
    }
    f.sync_all()?;
    std::fs::rename(dir.join(tmp), dir.join(name))
}

/// Bytes in front of a snapshot file's blob: covered index, checksum and
/// length of the blob.
const SNAP_HEAD: usize = 16;

/// Fills in the head of a snapshot file whose blob follows
/// [`SNAP_HEAD`] placeholder bytes in `file`.
fn seal_snapshot_file(index: i64, file: &mut [u8]) {
    let (head, blob) = file.split_at_mut(SNAP_HEAD);
    head[0..8].copy_from_slice(&index.to_le_bytes());
    head[8..12].copy_from_slice(&checksum(blob).to_le_bytes());
    head[12..16].copy_from_slice(&(blob.len() as u32).to_le_bytes());
}

fn decode_snapshot_file(raw: &[u8]) -> Option<(i64, Bytes)> {
    if raw.len() < SNAP_HEAD {
        return None;
    }
    let index = i64::from_le_bytes(raw[0..8].try_into().ok()?);
    let sum = u32::from_le_bytes(raw[8..12].try_into().ok()?);
    let len = u32::from_le_bytes(raw[12..16].try_into().ok()?) as usize;
    if raw.len() < SNAP_HEAD + len {
        return None;
    }
    let blob = &raw[SNAP_HEAD..SNAP_HEAD + len];
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
    let mut out = Vec::new();
    walk(log, |index, body, _| {
        if index > floor {
            out.push((index, body.clone()));
        }
    });
    out
}

/// Walks the longest valid record prefix of `log`, calling `visit` with
/// each record's index, body and frame length; returns the prefix's byte
/// length.
fn walk(log: &[u8], mut visit: impl FnMut(i64, &Value, usize)) -> usize {
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
        visit(index, &p.1, 8 + len);
        at += 8 + len;
    }
    at
}

/// Source of [`Wal::generation`]: unique per `Wal::open` in the process.
static GENERATIONS: AtomicU64 = AtomicU64::new(1);

/// The write-ahead log over a [`Disk`]: framed appends, group commit,
/// snapshot install with log truncation. A clone is a fork over
/// [`Disk::fork`].
pub struct Wal {
    disk: Disk,
    scratch: BytesMut,
    pending: u64,
    generation: u64,
    /// `(index, frame length)` of every record in the log, oldest first:
    /// where a checkpoint cuts, without decoding a record.
    frames: VecDeque<(i64, usize)>,
    /// Log offset of the first frame in `frames`.
    start: usize,
}

impl Clone for Wal {
    fn clone(&self) -> Wal {
        Wal {
            disk: self.disk.fork(),
            scratch: BytesMut::new(),
            frames: self.frames.clone(),
            ..*self
        }
    }
}

impl Wal {
    /// Opens a log over the disk, cutting the synced log back to its valid
    /// prefix first: whatever a power cut tore must not stay *inside* the
    /// log, or every record appended behind it would be invisible to the
    /// next recovery scan.
    pub fn open(disk: Disk) -> Wal {
        let mut frames = VecDeque::new();
        let start = {
            let d = disk.shared.state.lock();
            let valid = walk(&d.synced, |index, _, len| frames.push_back((index, len)));
            if valid < d.synced.len() {
                drop(d);
                let (mut log, mut d) = disk.quiet();
                d.synced.truncate(valid);
                disk.shared.rewrite_log(&mut log, &d);
                d.trimmed
            } else {
                d.trimmed
            }
        };
        Wal {
            disk,
            scratch: BytesMut::new(),
            pending: 0,
            generation: GENERATIONS.fetch_add(1, Ordering::Relaxed),
            frames,
            start,
        }
    }

    /// The underlying disk handle.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// This log's generation: distinct for every [`Wal::open`], so a
    /// completion reported for an earlier opening of the same disk can be
    /// told apart.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends one record to the unsynced tail. Not durable until a sync
    /// that covers it completes.
    pub fn append(&mut self, index: i64, body: &Value) {
        self.scratch.clear();
        encode_value(
            &Value::pair(Value::Int(index), body.clone()),
            &mut self.scratch,
        );
        let mut d = self.disk.shared.state.lock();
        d.unsynced
            .extend_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        d.unsynced
            .extend_from_slice(&checksum(&self.scratch).to_le_bytes());
        d.unsynced.extend_from_slice(&self.scratch);
        self.frames.push_back((index, 8 + self.scratch.len()));
        self.pending += 1;
    }

    /// Records appended since the last sync was started.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Group commit on the caller's thread: promotes the whole unsynced
    /// tail with one sync and returns the modeled cost to charge (zero
    /// when nothing was pending, and always zero on the file backend,
    /// which pays in real time).
    pub fn commit(&mut self) -> Duration {
        if self.pending == 0 {
            return Duration::ZERO;
        }
        self.pending = 0;
        self.disk.sync_inline(Work::Commit)
    }

    /// Group commit off the caller's thread: hands the whole unsynced tail
    /// to the disk's syncer, which calls `done` once it is durable. One
    /// sync is in flight per disk — start the next after `done`.
    pub fn hand_off(&mut self, done: impl FnOnce() + Send + 'static) {
        self.pending = 0;
        self.disk.sync_off_thread(Work::Commit, Box::new(done));
    }

    /// Installs a snapshot covering everything through `index` and
    /// truncates the log to the records above it, kept byte for byte. The
    /// snapshot stands in for the unsynced tail at or below `index`. On
    /// the file backend the snapshot lands via write-tmp + fsync + atomic
    /// rename, then the log is rewritten the same way and the directory
    /// synced — a crash between the two renames leaves the new snapshot
    /// with stale low records, which recovery skips by index. Returns the
    /// modeled cost (one sync).
    pub fn save_snapshot(&mut self, index: i64, blob: &Value) -> Duration {
        let blob = blob.clone();
        self.save_image(index, move |buf| encode_value(&blob, buf))
    }

    /// [`Wal::save_snapshot`] of the blob `image` renders (it appends the
    /// encoding of the blob value).
    pub fn save_image(
        &mut self,
        index: i64,
        image: impl FnOnce(&mut BytesMut) + Send + 'static,
    ) -> Duration {
        let work = self.checkpoint(index, Box::new(image), false);
        self.disk.sync_inline(work)
    }

    /// [`Wal::save_image`] off the caller's thread: the syncer renders the
    /// image, writes and installs it, then calls `done`.
    pub fn hand_off_snapshot(
        &mut self,
        index: i64,
        image: impl FnOnce(&mut BytesMut) + Send + 'static,
        done: impl FnOnce() + Send + 'static,
    ) {
        let work = self.checkpoint(index, Box::new(image), false);
        self.disk.sync_off_thread(work, Box::new(done));
    }

    /// A checkpoint that never holds up a commit: the syncer commits the
    /// unsynced tail as [`Wal::hand_off`] does and calls `done` then; the
    /// snapshot through `index` is rendered from `image` and installed
    /// behind it (on the file backend by a thread of its own, while later
    /// syncs proceed), and the log truncated to the records above `index`.
    /// At most one image is in flight per disk: a checkpoint handed off
    /// while the previous image is still being written waits for it, on
    /// the syncer — ask [`Disk::image_in_flight`] first.
    pub fn hand_off_checkpoint(
        &mut self,
        index: i64,
        image: impl FnOnce(&mut BytesMut) + Send + 'static,
        done: impl FnOnce() + Send + 'static,
    ) {
        let work = self.checkpoint(index, Box::new(image), true);
        self.disk.sync_off_thread(work, Box::new(done));
    }

    /// A checkpoint at `index`: the log's records through `index` are
    /// dropped, everything after them kept. Each sync point covers the
    /// whole unsynced tail.
    fn checkpoint(&mut self, index: i64, image: Image, behind: bool) -> Work {
        while let Some(&(i, len)) = self.frames.front() {
            if i > index {
                break;
            }
            self.start += len;
            self.frames.pop_front();
        }
        self.pending = 0;
        Work::Checkpoint {
            index,
            cut: self.start,
            image,
            behind,
        }
    }
}

/// Reads a disk back into snapshot + valid log suffix. Read-only and
/// total: corrupt snapshots fall back to `None`, corrupt logs to their
/// longest valid prefix. Call [`Disk::begin_recovery`] first after a
/// modeled power loss so the torn tail is resolved.
pub fn recover(disk: &Disk) -> Recovered {
    let d = disk.shared.state.lock();
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

    /// A forked log diverges from its original: what either appends and
    /// syncs afterwards, the other's disk never shows.
    #[test]
    fn a_forked_virtual_log_diverges_from_its_original() {
        let mut wal = Wal::open(Disk::in_memory(Duration::ZERO));
        wal.append(0, &rec(0));
        wal.commit();
        wal.append(1, &rec(1));
        let mut fork = wal.clone();
        fork.commit();
        wal.append(2, &rec(2));
        wal.commit();
        let got = |w: &Wal| recover(w.disk()).records;
        assert_eq!(got(&fork), vec![(0, rec(0)), (1, rec(1))]);
        assert_eq!(got(&wal), vec![(0, rec(0)), (1, rec(1)), (2, rec(2))]);
    }

    /// An image that renders `blob`.
    fn image(blob: &'static str) -> impl FnOnce(&mut BytesMut) + Send {
        move |buf| encode_value(&Value::str(blob), buf)
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

    /// A checkpoint keeps the records above its index byte for byte —
    /// including ones still unsynced, which it syncs — and recovery reads
    /// them back past the snapshot.
    #[test]
    fn records_above_the_snapshot_point_survive_byte_identical() {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..18 {
            wal.append(i, &rec(i));
        }
        wal.commit();
        wal.append(18, &rec(18));
        wal.append(19, &rec(19));
        let log = {
            let d = disk.shared.state.lock();
            [d.synced.as_slice(), d.unsynced.as_slice()].concat()
        };
        let mut lens = Vec::new();
        walk(&log, |_, _, len| lens.push(len));
        let cut: usize = lens[..15].iter().sum();
        wal.save_snapshot(14, &Value::str("state@14"));
        assert_eq!(
            disk.shared.state.lock().synced,
            log[cut..],
            "suffix kept verbatim"
        );
        let got = recover(&disk);
        assert_eq!(got.snapshot, Some((14, Value::str("state@14"))));
        assert_eq!(
            got.records,
            (15..20).map(|i| (i, rec(i))).collect::<Vec<_>>()
        );
    }

    /// A handed-off sync is durable only once it completes: until then
    /// recovery cannot see it, `done` has not run, and appends made
    /// meanwhile wait for the next sync — also behind a checkpoint.
    #[test]
    fn a_deferred_hand_off_completes_when_the_test_says() {
        let disk = Disk::in_memory_deferred(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        let reported = Arc::new(AtomicU64::new(0));
        let report = |n: u64| {
            let reported = reported.clone();
            move || reported.store(n, Ordering::SeqCst)
        };
        for i in 0..5 {
            wal.append(i, &rec(i));
        }
        wal.hand_off(report(1));
        wal.append(5, &rec(5));
        assert_eq!(recover(&disk).records.len(), 0, "in flight is not synced");
        assert_eq!(reported.load(Ordering::SeqCst), 0);
        assert!(disk.complete_next());
        assert_eq!(reported.load(Ordering::SeqCst), 1);
        assert_eq!(
            recover(&disk).high_index(),
            4,
            "record 5 was appended later"
        );
        assert!(!disk.complete_next(), "one sync in flight at a time");

        wal.hand_off_checkpoint(5, image("state@5"), report(2));
        wal.append(6, &rec(6));
        assert!(disk.complete_next());
        assert_eq!(reported.load(Ordering::SeqCst), 2);
        wal.commit();
        let got = recover(&disk);
        assert_eq!(got.snapshot, Some((5, Value::str("state@5"))));
        assert_eq!(got.records, vec![(6, rec(6))]);
        assert_eq!(disk.sync_count(), 3);
    }

    /// On the file backend the syncer thread runs the hand-offs and
    /// reports each; what it reported is there after a reopen.
    #[test]
    fn file_backend_syncs_off_the_calling_thread() {
        let root = std::env::temp_dir().join(format!("shadowdb-wal-off-{}", std::process::id()));
        let mode = StorageMode::File { root: root.clone() };
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        assert!(disk.syncs_off_thread());
        let mut wal = Wal::open(disk.clone());
        let (tx, rx) = mpsc::channel();
        let caller = std::thread::current().id();
        for i in 0..8 {
            wal.append(i, &rec(i));
            let tx = tx.clone();
            let done = move || tx.send(std::thread::current().id()).unwrap();
            if i == 5 {
                wal.hand_off_checkpoint(i, image("state@5"), done);
            } else {
                wal.hand_off(done);
            }
            let on = rx.recv_timeout(Duration::from_secs(10)).expect("reported");
            assert_ne!(on, caller, "the sync ran on the syncer thread");
        }
        drop((wal, disk));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        let got = recover(&disk);
        assert_eq!(got.snapshot, Some((5, Value::str("state@5"))));
        assert_eq!(got.records, vec![(6, rec(6)), (7, rec(7))]);
        disk.wipe();
        drop(disk);
        let _ = std::fs::remove_dir_all(root);
    }

    /// A substrate settles its storage root before removing it: that
    /// waits for a sync in flight, and stops waiting once the worker that
    /// owed the work died. Here the image writer panics (the expected
    /// `snapshot install` message on stderr) because the directory was
    /// removed under it.
    #[test]
    fn settling_waits_for_work_in_flight_but_not_for_a_dead_worker() {
        let root = std::env::temp_dir().join(format!("shadowdb-wal-settle-{}", std::process::id()));
        let mode = StorageMode::File { root: root.clone() };
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        wal.append(0, &rec(0));
        wal.hand_off(|| {});
        settle_disks(&root);
        assert_eq!(disk.sync_count(), 1, "settled before the sync completed");

        std::fs::remove_dir_all(&root).unwrap();
        wal.append(1, &rec(1));
        wal.hand_off_checkpoint(1, image("state@1"), || {});
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            settle_disks(&root);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("settling returns once the image writer died");
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

    /// The log file runs zeros past its last record, and commits that
    /// outgrow them extend it; a fresh open reads exactly the records, and
    /// what the next opening commits lands behind them.
    #[test]
    fn file_backend_log_keeps_zeros_ahead_and_reads_them_as_its_end() {
        let root = std::env::temp_dir().join(format!("shadowdb-wal-ahead-{}", std::process::id()));
        let mode = StorageMode::File { root: root.clone() };
        let big = |i: i64| Value::pair(Value::Int(i), Value::str(&"x".repeat(4096)));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..200 {
            wal.append(i, &big(i));
            wal.commit(); // 200 × 4 KB: past the zeros more than once
        }
        let file = root.join("r1").join(LOG_FILE);
        let on_disk = std::fs::metadata(&file).unwrap().len() as usize;
        assert!(
            on_disk > disk.synced_len(),
            "zeros ahead of the last record"
        );
        drop((wal, disk));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        assert_eq!(
            recover(&disk).records,
            (0..200).map(|i| (i, big(i))).collect::<Vec<_>>()
        );
        let mut wal = Wal::open(disk.clone());
        wal.append(200, &rec(200));
        wal.commit();
        drop((wal, disk));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        assert_eq!(recover(&disk).high_index(), 200);
        assert_eq!(recover(&disk).records.len(), 201);
        disk.wipe();
        drop(disk);
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
