//! Per-replica write-ahead log: the durability plane.
//!
//! Replicas log every executed transaction here and hold its
//! acknowledgment until the record is synced — one sync covers every
//! record appended since the previous one (group commit) — take periodic
//! snapshots, and drop the log below each snapshot. A replica restarted
//! after power loss reconstructs its state from snapshot + log replay and
//! rejoins the group by fetching only the suffix it missed — no full
//! state transfer.
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
//! # Segments
//!
//! On the file backend the log is a chain of segment files
//! (`log-<id>.seg`, ids increasing), each [`SEGMENT`] bytes of zeros
//! before the first record lands in it. Records are written over those
//! zeros and never span two segments; a record that does not fit the
//! current segment starts the next one (a record larger than a segment
//! gets one of its own, grown to fit). Truncation is an `unlink` of
//! every segment wholly below a snapshot's cut; no log byte is ever
//! copied.
//!
//! # Syncs: inline, or handed to the disk's syncer
//!
//! A sync is one of two jobs: a *commit* (write the unsynced tail into the
//! current segment and `sync_data` it) or a *checkpoint* (a commit plus a
//! snapshot image: render, write a tmp file, fsync, rename, sync the
//! directory, then unlink the segments below the image's cut).
//! [`Wal::commit`] and [`Wal::save_snapshot`] run the job on the caller's
//! thread. [`Wal::hand_off`] and [`Wal::hand_off_checkpoint`] queue it
//! instead: on the file backend each [`Disk`] has one syncer thread that
//! runs its jobs in FIFO order and calls the job's `done` once the bytes
//! are durable — a replica turns that into a message to itself (see
//! `shadowdb_runtime::completion`). At most one job is in flight per disk;
//! records appended meanwhile wait in the unsynced tail for the next one.
//! Each [`Wal::open`] draws a fresh [`Wal::generation`], so a completion
//! can name the log it belongs to.
//!
//! A second thread per disk, the image writer, runs at idle priority. It
//! writes a checkpoint's image behind the commit that reported it, unlinks
//! the segments the image made redundant, and prepares the *spare*: once
//! the current segment is half full, the next one, zeroed, synced and
//! recorded by a directory sync before the syncer needs it. A syncer that
//! outruns its spare prepares the next segment itself, and an empty log
//! gets its first segment when the disk is opened. No lock is held across file I/O: the syncer owns the
//! current segment while it writes, and the image writer never touches it.
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
//!
//! Reopening a file-backed disk ([`Disk::open`]) reads the snapshot, then
//! each segment's valid prefix in id order. A segment whose bytes past
//! that prefix are not all zeros — a torn record, a flipped bit, or a
//! first record whose index does not follow the last one read — ends the
//! log: its tail is zeroed and every later segment unlinked. A commit
//! that moves to the next segment has synced its part in the previous
//! one first, so a segment holds records only behind a whole
//! predecessor. A spare that was half prepared at the cut, or skipped by
//! the syncer's fallback, holds only zeros and reads as empty. Segments
//! an installed image left behind (a cut between the rename and the
//! unlink) hold records at or below its index, which recovery skips.

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

/// Bytes in one log segment file.
pub const SEGMENT: usize = 256 * 1024;

const SNAP_FILE: &str = "snap.bin";
const SNAP_TMP: &str = "snap.tmp";

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("log-{id:08}.seg"))
}

/// The ids of the segment files in `dir`, ascending.
fn seg_ids(dir: &Path) -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let id = name.to_str()?.strip_prefix("log-")?.strip_suffix(".seg")?;
            id.parse().ok()
        })
        .collect();
    ids.sort_unstable();
    ids
}

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
    /// Real files: a chain of log segments and a snapshot file. Commit is
    /// `write + sync_data` into the current segment, snapshot install is
    /// write-tmp + `sync_all` + atomic rename + directory sync.
    File(Segments),
}

/// The file backend's log: where its segment files are and which one the
/// commits write into.
struct Segments {
    dir: PathBuf,
    /// `(id, log offset of its first byte)` of every segment the log
    /// spans, oldest first: a segment's records run up to the next one's
    /// start, and the last one takes the commits.
    chain: VecDeque<(u64, usize)>,
    /// The last segment's open file. Taken out by whoever writes the log
    /// for as long as it writes.
    open: Option<SegFile>,
    spare: Spare,
    /// Spare preparations asked of the image writer and not finished.
    preparing: usize,
}

/// The segment after the current one.
#[derive(Clone, Copy, PartialEq)]
enum Spare {
    None,
    /// The image writer was asked to prepare this id.
    Asked(u64),
    /// Zeroed, synced and in the directory.
    Ready(u64),
}

/// A segment open for commits.
struct SegFile {
    file: std::fs::File,
    /// Bytes holding records, from the start of the file.
    used: usize,
    /// Bytes the file holds, records and zeros.
    len: usize,
}

impl SegFile {
    fn open(dir: &Path, id: u64, used: usize) -> std::io::Result<SegFile> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(seg_path(dir, id))?;
        let len = file.metadata()?.len() as usize;
        Ok(SegFile { file, used, len })
    }

    /// Writes `bytes` after the records and makes them durable. Within
    /// the zeros the file already has, `sync_data` flushes the records
    /// alone: the file's size and allocation stay as they were, and the
    /// sync waits for no filesystem journal commit.
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.file.write_all_at(bytes, self.used as u64)?;
        self.used += bytes.len();
        if self.used <= self.len {
            return self.file.sync_data();
        }
        // A record longer than a segment grew the file.
        self.len = self.used;
        self.file.sync_all()
    }
}

/// Zero bytes written per call when a file is filled with them.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// Overwrites `file` with zeros from `from` to `to` and makes them
/// durable, the file's size with them.
fn zero_fill(file: &std::fs::File, mut from: usize, to: usize) -> std::io::Result<()> {
    while from < to {
        let n = (to - from).min(ZEROS.len());
        file.write_all_at(&ZEROS[..n], from as u64)?;
        from += n;
    }
    file.sync_all()
}

/// Creates segment `id` as [`SEGMENT`] zeros, synced and recorded in the
/// directory.
fn prepare_segment(dir: &Path, id: u64) -> std::io::Result<()> {
    let file = std::fs::File::create(seg_path(dir, id))?;
    zero_fill(&file, 0, SEGMENT)?;
    sync_dir(dir)
}

/// Bytes of the frame at the head of `bytes`: its header and the payload
/// its length prefix claims, or all of `bytes` when they end inside it (a
/// torn tail).
fn frame_len(bytes: &[u8]) -> usize {
    if bytes.len() < 8 {
        return bytes.len();
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    (8 + len).min(bytes.len())
}

/// What one sync does.
enum Work {
    /// Appends the in-flight bytes to the log and syncs them.
    Commit,
    /// Installs a snapshot at `index`, rendered from `image`, and drops
    /// the log below offset `cut` (see [`DiskInner::trimmed`]).
    /// `behind`: the in-flight tail is committed to the log first and the
    /// sync reports then, while the image is written behind it; otherwise
    /// the snapshot is installed first — it stands in for the tail, which
    /// it covers — and the sync reports once both are durable.
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

/// The image writer's work.
enum Task {
    /// `(index, cut, image)` of a [`Work::Checkpoint`] whose tail is
    /// already in the log.
    Image(i64, usize, Image),
    /// Prepare this segment id as the spare.
    Spare(u64),
}

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
    /// A sync, or a repair of the log on a quiet disk, is running (at
    /// most one is).
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
    fn segments(&mut self) -> Option<&mut Segments> {
        match &mut self.backend {
            Backend::File(s) => Some(s),
            _ => None,
        }
    }

    /// Log offset one past the last synced byte.
    fn end(&self) -> usize {
        self.trimmed + self.synced.len()
    }

    /// Work the image writer owes: an image or a spare.
    fn writer_owes(&self) -> bool {
        let preparing = match &self.backend {
            Backend::File(s) => s.preparing > 0,
            _ => false,
        };
        self.imaging || preparing
    }
}

struct Shared {
    state: Mutex<DiskInner>,
    /// Signalled whenever a sync completes, an image is installed or a
    /// spare prepared.
    changed: Condvar,
    /// The image writer's queue, while it runs.
    tasks: Mutex<Option<mpsc::Sender<Task>>>,
}

impl Shared {
    /// Queues `task` for the image writer; gives it back when there is
    /// none.
    fn ask(&self, task: Task) -> Result<(), Task> {
        match &*self.tasks.lock() {
            Some(tx) => tx.send(task).map_err(|e| e.0),
            None => Err(task),
        }
    }

    /// Once the current segment is half full, asks the image writer to
    /// prepare the next one as the spare, unless one is asked for or
    /// ready: early enough that the syncer finds it ready, and not before
    /// a log needs it.
    fn ask_spare(&self, d: &mut DiskInner) {
        let Some(s) = d.segments() else { return };
        let half_full = s.open.as_ref().is_some_and(|f| f.used >= SEGMENT / 2);
        if s.spare != Spare::None || !half_full {
            return;
        }
        let id = s.chain.back().map_or(0, |c| c.0) + 1;
        s.spare = Spare::Asked(id);
        s.preparing += 1;
        if self.ask(Task::Spare(id)).is_err() {
            s.spare = Spare::None;
            s.preparing -= 1;
        }
    }
}

/// Every file-backed disk open in the process, with its storage root.
static FILE_DISKS: Mutex<Vec<(PathBuf, Weak<Shared>)>> = Mutex::new(Vec::new());

/// Waits until no disk still open under `root` has a sync, a snapshot
/// image or a spare segment in flight, or until its worker died. A
/// substrate calls it before removing `root`, once nothing can hand its
/// disks new work: a disk the harness keeps may still be writing there on
/// its own threads.
pub fn settle_disks(root: &Path) {
    let open: Vec<Arc<Shared>> = FILE_DISKS
        .lock()
        .iter()
        .filter(|(r, _)| r == root)
        .filter_map(|(_, d)| d.upgrade())
        .collect();
    for shared in open {
        let mut d = shared.state.lock();
        while (d.busy || d.writer_owes()) && !d.stopped {
            shared.changed.wait(&mut d);
        }
    }
}

/// Appends the in-flight bytes to the log and makes them durable.
fn commit(shared: &Shared) {
    let (tail, at) = {
        let d = shared.state.lock();
        (d.in_flight.clone(), d.end())
    };
    write_log(shared, at, &tail).expect("wal log append");
    let mut d = shared.state.lock();
    d.synced.extend_from_slice(&tail);
    d.in_flight.clear();
}

/// Writes `bytes` — whole frames, but for a torn last one — to the file
/// backend's segments at log offset `at`, a segment at a time: each part
/// is synced before the next segment is written. Holds no lock while it
/// writes: the current segment is out of the disk meanwhile.
fn write_log(shared: &Shared, at: usize, bytes: &[u8]) -> std::io::Result<()> {
    let mut seg = match shared.state.lock().segments() {
        Some(s) => s.open.take(),
        None => return Ok(()),
    };
    let (mut run, mut i) = (0, 0);
    while i < bytes.len() {
        let len = frame_len(&bytes[i..]);
        // A frame goes into the open segment if it fits, or if it would
        // be the segment's first (a record longer than a segment).
        let fits = seg.as_ref().is_some_and(|s| {
            let pending = s.used + (i - run);
            pending == 0 || pending + len <= SEGMENT
        });
        if !fits {
            if let Some(s) = seg.as_mut() {
                s.write(&bytes[run..i])?;
            }
            seg = Some(next_segment(shared, at + i)?);
            run = i;
        }
        i += len;
    }
    if let Some(s) = seg.as_mut() {
        s.write(&bytes[run..])?;
    }
    let mut d = shared.state.lock();
    if let Some(s) = d.segments() {
        s.open = seg;
    }
    shared.ask_spare(&mut d);
    Ok(())
}

/// Moves the log to a new segment starting at log offset `start`: the
/// spare if it is ready, else one prepared here (skipping a spare still
/// being prepared, which the image writer then removes).
fn next_segment(shared: &Shared, start: usize) -> std::io::Result<SegFile> {
    let (dir, id, ready) = {
        let mut d = shared.state.lock();
        let s = d.segments().expect("segments on the file backend");
        let last = s.chain.back().map_or(0, |c| c.0);
        let next = match s.spare {
            Spare::Ready(id) => (id, true),
            Spare::Asked(id) => (id + 1, false),
            Spare::None => (last + 1, false),
        };
        s.spare = Spare::None;
        (s.dir.clone(), next.0, next.1)
    };
    if !ready {
        prepare_segment(&dir, id)?;
    }
    let file = SegFile::open(&dir, id, 0)?;
    let mut d = shared.state.lock();
    d.segments()
        .expect("segments on the file backend")
        .chain
        .push_back((id, start));
    Ok(file)
}

/// The image writer's half of a spare: prepares segment `id`, then offers
/// it — or removes it, when the syncer moved past it meanwhile.
fn prepare_spare(shared: &Shared, id: u64) {
    let dir = {
        let mut d = shared.state.lock();
        d.segments()
            .expect("spares on the file backend")
            .dir
            .clone()
    };
    prepare_segment(&dir, id).expect("wal spare segment");
    let wanted = {
        let mut d = shared.state.lock();
        let s = d.segments().expect("spares on the file backend");
        let wanted = s.spare == Spare::Asked(id);
        if wanted {
            s.spare = Spare::Ready(id);
        }
        wanted
    };
    if !wanted {
        let _ = std::fs::remove_file(seg_path(&dir, id));
    }
    if let Some(s) = shared.state.lock().segments() {
        s.preparing -= 1;
    }
    shared.changed.notify_all();
}

/// Installs the snapshot `image` renders as covering `index`, then drops
/// the log below offset `cut`: the in-memory copy is trimmed, and every
/// segment wholly below the cut unlinked. No log byte is copied.
fn install(shared: &Shared, index: i64, cut: usize, image: Image) {
    let (dir, size) = {
        let mut d = shared.state.lock();
        let size = d.snapshot.as_ref().map_or(0, |(_, blob)| blob.len());
        (d.segments().map(|s| s.dir.clone()), size)
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
        // Until the segments below the cut are unlinked, recovery skips
        // the records the snapshot covers by index.
        sync_dir(dir).expect("wal dir sync");
    }
    let mut d = shared.state.lock();
    d.snapshot = Some((index, blob));
    // A snapshot standing in for the tail cuts past the synced log.
    let n = cut.saturating_sub(d.trimmed).min(d.synced.len());
    d.synced.drain(..n);
    d.trimmed += n;
    let mut dead = Vec::new();
    if let Some(s) = d.segments() {
        while s.chain.len() > 1 && s.chain[1].1 <= cut {
            dead.extend(s.chain.pop_front().map(|c| c.0));
        }
    }
    drop(d);
    if let Some(dir) = &dir {
        for id in dead {
            let _ = std::fs::remove_file(seg_path(dir, id));
        }
    }
}

/// Unlinks the segments `ids` and makes that durable.
fn unlink_segments(dir: &Path, ids: &[u64]) -> std::io::Result<()> {
    if ids.is_empty() {
        return Ok(());
    }
    for &id in ids {
        std::fs::remove_file(seg_path(dir, id))?;
    }
    sync_dir(dir)
}

/// Makes renames, creations and unlinks inside `dir` durable: without
/// this a power cut could bring back the old names over the new files.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir).and_then(|d| d.sync_all())
}

/// Runs one sync to completion, then calls its `done`. A checkpoint's
/// image goes to the image writer when the disk has one, else it is
/// written here, before the report.
fn run(shared: &Shared, job: Job) {
    let wait_for_image = || {
        let mut d = shared.state.lock();
        while d.imaging {
            shared.changed.wait(&mut d);
        }
        d
    };
    match job.work {
        Work::Commit => commit(shared),
        Work::Checkpoint {
            index,
            cut,
            image,
            behind: true,
        } => {
            commit(shared);
            wait_for_image().imaging = true;
            if let Err(Task::Image(index, cut, image)) = shared.ask(Task::Image(index, cut, image))
            {
                install(shared, index, cut, image);
                shared.state.lock().imaging = false;
            }
        }
        Work::Checkpoint {
            index, cut, image, ..
        } => {
            drop(wait_for_image());
            install(shared, index, cut, image);
            // The tail is at or below `index`: recovery skips it.
            commit(shared);
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
/// checkpoints behind them and prepares spare segments, at idle priority.
/// Dropping the last handle stops both after the work already queued.
struct Workers {
    shared: Arc<Shared>,
    jobs: Option<mpsc::Sender<Job>>,
    syncer: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl Workers {
    fn spawn(shared: &Arc<Shared>, name: &str) -> Workers {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (tasks, task_rx) = mpsc::channel::<Task>();
        *shared.tasks.lock() = Some(tasks);
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
                        run(&shared, job);
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
                    for task in task_rx {
                        match task {
                            Task::Image(index, cut, image) => {
                                install(&shared, index, cut, image);
                                shared.state.lock().imaging = false;
                                shared.changed.notify_all();
                            }
                            Task::Spare(id) => prepare_spare(&shared, id),
                        }
                    }
                }),
            )
        };
        Workers {
            shared: shared.clone(),
            jobs: Some(jobs),
            syncer: Some(syncer),
            writer: Some(writer),
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
        // The syncer finishes its queue first, handing the image writer
        // what it owes; then the writer's queue closes.
        self.jobs.take();
        let me = std::thread::current().id();
        let join = |t: Option<JoinHandle<()>>| {
            if let Some(t) = t.filter(|t| t.thread().id() != me) {
                let _ = t.join();
            }
        };
        join(self.syncer.take());
        self.shared.tasks.lock().take();
        join(self.writer.take());
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

/// Reads `dir`'s segments back — the log's valid bytes and the segments
/// they came from — (see the crate doc, *Crash model*),
/// repairing the files: the first segment with anything but zeros past
/// its valid prefix ends the log — every later segment is unlinked, then
/// its tail zeroed, in that order, so a cut during the repair cannot
/// leave a clean end in front of segments it was to remove — and the last
/// segment is filled out to [`SEGMENT`] zeros if a cut left it short. A
/// log without segments gets its first one here, so the first commit
/// finds it prepared.
fn read_segments(dir: &Path) -> std::io::Result<(Vec<u8>, Segments)> {
    let mut synced = Vec::new();
    let mut chain = VecDeque::new();
    let mut last = i64::MIN;
    let (mut used, mut dirty) = (0, false);
    let ids = seg_ids(dir);
    let mut ended = ids.len();
    for (k, &id) in ids.iter().enumerate() {
        let raw = std::fs::read(seg_path(dir, id))?;
        let valid = walk(&raw, &mut last, |_, _, _| {});
        chain.push_back((id, synced.len()));
        synced.extend_from_slice(&raw[..valid]);
        used = valid;
        if raw[valid..].iter().any(|b| *b != 0) {
            (ended, dirty) = (k + 1, true);
            break;
        }
    }
    unlink_segments(dir, &ids[ended..])?;
    if chain.is_empty() {
        prepare_segment(dir, 1)?;
        chain.push_back((1, 0));
    }
    let open = match chain.back() {
        Some(&(id, _)) => {
            let seg = SegFile::open(dir, id, used)?;
            let from = if dirty { used } else { seg.len };
            if from < seg.len.max(SEGMENT) {
                zero_fill(&seg.file, from, seg.len.max(SEGMENT))?;
            }
            Some(SegFile {
                len: seg.len.max(SEGMENT),
                ..seg
            })
        }
        None => None,
    };
    let segments = Segments {
        dir: dir.to_path_buf(),
        chain,
        open,
        spare: Spare::None,
        preparing: 0,
    };
    Ok((synced, segments))
}

impl Disk {
    /// Opens (or re-opens) the disk named `name` under the runtime's
    /// storage mode. `fsync_cost` is the modeled duration one sync charges
    /// on the virtual backend (the file backend pays real time instead,
    /// and charges zero). A file-backed disk reads its segments back (an
    /// empty one prepares its first), and starts its syncer thread and its
    /// image writer.
    pub fn open(mode: &StorageMode, name: &str, fsync_cost: Duration) -> Disk {
        match mode {
            StorageMode::Virtual => Disk::new(Backend::Mem, Vec::new(), None, fsync_cost),
            StorageMode::File { root } => {
                let dir = root.join(name);
                std::fs::create_dir_all(&dir).expect("wal dir");
                let (synced, segments) = read_segments(&dir).expect("wal log read");
                let snapshot = std::fs::read(dir.join(SNAP_FILE))
                    .ok()
                    .and_then(|raw| decode_snapshot_file(&raw));
                let mut disk = Disk::new(Backend::File(segments), synced, snapshot, Duration::ZERO);
                disk.workers = Some(Arc::new(Workers::spawn(&disk.shared, name)));
                disk.shared.ask_spare(&mut disk.shared.state.lock());
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
                state: Mutex::new(inner),
                changed: Condvar::new(),
                tasks: Mutex::new(None),
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
                run(&self.shared, job);
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

    /// Bytes of the installed snapshot's blob; 0 without one.
    pub fn image_len(&self) -> usize {
        let d = self.shared.state.lock();
        d.snapshot.as_ref().map_or(0, |(_, blob)| blob.len())
    }

    /// The disk's state once no sync and no image is in flight — and,
    /// with `spares`, no spare segment either — marked busy, so no sync
    /// starts until the caller clears the mark. A worker that died owes
    /// nothing more.
    fn quiet(&self, spares: bool) -> MutexGuard<'_, DiskInner> {
        let mut d = self.shared.state.lock();
        loop {
            let owes = if spares { d.writer_owes() } else { d.imaging };
            if !d.busy && (!owes || d.stopped) {
                d.busy = true;
                return d;
            }
            assert!(
                d.deferred.is_none(),
                "a deferred disk's sync completes through `complete_next`"
            );
            self.shared.changed.wait(&mut d);
        }
    }

    /// Runs `repair` on a quiet disk ([`Disk::quiet`], spares included) as
    /// its only writer, then lets syncs run again.
    fn repair(&self, repair: impl FnOnce(&Shared, MutexGuard<'_, DiskInner>)) {
        repair(&self.shared, self.quiet(true));
        self.shared.state.lock().busy = false;
        self.shared.changed.notify_all();
    }

    /// Runs `work` on the calling thread, image included; returns the
    /// modeled cost.
    fn sync_inline(&self, work: Work) -> Duration {
        let cost = {
            let mut d = self.quiet(false);
            d.in_flight = std::mem::take(&mut d.unsynced);
            d.fsync_cost
        };
        run(&self.shared, Job { work, done: None });
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
            Backend::File(_) => {
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
                run(&self.shared, job);
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
        self.repair(|shared, mut d| {
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
            let at = d.end();
            d.synced.extend_from_slice(&tail);
            drop(d);
            write_log(shared, at, &tail).expect("wal log tear");
        });
    }

    /// Drops everything — the disk itself was lost (the amnesia restart
    /// kind). Present so harnesses can model disk loss explicitly. On the
    /// file backend every segment goes, and the snapshot.
    pub fn wipe(&self) {
        self.repair(|_, mut d| {
            d.synced.clear();
            d.unsynced.clear();
            d.trimmed = 0;
            d.snapshot = None;
            let Some(s) = d.segments() else { return };
            s.chain.clear();
            s.open = None;
            s.spare = Spare::None;
            let dir = s.dir.clone();
            drop(d);
            for id in seg_ids(&dir) {
                let _ = std::fs::remove_file(seg_path(&dir, id));
            }
            let _ = std::fs::remove_file(dir.join(SNAP_FILE));
        });
    }

    /// Number of syncs completed (group-commit accounting).
    pub fn sync_count(&self) -> u64 {
        self.shared.state.lock().syncs
    }

    /// Bytes in the synced log, over every segment (test observability).
    pub fn synced_len(&self) -> usize {
        self.shared.state.lock().synced.len()
    }

    /// Test hook: corrupt the synced log by truncating it to `len` bytes
    /// (the segment holding the cut is zeroed past it, later ones
    /// unlinked).
    pub fn truncate_synced(&self, len: usize) {
        self.repair(|shared, d| cut_log(shared, d, len));
    }

    /// Test hook: flip one bit of the synced log, in whichever segment
    /// holds it.
    pub fn flip_bit(&self, bit: usize) {
        self.repair(|_, mut d| {
            if d.synced.is_empty() {
                return;
            }
            let bit = bit % (d.synced.len() * 8);
            d.synced[bit / 8] ^= 1 << (bit % 8);
            let (at, byte) = (d.trimmed + bit / 8, d.synced[bit / 8]);
            let Some(s) = d.segments() else { return };
            let &(id, start) = s
                .chain
                .iter()
                .rev()
                .find(|c| c.1 <= at)
                .expect("a segment holds every synced byte");
            let dir = s.dir.clone();
            drop(d);
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(seg_path(&dir, id))
                .expect("wal segment open");
            file.write_all_at(&[byte], (at - start) as u64)
                .and_then(|_| file.sync_data())
                .expect("wal bit flip");
        });
    }
}

/// Cuts the synced log back to its first `len` bytes, on a quiet disk:
/// the segment holding the new end is zeroed from there, and every later
/// one unlinked.
fn cut_log(shared: &Shared, mut d: MutexGuard<'_, DiskInner>, len: usize) {
    let len = len.min(d.synced.len());
    d.synced.truncate(len);
    let end = d.end();
    let Some(s) = d.segments() else { return };
    let mut dead = Vec::new();
    while s.chain.back().is_some_and(|c| c.1 > end) {
        dead.extend(s.chain.pop_back().map(|c| c.0));
    }
    let Some(&(id, start)) = s.chain.back() else {
        return;
    };
    s.open = None;
    let dir = s.dir.clone();
    drop(d);
    unlink_segments(&dir, &dead).expect("wal log cut");
    let seg = SegFile::open(&dir, id, end - start).expect("wal segment open");
    zero_fill(&seg.file, seg.used, seg.len).expect("wal log cut");
    if let Some(s) = shared.state.lock().segments() {
        s.open = Some(seg);
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
    walk(log, &mut { i64::MIN }, |index, body, _| {
        if index > floor {
            out.push((index, body.clone()));
        }
    });
    out
}

/// Walks the longest valid record prefix of `log` whose indexes follow
/// `last` (`i64::MIN`: any), calling `visit` with each record's index, body
/// and frame length; returns the prefix's byte length and leaves `last` at
/// its last index.
fn walk(log: &[u8], last: &mut i64, mut visit: impl FnMut(i64, &Value, usize)) -> usize {
    let mut at = 0usize;
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
        if index <= *last && *last != i64::MIN {
            break; // index regression: corruption that still decoded
        }
        *last = index;
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
    /// Bytes of the frames in `frames`: the log above the last cut.
    above: usize,
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
        let (valid, len, start) = {
            let d = disk.shared.state.lock();
            let valid = walk(&d.synced, &mut { i64::MIN }, |index, _, len| {
                frames.push_back((index, len))
            });
            (valid, d.synced.len(), d.trimmed)
        };
        if valid < len {
            disk.repair(|shared, d| cut_log(shared, d, valid));
        }
        Wal {
            disk,
            scratch: BytesMut::new(),
            pending: 0,
            generation: GENERATIONS.fetch_add(1, Ordering::Relaxed),
            frames,
            start,
            above: valid,
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
        self.above += 8 + self.scratch.len();
        self.pending += 1;
    }

    /// Records appended since the last sync was started.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Bytes of log appended above the last checkpoint's cut, synced or
    /// not: what a recovery would replay on top of the snapshot.
    pub fn log_len(&self) -> usize {
        self.above
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

    /// Installs a snapshot covering everything through `index` and drops
    /// the log below the records above it, which stay where they are. The
    /// snapshot stands in for the unsynced tail at or below `index`. On
    /// the file backend the snapshot lands via write-tmp + fsync + atomic
    /// rename and a directory sync, then the tail is committed behind it
    /// and the segments below the cut are unlinked — a crash in between
    /// leaves the new snapshot with stale low records, which recovery
    /// skips by index. Returns the modeled cost (one sync).
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
    /// behind it (on the file backend by the image writer, while later
    /// syncs proceed), and the log below the records above `index`
    /// dropped. At most one image is in flight per disk: a checkpoint
    /// handed off while the previous image is still being written waits
    /// for it, on the syncer — ask [`Disk::image_in_flight`] first.
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
            self.above -= len;
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
        walk(&log, &mut { i64::MIN }, |_, _, len| lens.push(len));
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
    /// waits for a sync in flight, for the spare segment the image writer
    /// prepares, and for the segments a checkpoint unlinks — and stops
    /// waiting once the worker that owed the work died. Here the image
    /// writer panics (the expected `snapshot install` message on stderr)
    /// because the directory was removed under it.
    #[test]
    fn settling_waits_for_work_in_flight_but_not_for_a_dead_worker() {
        let root = std::env::temp_dir().join(format!("shadowdb-wal-settle-{}", std::process::id()));
        let mode = StorageMode::File { root: root.clone() };
        let dir = root.join("r1");
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        wal.append(0, &rec(0));
        wal.hand_off(|| {});
        settle_disks(&root);
        assert_eq!(disk.sync_count(), 1, "settled before the sync completed");
        let lens = |ids: &[u64]| -> Vec<usize> {
            ids.iter()
                .map(|id| std::fs::metadata(seg_path(&dir, *id)).unwrap().len() as usize)
                .collect()
        };
        assert_eq!(lens(&seg_ids(&dir)), vec![SEGMENT], "the first segment");

        // Records of 40 KB: four fill the first segment past half, which
        // asks for the spare; three more move into it, and a checkpoint
        // through them leaves the first segment below its cut.
        let big = |i: i64| Value::pair(Value::Int(i), Value::str(&"x".repeat(40_000)));
        let (tx, rx) = mpsc::channel();
        let commit = |wal: &mut Wal, range: std::ops::RangeInclusive<i64>| {
            for i in range {
                wal.append(i, &big(i));
            }
            let tx = tx.clone();
            wal.hand_off(move || tx.send(()).unwrap());
            rx.recv_timeout(Duration::from_secs(10)).expect("reported");
        };
        commit(&mut wal, 1..=4);
        settle_disks(&root);
        let ids = seg_ids(&dir);
        assert_eq!(lens(&ids), vec![SEGMENT; 2], "settled before the spare");
        commit(&mut wal, 5..=7);
        wal.hand_off_checkpoint(7, image("state@7"), || {});
        settle_disks(&root);
        assert!(
            !seg_path(&dir, ids[0]).exists(),
            "settled before the unlink"
        );
        assert_eq!(seg_ids(&dir), vec![ids[1]]);

        std::fs::remove_dir_all(&root).unwrap();
        wal.append(8, &rec(8));
        wal.hand_off_checkpoint(8, image("state@8"), || {});
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

    /// Each segment file is `SEGMENT` zeros before records land in it,
    /// and records that outgrow one go on in the next; a fresh open reads
    /// exactly the records, and what the next opening commits lands
    /// behind them.
    #[test]
    fn file_backend_segments_keep_zeros_ahead_and_read_them_as_their_end() {
        let root = std::env::temp_dir().join(format!("shadowdb-wal-ahead-{}", std::process::id()));
        let mode = StorageMode::File { root: root.clone() };
        let big = |i: i64| Value::pair(Value::Int(i), Value::str(&"x".repeat(4096)));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..600 {
            wal.append(i, &big(i));
            wal.commit(); // 600 × 4 KB: past more than one segment
        }
        let dir = root.join("r1");
        settle_disks(&root);
        let ids = seg_ids(&dir);
        assert!(ids.len() >= 3, "two segments filled, a spare ahead");
        for id in &ids {
            let len = std::fs::metadata(seg_path(&dir, *id)).unwrap().len() as usize;
            assert_eq!(len, SEGMENT, "segment {id} is all there");
        }
        drop((wal, disk));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        assert_eq!(
            recover(&disk).records,
            (0..600).map(|i| (i, big(i))).collect::<Vec<_>>()
        );
        let mut wal = Wal::open(disk.clone());
        wal.append(600, &rec(600));
        wal.commit();
        drop((wal, disk));
        let disk = Disk::open(&mode, "r1", Duration::ZERO);
        assert_eq!(recover(&disk).high_index(), 600);
        assert_eq!(recover(&disk).records.len(), 601);
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
