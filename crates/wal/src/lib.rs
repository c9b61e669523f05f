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
//! The log is a chain of segments (ids increasing), each [`SEGMENT`]
//! bytes of zeros before the first record lands in it: files
//! (`log-<id>.seg`) under [`StorageMode::File`], in memory under
//! [`StorageMode::Virtual`] (each segment's written bytes, its zeros
//! implied). Records are written over those zeros and never span two
//! segments; a record that does not fit the current segment starts the
//! next one (a record larger than a segment gets one of its own, grown to
//! fit). Truncation drops every segment wholly below a snapshot's cut: no
//! log byte is ever copied, and one reader reads the chain on both stores.
//!
//! # Syncs: handed off, reported back
//!
//! A sync is one of two jobs: a *commit* (write the unsynced tail into the
//! current segment and `sync_data` it) or a *checkpoint* (a commit plus a
//! snapshot image: render, write a tmp file, fsync, rename, sync the
//! directory, then unlink the segments below the image's cut). The caller
//! never runs one: [`Wal::hand_off`], [`Wal::hand_off_checkpoint`] and
//! [`Wal::hand_off_snapshot`] queue it, and the job's `done` is called
//! with the modeled time the sync still takes — a replica turns that into
//! a message to itself, delivered that much later (see
//! `shadowdb_runtime::completion`); a harness that can wait calls
//! [`Wal::commit`], a hand-off that blocks until the report. On the file
//! backend each [`Disk`] has one syncer thread that runs its jobs in FIFO
//! order and reports once the bytes are durable, with nothing left to
//! wait; a virtual disk runs the job at hand-off and reports its modeled
//! fsync cost. At most one job is in flight per disk; records appended
//! meanwhile wait in the unsynced tail for the next one. Each
//! [`Wal::open`] draws a fresh [`Wal::generation`], so a completion can
//! name the log it belongs to.
//!
//! A second thread per file-backed disk, the image writer, runs at idle
//! priority. It writes a checkpoint's image behind the commit that
//! reported it, unlinks the segments the image made redundant, and
//! prepares the *spare*: once the current segment is half full, the next
//! one, zeroed, synced and recorded by a directory sync before the syncer
//! needs it. A syncer that outruns its spare prepares the next segment
//! itself, and an empty log gets its first segment when the disk is
//! opened. Neither worker holds a lock across file I/O: the syncer owns
//! the current segment while it writes, and the image writer never
//! touches it; a reading of the log holds the disk's lock, up to the
//! last completed write.
//!
//! # Crash model
//!
//! A [`Disk`] outlives the process that writes it (the harness holds a
//! handle across crash/restart). Appends land in an *unsynced tail*; a
//! sync moves it *in flight*, and only the job's completion makes it part
//! of the synced log (a real `write + fsync` on the file backend; on the
//! virtual one at hand-off, while the report waits out the modeled
//! [`Duration`]). Power loss may persist any prefix of what is in flight
//! or unsynced — possibly mid-record, possibly with a flipped bit — which
//! [`Disk::begin_recovery`] emulates deterministically from a seed by
//! writing that prefix into the segments before the restarted replica
//! reads the log. Everything whose completion was reported is stable;
//! the torn region is only ever written after the last completed sync,
//! which by the logging discipline contains no acked transaction.
//!
//! A rebooted replica reads its log back from the segments, through the
//! same handle or a fresh [`Disk::open`]: each one's valid prefix in id
//! order. A segment whose bytes past that prefix are not all zeros — a
//! torn record, a flipped bit, or a first record whose index does not
//! follow the last one read — ends the log, and opening the log zeroes
//! it there and drops every later segment. A commit that moves to the
//! next segment has synced its part in the previous one first, so a
//! segment holds records only behind a whole predecessor. A spare half
//! prepared at the cut, or skipped by the syncer's fallback, holds only
//! zeros and reads as empty. Segments an installed image left behind (a
//! cut between the rename and the unlink) hold records at or below its
//! index, which recovery skips.

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex, MutexGuard};
use shadowdb_eventml::codec::{decode_value, encode_value};
use shadowdb_eventml::Value;
use shadowdb_runtime::fault::mix64;
use shadowdb_runtime::StorageMode;
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
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

/// Bytes in one log segment.
pub const SEGMENT: usize = 256 * 1024;

const SNAP_FILE: &str = "snap.bin";
const SNAP_TMP: &str = "snap.tmp";

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("log-{id:08}.seg"))
}

fn open_segment(dir: &Path, id: u64) -> std::io::Result<File> {
    File::options().write(true).open(seg_path(dir, id))
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

/// How a disk runs its syncs.
enum Backend {
    /// At hand-off, reporting a modeled fsync cost. The simulator's
    /// runtime returns this mode; the "disk" survives crashes because the
    /// harness keeps the [`Disk`] handle across restart.
    Mem,
    /// In memory, but a handed-off sync completes only when the test says
    /// so ([`Disk::complete_next`]). `early`: the broken double of
    /// [`Disk::report_at_hand_off`].
    Deferred { early: bool },
    /// On the disk's syncer thread, over segment files and a snapshot
    /// file. Commit is `write + sync_data` into the current segment,
    /// snapshot install is write-tmp + `sync_all` + atomic rename +
    /// directory sync.
    File,
}

/// Where the segments are kept. A clone shares them.
#[derive(Clone)]
enum Store {
    /// `log-<id>.seg` files in this directory.
    Files(PathBuf),
    /// Each segment's written bytes, by id; the rest of the segment is
    /// zeros.
    Mem(Arc<Mutex<BTreeMap<u64, Vec<u8>>>>),
}

impl Store {
    /// The segment ids, ascending.
    fn ids(&self) -> Vec<u64> {
        let Store::Files(dir) = self else {
            return self.mem().keys().copied().collect();
        };
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

    fn mem(&self) -> MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        match self {
            Store::Mem(m) => m.lock(),
            Store::Files(_) => unreachable!("a file store keeps no bytes in memory"),
        }
    }

    /// Segment `id`'s bytes, as far as they were written (a file's zeros
    /// included). One removed meanwhile — a spare the syncer skipped —
    /// reads as empty.
    fn read(&self, id: u64) -> std::io::Result<Vec<u8>> {
        match self {
            Store::Files(dir) => match std::fs::read(seg_path(dir, id)) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
                read => read,
            },
            Store::Mem(_) => Ok(self.mem().get(&id).cloned().unwrap_or_default()),
        }
    }

    /// Creates segment `id` as [`SEGMENT`] zeros (a file: synced and
    /// recorded in the directory).
    fn create(&self, id: u64) -> std::io::Result<()> {
        let Store::Files(dir) = self else {
            self.mem().insert(id, Vec::new());
            return Ok(());
        };
        let file = File::create(seg_path(dir, id))?;
        zero_fill(&file, 0, SEGMENT)?;
        sync_dir(dir)
    }

    /// Writes `bytes` at offset `at` of segment `id` and makes them
    /// durable. Within the zeros a file already has, `sync_data` flushes
    /// the bytes alone: the file's allocation stays as it was, and the
    /// sync waits for no filesystem journal commit.
    fn write(&self, id: u64, at: usize, bytes: &[u8]) -> std::io::Result<()> {
        let Store::Files(dir) = self else {
            let mut segments = self.mem();
            let segment = segments.entry(id).or_default();
            segment.resize(segment.len().max(at + bytes.len()), 0);
            segment[at..at + bytes.len()].copy_from_slice(bytes);
            return Ok(());
        };
        let file = open_segment(dir, id)?;
        file.write_all_at(bytes, at as u64)?;
        file.sync_data()
    }

    /// Zeroes segment `id` from `from` on, durably — on files up to
    /// [`SEGMENT`] bytes at least, so a file a cut left short is filled
    /// out (`from` past the file's end: only that).
    fn zero(&self, id: u64, from: usize) -> std::io::Result<()> {
        let Store::Files(dir) = self else {
            self.mem().entry(id).or_default().truncate(from);
            return Ok(());
        };
        let file = open_segment(dir, id)?;
        let len = file.metadata()?.len() as usize;
        zero_fill(&file, from.min(len), len.max(SEGMENT))
    }

    /// Drops the segments `ids` (on files, durably).
    fn remove(&self, ids: &[u64]) -> std::io::Result<()> {
        let Store::Files(dir) = self else {
            ids.iter().for_each(|id| drop(self.mem().remove(id)));
            return Ok(());
        };
        if ids.is_empty() {
            return Ok(());
        }
        for &id in ids {
            std::fs::remove_file(seg_path(dir, id))?;
        }
        sync_dir(dir)
    }
}

/// The log: a chain of segments in a store.
struct Log {
    store: Store,
    /// `(id, log offset of its first byte)` of every segment the log
    /// spans, oldest first: a segment's records run up to the next one's
    /// start, and the last one takes the commits.
    chain: VecDeque<(u64, usize)>,
    /// Log offset one past the last byte written.
    end: usize,
    spare: Spare,
    /// Spare preparations asked of the image writer and not finished.
    preparing: usize,
}

impl Log {
    /// Log offset of the first byte the chain holds.
    fn start(&self) -> usize {
        self.chain.front().map_or(0, |c| c.1)
    }

    /// The log's valid bytes, from the chain's first segment on, as its
    /// store holds them ([`read_log`]).
    fn read(&self) -> std::io::Result<Vec<u8>> {
        let first = self.chain.front().copied().unwrap_or((0, 0));
        read_log(&self.store, first, self.end).map(|f| f.0)
    }

    /// A copy whose future diverges from this log's: a memory store's
    /// bytes are copied.
    fn fork(&self) -> Log {
        let store = match &self.store {
            Store::Mem(m) => Store::Mem(Arc::new(Mutex::new(m.lock().clone()))),
            files => files.clone(),
        };
        Log {
            store,
            chain: self.chain.clone(),
            ..*self
        }
    }
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

/// Zero bytes written per call when a file is filled with them.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// Overwrites `file` with zeros from `from` to `to` and makes them
/// durable, the file's size with them.
fn zero_fill(file: &File, mut from: usize, to: usize) -> std::io::Result<()> {
    while from < to {
        let n = (to - from).min(ZEROS.len());
        file.write_all_at(&ZEROS[..n], from as u64)?;
        from += n;
    }
    file.sync_all()
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
    /// the segments wholly below log offset `cut`.
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

/// What to call once a handed-off sync is durable, with the modeled time
/// the sync still takes.
type Done = Box<dyn FnOnce(Duration) + Send>;

/// A sync and what to call once it is durable.
struct Job {
    work: Work,
    done: Done,
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
    /// The synced log, and torn bytes a power cut left behind it.
    log: Log,
    /// Handed to a sync that has not completed: log bytes after the
    /// synced ones, as tearable as `unsynced`.
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
    /// Work the image writer owes: an image or a spare.
    fn writer_owes(&self) -> bool {
        self.imaging || self.log.preparing > 0
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

    /// Once the current segment is half full, asks the image writer (a
    /// file-backed disk's) to prepare the next one as the spare, unless
    /// one is asked for or ready: early enough that the syncer finds it
    /// ready, and not before a log needs it.
    fn ask_spare(&self, d: &mut DiskInner) {
        let s = &mut d.log;
        let half_full = s.chain.back().is_some_and(|c| s.end - c.1 >= SEGMENT / 2);
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
        (d.in_flight.clone(), d.log.end)
    };
    write_log(shared, at, &tail).expect("wal log append");
    shared.state.lock().in_flight.clear();
}

/// Writes `bytes` — whole frames, but for a torn last one — to the
/// segments at log offset `at`, the log's end, a segment at a time: each
/// part is synced before the next segment is written. Holds no lock while
/// it writes.
fn write_log(shared: &Shared, at: usize, bytes: &[u8]) -> std::io::Result<()> {
    let (store, mut seg) = {
        let d = shared.state.lock();
        (d.log.store.clone(), d.log.chain.back().copied())
    };
    let (mut run, mut i) = (0, 0);
    while i < bytes.len() {
        let len = frame_len(&bytes[i..]);
        // A frame goes into the last segment if it fits, or if it would
        // be the segment's first (a record longer than a segment).
        let fits = seg.is_some_and(|(_, start)| {
            let used = at + i - start;
            used == 0 || used + len <= SEGMENT
        });
        if !fits {
            if let Some((id, start)) = seg {
                store.write(id, at + run - start, &bytes[run..i])?;
            }
            seg = Some(next_segment(shared, at + i)?);
            run = i;
        }
        i += len;
    }
    if let Some((id, start)) = seg.filter(|_| run < bytes.len()) {
        store.write(id, at + run - start, &bytes[run..])?;
    }
    let mut d = shared.state.lock();
    d.log.end = at + bytes.len();
    shared.ask_spare(&mut d);
    Ok(())
}

/// Moves the log to a new segment starting at log offset `start`: the
/// spare if it is ready, else one prepared here (skipping a spare still
/// being prepared, which the image writer then removes).
fn next_segment(shared: &Shared, start: usize) -> std::io::Result<(u64, usize)> {
    let (store, id, ready) = {
        let mut d = shared.state.lock();
        let s = &mut d.log;
        let last = s.chain.back().map_or(0, |c| c.0);
        let (id, ready) = match s.spare {
            Spare::Ready(id) => (id, true),
            Spare::Asked(id) => (id + 1, false),
            Spare::None => (last + 1, false),
        };
        s.spare = Spare::None;
        (s.store.clone(), id, ready)
    };
    if !ready {
        store.create(id)?;
    }
    shared.state.lock().log.chain.push_back((id, start));
    Ok((id, start))
}

/// The image writer's half of a spare: prepares segment `id`, then offers
/// it — or removes it, when the syncer moved past it meanwhile.
fn prepare_spare(shared: &Shared, id: u64) {
    let store = shared.state.lock().log.store.clone();
    store.create(id).expect("wal spare segment");
    let mut d = shared.state.lock();
    let wanted = d.log.spare == Spare::Asked(id);
    if wanted {
        d.log.spare = Spare::Ready(id);
    }
    drop(d);
    if !wanted {
        let _ = store.remove(&[id]);
    }
    shared.state.lock().log.preparing -= 1;
    shared.changed.notify_all();
}

/// Installs the snapshot `image` renders as covering `index`, then drops
/// every segment wholly below log offset `cut`. No log byte is copied.
fn install(shared: &Shared, index: i64, cut: usize, image: Image) {
    let (store, size) = {
        let d = shared.state.lock();
        let size = d.snapshot.as_ref().map_or(0, |(_, blob)| blob.len());
        (d.log.store.clone(), size)
    };
    // The file's bytes, rendered in place into one buffer sized like the
    // previous image; the in-memory blob is a view of the same buffer.
    let mut file = BytesMut::with_capacity(SNAP_HEAD + size);
    file.put_slice(&[0; SNAP_HEAD]);
    image(&mut file);
    seal_snapshot_file(index, &mut file);
    let file = file.freeze();
    let blob = file.slice(SNAP_HEAD..);
    if let Store::Files(dir) = &store {
        install_synced(dir, SNAP_TMP, SNAP_FILE, &[&file]).expect("snapshot install");
        // Until the segments below the cut are unlinked, recovery skips
        // the records the snapshot covers by index.
        sync_dir(dir).expect("wal dir sync");
    }
    let mut d = shared.state.lock();
    d.snapshot = Some((index, blob));
    let chain = &mut d.log.chain;
    let mut dead = Vec::new();
    while chain.len() > 1 && chain[1].1 <= cut {
        dead.extend(chain.pop_front().map(|c| c.0));
    }
    drop(d);
    let _ = store.remove(&dead);
}

/// Makes renames, creations and unlinks inside `dir` durable: without
/// this a power cut could bring back the old names over the new files.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir).and_then(|d| d.sync_all())
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
    let after = d.fsync_cost;
    drop(d);
    shared.changed.notify_all();
    (job.done)(after);
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

/// The one reader of the log: the valid prefix of each segment `store`
/// holds from id `first` on, in id order (see the crate doc, *Crash
/// model*), the first at log offset `start`, up to the first segment with
/// anything but zeros past its valid prefix, and no byte at or past log
/// offset `end` — a write still in flight lies there. Returns the bytes,
/// the chain they came from, and whether such a segment, torn, ended it.
type Found = (Vec<u8>, VecDeque<(u64, usize)>, bool);
fn read_log(store: &Store, (first, start): (u64, usize), end: usize) -> std::io::Result<Found> {
    let (mut bytes, mut chain, mut last) = (Vec::new(), VecDeque::new(), i64::MIN);
    for id in store.ids().into_iter().filter(|id| *id >= first) {
        let raw = store.read(id)?;
        let raw = &raw[..raw.len().min(end - start - bytes.len())];
        let valid = walk(raw, &mut last, |_, _, _| {});
        chain.push_back((id, start + bytes.len()));
        bytes.extend_from_slice(&raw[..valid]);
        if raw[valid..].iter().any(|b| *b != 0) {
            return Ok((bytes, chain, true));
        }
    }
    Ok((bytes, chain, false))
}

/// Reads a log back from `store` as [`read_log`] does, as a fresh opening
/// finds it, and repairs it there: the segments beyond its end are
/// dropped, then the last one's tail is zeroed, in that order, so a cut
/// during the repair cannot leave a clean end in front of segments it was
/// to remove; and the last segment is filled out to [`SEGMENT`] zeros if a
/// cut left it short. A log without segments gets its first one here, so
/// the first commit finds it prepared.
fn load(store: Store) -> std::io::Result<Log> {
    let (bytes, mut chain, torn) = read_log(&store, (0, 0), usize::MAX)?;
    let end = bytes.len();
    match chain.back() {
        Some(&(id, first)) => {
            let beyond: Vec<u64> = store.ids().into_iter().filter(|i| *i > id).collect();
            store.remove(&beyond)?;
            // Past the end of a log that is not torn there are only zeros.
            store.zero(id, if torn { end - first } else { usize::MAX })?;
        }
        None => {
            store.create(1)?;
            chain.push_back((1, 0));
        }
    }
    Ok(Log {
        store,
        chain,
        end,
        spare: Spare::None,
        preparing: 0,
    })
}

impl Disk {
    /// Opens (or re-opens) the disk named `name` under the runtime's
    /// storage mode: a segment chain in files under the storage root, or
    /// in memory. `fsync_cost` is the modeled time a virtual disk reports
    /// each sync to take (the file backend pays real time instead, and
    /// reports zero). A file-backed disk reads its segments back (an
    /// empty one prepares its first), and starts its syncer thread and its
    /// image writer.
    pub fn open(mode: &StorageMode, name: &str, fsync_cost: Duration) -> Disk {
        let StorageMode::File { root } = mode else {
            return Disk::new(
                Backend::Mem,
                Store::Mem(Default::default()),
                None,
                fsync_cost,
            );
        };
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).expect("wal dir");
        let snapshot = std::fs::read(dir.join(SNAP_FILE))
            .ok()
            .and_then(|raw| decode_snapshot_file(&raw));
        let mut disk = Disk::new(Backend::File, Store::Files(dir), snapshot, Duration::ZERO);
        disk.workers = Some(Arc::new(Workers::spawn(&disk.shared, name)));
        disk.shared.ask_spare(&mut disk.shared.state.lock());
        let mut disks = FILE_DISKS.lock();
        disks.retain(|(_, d)| d.strong_count() > 0);
        disks.push((root.clone(), Arc::downgrade(&disk.shared)));
        disk
    }

    /// A disk over the log `store` holds, repaired ([`load`]).
    fn new(backend: Backend, store: Store, snap: Option<(i64, Bytes)>, cost: Duration) -> Disk {
        Disk::over(backend, load(store).expect("wal log read"), snap, cost)
    }

    fn over(backend: Backend, log: Log, snap: Option<(i64, Bytes)>, cost: Duration) -> Disk {
        let inner = DiskInner {
            backend,
            log,
            in_flight: Vec::new(),
            unsynced: Vec::new(),
            snapshot: snap,
            fsync_cost: cost,
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
        let copy = Disk::over(Backend::Mem, d.log.fork(), d.snapshot.clone(), d.fsync_cost);
        let mut c = copy.shared.state.lock();
        (c.unsynced, c.syncs) = (d.unsynced.clone(), d.syncs);
        drop(c);
        copy
    }

    /// A purely in-memory disk with the given modeled fsync cost.
    pub fn in_memory(fsync_cost: Duration) -> Disk {
        Disk::open(&StorageMode::Virtual, "mem", fsync_cost)
    }

    /// An in-memory disk whose handed-off syncs complete only when the
    /// test calls [`Disk::complete_next`] — late, after further appends,
    /// or never before a power cut.
    pub fn in_memory_deferred(fsync_cost: Duration) -> Disk {
        let store = Store::Mem(Default::default());
        Disk::new(Backend::Deferred { early: false }, store, None, fsync_cost)
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

    /// Runs `repair` as the disk's only writer — once no sync, no image
    /// and no spare segment is in flight, or the worker that owed one died
    /// — then lets syncs run again.
    fn repair(&self, repair: impl FnOnce(&Shared, MutexGuard<'_, DiskInner>)) {
        let mut d = self.shared.state.lock();
        while d.busy || (d.writer_owes() && !d.stopped) {
            assert!(
                d.deferred.is_none(),
                "a deferred disk's sync completes through `complete_next`"
            );
            self.shared.changed.wait(&mut d);
        }
        d.busy = true;
        repair(&self.shared, d);
        self.shared.state.lock().busy = false;
        self.shared.changed.notify_all();
    }

    /// Queues `work` — the whole unsynced tail goes in flight with it;
    /// `done` runs once it is durable: on the syncer thread, when the test
    /// says so on a deferred disk, or here on a virtual one. The caller
    /// starts the next sync only after `done`, so this never waits.
    fn sync(&self, work: Work, done: Done) {
        let mut d = self.shared.state.lock();
        assert!(!d.busy, "one sync in flight per disk");
        d.in_flight = std::mem::take(&mut d.unsynced);
        d.busy = true;
        let mut job = Job { work, done };
        match &d.backend {
            Backend::File => {
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
                let early = early.then(|| std::mem::replace(&mut job.done, Box::new(|_| {})));
                let after = d.fsync_cost;
                d.deferred = Some(job);
                drop(d);
                if let Some(done) = early {
                    done(after);
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
    /// one flipped bit — may have reached the platter, and is written into
    /// the segments; the rest is gone. Work still running on the disk's
    /// threads finishes first (so the cut sees a quiet disk); a deferred
    /// sync the test never completed is cut off and never reports.
    /// Idempotent once the tail is consumed: calling again with no new
    /// appends is a no-op.
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
            let at = d.log.end;
            drop(d);
            write_log(shared, at, &tail).expect("wal log tear");
        });
    }

    /// Drops everything — the disk itself was lost (the amnesia restart
    /// kind). Present so harnesses can model disk loss explicitly: every
    /// segment goes, and the snapshot.
    pub fn wipe(&self) {
        self.repair(|_, mut d| {
            d.unsynced.clear();
            d.snapshot = None;
            let s = &mut d.log;
            (s.chain, s.end, s.spare) = (VecDeque::new(), 0, Spare::None);
            let store = s.store.clone();
            drop(d);
            let _ = store.remove(&store.ids());
            if let Store::Files(dir) = &store {
                let _ = std::fs::remove_file(dir.join(SNAP_FILE));
            }
        });
    }

    /// Number of syncs completed (group-commit accounting).
    pub fn sync_count(&self) -> u64 {
        self.shared.state.lock().syncs
    }

    /// Bytes in the synced log, over every segment (test observability).
    pub fn synced_len(&self) -> usize {
        let d = self.shared.state.lock();
        d.log.end - d.log.start()
    }

    /// Cuts the synced log back to its first `len` bytes, on a quiet disk:
    /// the segment holding the new end is zeroed from there, and every
    /// later one dropped. [`Wal::open`] cuts off a torn tail with it, and
    /// a test corrupts the log.
    pub fn truncate_synced(&self, len: usize) {
        self.repair(|_, mut d| {
            let s = &mut d.log;
            s.end = (s.start() + len).min(s.end);
            let mut dead = Vec::new();
            while s.chain.len() > 1 && s.chain.back().is_some_and(|c| c.1 > s.end) {
                dead.extend(s.chain.pop_back().map(|c| c.0));
            }
            let Some(&(id, start)) = s.chain.back() else {
                return;
            };
            let (store, at) = (s.store.clone(), s.end - start);
            drop(d);
            store.remove(&dead).expect("wal log cut");
            store.zero(id, at).expect("wal log cut");
        });
    }

    /// Test hook: flip one bit of the synced log, in whichever segment
    /// holds it.
    pub fn flip_bit(&self, bit: usize) {
        self.repair(|_, d| {
            let (start, len) = (d.log.start(), d.log.end - d.log.start());
            let Some(bit) = (len > 0).then(|| bit % (len * 8)) else {
                return;
            };
            let at = start + bit / 8;
            let seg = d.log.chain.iter().rev().find(|c| c.1 <= at);
            let (id, at) = seg.map(|c| (c.0, at - c.1)).expect("a segment holds it");
            let store = d.log.store.clone();
            drop(d);
            let byte = store.read(id).expect("wal segment read")[at] ^ 1 << (bit % 8);
            store.write(id, at, &[byte]).expect("wal bit flip");
        });
    }
}

/// Writes `bytes` to `dir/tmp`, forces them to storage, then renames the
/// file over `dir/name`: whichever name a crash leaves behind holds whole,
/// synced contents — never a renamed-but-empty file.
fn install_synced(dir: &Path, tmp: &str, name: &str, parts: &[&[u8]]) -> std::io::Result<()> {
    let mut f = File::create(dir.join(tmp))?;
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
    /// `(index, frame length)` of every record in the log above the
    /// snapshot, oldest first: where a checkpoint cuts, without decoding
    /// a record.
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
    /// Opens a log over the disk, reading it back from its segments and
    /// cutting it back to its valid prefix first: whatever a power cut
    /// tore must not stay *inside* the log, or every record appended
    /// behind it would be invisible to the next recovery scan.
    pub fn open(disk: Disk) -> Wal {
        let (log, mut start, floor, end) = {
            let d = disk.shared.state.lock();
            let floor = d.snapshot.as_ref().map_or(i64::MIN, |s| s.0);
            (
                d.log.read().expect("wal log read"),
                d.log.start(),
                floor,
                d.log.end,
            )
        };
        if start + log.len() < end {
            disk.truncate_synced(log.len());
        }
        let mut frames = VecDeque::new();
        walk(&log, &mut { i64::MIN }, |index, _, len| {
            match index > floor {
                true => frames.push_back((index, len)),
                false => start += len,
            }
        });
        Wal {
            disk,
            scratch: BytesMut::new(),
            pending: 0,
            generation: GENERATIONS.fetch_add(1, Ordering::Relaxed),
            above: frames.iter().map(|f| f.1).sum(),
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

    /// Group commit for a caller that can wait — a harness, where a
    /// replica hands off and keeps executing: hands the unsynced tail off
    /// ([`Wal::hand_off`]) and blocks until the disk reports it durable.
    /// Returns the modeled time the disk reported: zero when nothing was
    /// pending, and always on the file backend. Not on a deferred disk,
    /// whose syncs complete only when the test says.
    pub fn commit(&mut self) -> Duration {
        if self.pending == 0 {
            return Duration::ZERO;
        }
        let (tx, rx) = mpsc::channel();
        self.hand_off(move |after| {
            let _ = tx.send(after);
        });
        rx.recv().expect("the disk reports")
    }

    /// Group commit: hands the whole unsynced tail to the disk, which
    /// calls `done` once it is durable. One sync is in flight per disk —
    /// start the next after `done`.
    pub fn hand_off(&mut self, done: impl FnOnce(Duration) + Send + 'static) {
        self.pending = 0;
        self.disk.sync(Work::Commit, Box::new(done));
    }

    /// Installs a snapshot covering everything through `index`, rendered
    /// from `image` (it appends the encoding of the blob value), and drops
    /// the log below the records above it, which stay where they are; then
    /// calls `done`. The snapshot stands in for the unsynced tail at or
    /// below `index`. On the file backend the snapshot lands via
    /// write-tmp + fsync + atomic rename and a directory sync, then the
    /// tail is committed behind it and the segments below the cut are
    /// unlinked — a crash in between leaves the new snapshot with stale
    /// low records, which recovery skips by index.
    pub fn hand_off_snapshot(
        &mut self,
        index: i64,
        image: impl FnOnce(&mut BytesMut) + Send + 'static,
        done: impl FnOnce(Duration) + Send + 'static,
    ) {
        let work = self.checkpoint(index, Box::new(image), false);
        self.disk.sync(work, Box::new(done));
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
        done: impl FnOnce(Duration) + Send + 'static,
    ) {
        let work = self.checkpoint(index, Box::new(image), true);
        self.disk.sync(work, Box::new(done));
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

/// Reads a disk back into snapshot + valid log suffix, from the segments
/// themselves. Read-only and total: corrupt snapshots fall back to
/// `None`, corrupt logs to their longest valid prefix. Call
/// [`Disk::begin_recovery`] first after a modeled power loss so the torn
/// tail is resolved.
pub fn recover(disk: &Disk) -> Recovered {
    let d = disk.shared.state.lock();
    let snapshot = d.snapshot.as_ref().and_then(|(index, blob)| {
        let mut view = blob.clone();
        let value = decode_value(&mut view).ok()?;
        view.is_empty().then_some((*index, value))
    });
    let floor = snapshot.as_ref().map(|(i, _)| *i).unwrap_or(i64::MIN);
    let records = scan_log(&d.log.read().unwrap_or_default(), floor);
    Recovered { snapshot, records }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The segment ids in `dir`, ascending.
    fn seg_ids(dir: &Path) -> Vec<u64> {
        Store::Files(dir.to_path_buf()).ids()
    }

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

    /// Hands off a snapshot of `blob` through `index`, installed ahead of
    /// the unsynced tail, and waits for its report.
    fn snapshot(wal: &mut Wal, index: i64, blob: &'static str) {
        let (tx, rx) = mpsc::channel();
        wal.hand_off_snapshot(index, image(blob), move |_| tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(10)).expect("reported");
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

    /// A record of about 40 KB: six fill a segment.
    fn big(i: i64) -> Value {
        Value::pair(Value::Int(i), Value::str(&"x".repeat(40_000)))
    }

    /// A checkpoint drops the segments wholly below its cut, in memory as
    /// on files, and recovery resumes past the snapshot.
    #[test]
    fn snapshot_truncates_and_recovery_resumes_past_it() {
        let disk = Disk::in_memory(Duration::ZERO);
        let mut wal = Wal::open(disk.clone());
        for i in 0..20 {
            wal.append(i, &big(i));
        }
        wal.commit();
        let before = disk.synced_len();
        snapshot(&mut wal, 14, "state@14");
        assert!(disk.synced_len() < before, "log truncated");
        let got = recover(&disk);
        assert_eq!(got.snapshot, Some((14, Value::str("state@14"))));
        let idx: Vec<i64> = got.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![15, 16, 17, 18, 19]);
    }

    /// The log bytes a reading of `disk`'s segments finds.
    fn segments(disk: &Disk) -> Vec<u8> {
        let d = disk.shared.state.lock();
        d.log.read().unwrap()
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
        let log = [segments(&disk), disk.shared.state.lock().unsynced.clone()].concat();
        let mut lens = Vec::new();
        walk(&log, &mut { i64::MIN }, |_, _, len| lens.push(len));
        let cut: usize = lens[..15].iter().sum();
        snapshot(&mut wal, 14, "state@14");
        assert_eq!(segments(&disk)[cut..], log[cut..], "suffix kept verbatim");
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
            move |_| reported.store(n, Ordering::SeqCst)
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
        wal.hand_off(report(3));
        assert!(disk.complete_next());
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
        let mut wal = Wal::open(disk.clone());
        let (tx, rx) = mpsc::channel();
        let caller = std::thread::current().id();
        for i in 0..8 {
            wal.append(i, &rec(i));
            let tx = tx.clone();
            let done = move |_| tx.send(std::thread::current().id()).unwrap();
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
        wal.hand_off(|_| {});
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
            wal.hand_off(move |_| tx.send(()).unwrap());
            rx.recv_timeout(Duration::from_secs(10)).expect("reported");
        };
        commit(&mut wal, 1..=4);
        settle_disks(&root);
        let ids = seg_ids(&dir);
        assert_eq!(lens(&ids), vec![SEGMENT; 2], "settled before the spare");
        commit(&mut wal, 5..=7);
        wal.hand_off_checkpoint(7, image("state@7"), |_| {});
        settle_disks(&root);
        assert!(
            !seg_path(&dir, ids[0]).exists(),
            "settled before the unlink"
        );
        assert_eq!(seg_ids(&dir), vec![ids[1]]);

        std::fs::remove_dir_all(&root).unwrap();
        wal.append(8, &rec(8));
        wal.hand_off_checkpoint(8, image("state@8"), |_| {});
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
            snapshot(&mut wal, 3, "state@3");
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
