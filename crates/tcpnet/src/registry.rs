//! Shared bookkeeping: the location → listener-address and machine map,
//! the fault plan, the frame-layer counters, and the deployment seed —
//! the state the shard event loops and the runtime handle share; the
//! handle finds the one shard that owns a location here.

use parking_lot::Mutex;
use shadowdb_loe::Loc;
use shadowdb_runtime::FaultPlan;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One allocated location: its listener address and its machine. Whether
/// it is a node or a port lives on the owning shard (its `hosts`/`ports`
/// maps) — senders only need somewhere to connect, and to know whether
/// the destination shares their machine.
struct SlotInfo {
    /// Loopback address of the location's listener.
    addr: SocketAddr,
    /// The machine the location runs on. The locations of one machine
    /// share a shard thread and hand each other messages in memory.
    machine: u32,
}

/// The allocation table: slot `i` is location `i`.
#[derive(Default)]
struct Slots {
    info: Vec<SlotInfo>,
    /// Machines opened so far; the next one opened gets this number.
    machines: u32,
}

/// Link-state counters summed over every thread of the net: how often the
/// frame layer reconnected, dropped, duplicated or wrote a frame, how many
/// `writev` calls carried them, and how many messages never needed a
/// socket. Tests assert on these through `TcpNet::link_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful re-establishments of a previously connected link
    /// (force-closes by the fault shim land here after heal).
    pub reconnects: u64,
    /// Messages lost: lossy-window verdicts plus drop-oldest evictions
    /// from a full pending queue, on links and colocated pairs alike.
    pub frames_dropped: u64,
    /// Messages delivered twice by a duplication window.
    pub frames_duplicated: u64,
    /// Frames written whole to a socket by node-to-node links. The
    /// driver's injections cross no socket and are not counted. A frame
    /// rewritten after a broken connection counts once.
    pub frames_written: u64,
    /// `writev` calls on node-to-node links that wrote bytes: with
    /// `frames_written`, how well the shards batch frames per syscall.
    pub writes: u64,
    /// Messages handed to a location of the sender's own machine, which
    /// cross no socket.
    pub colocated: u64,
}

/// One thread's share of [`LinkStats`]. Each shard owns one and is its
/// only writer, so counting on the hot path touches no cache line another
/// thread writes; a read sums them all.
#[derive(Default)]
#[repr(align(64))]
pub struct Counters {
    /// See [`LinkStats::reconnects`].
    pub reconnects: AtomicU64,
    /// See [`LinkStats::frames_dropped`].
    pub frames_dropped: AtomicU64,
    /// See [`LinkStats::frames_duplicated`].
    pub frames_duplicated: AtomicU64,
    /// See [`LinkStats::frames_written`].
    pub frames_written: AtomicU64,
    /// See [`LinkStats::writes`].
    pub writes: AtomicU64,
    /// See [`LinkStats::colocated`].
    pub colocated: AtomicU64,
}

/// Adds `n` to a counter of the calling thread's own [`Counters`]. The
/// owner is the only writer, so a plain load and store suffice.
pub fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// The shared fault plane of a net: the installed schedule every link and
/// colocated pair consults.
pub struct FaultPlane {
    /// Fast-path flag: set once a plan is installed, so the per-message
    /// send path never touches the mutex on an unfaulted net.
    pub engaged: AtomicBool,
    /// The installed fault schedule, if any.
    pub plan: Mutex<Option<FaultPlan>>,
}

/// State shared by the runtime handle and the shard event loops.
pub struct Registry {
    slots: Mutex<Slots>,
    /// Every thread's counters, summed by [`Registry::stats`].
    counters: Mutex<Vec<Arc<Counters>>>,
    /// Shard threads of the net: a machine's locations live on shard
    /// `machine % shards`.
    shards: usize,
    /// Set once at shutdown: link connects stop retrying.
    pub shutdown: AtomicBool,
    /// The net's start instant: fault windows are interpreted on this
    /// clock.
    pub start: Instant,
    /// The installed fault plan.
    pub faults: FaultPlane,
    /// The deployment seed: the pure input of reconnect-backoff jitter,
    /// so chaos-soak schedules are byte-identical across runs.
    pub seed: u64,
}

impl Registry {
    /// An empty registry over `shards` shard threads; `start` anchors the
    /// runtime clock fault windows are checked against, `seed` derives all
    /// backoff jitter.
    pub fn new(start: Instant, seed: u64, shards: usize) -> Arc<Registry> {
        Arc::new(Registry {
            slots: Mutex::new(Slots::default()),
            counters: Mutex::new(Vec::new()),
            shards,
            shutdown: AtomicBool::new(false),
            start,
            faults: FaultPlane {
                engaged: AtomicBool::new(false),
                plan: Mutex::new(None),
            },
            seed,
        })
    }

    /// Claims the next location, listening on `addr`: on `peer`'s machine,
    /// or on a machine of its own when `peer` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not an allocated location.
    pub fn allocate(&self, addr: SocketAddr, peer: Option<Loc>) -> Loc {
        let mut slots = self.slots.lock();
        let machine = match peer {
            Some(p) => match slots.info.get(p.index() as usize) {
                Some(s) => s.machine,
                None => panic!("colocated with {p:?}, which is not an allocated location"),
            },
            None => {
                slots.machines += 1;
                slots.machines - 1
            }
        };
        let loc = Loc::new(slots.info.len() as u32);
        slots.info.push(SlotInfo { addr, machine });
        loc
    }

    /// Number of locations allocated so far.
    pub fn allocated(&self) -> u32 {
        self.slots.lock().info.len() as u32
    }

    /// The listener address of `loc`, if allocated.
    pub fn addr_of(&self, loc: u32) -> Option<SocketAddr> {
        self.slots.lock().info.get(loc as usize).map(|s| s.addr)
    }

    /// The machine of `loc`, if allocated.
    pub fn machine_of(&self, loc: u32) -> Option<u32> {
        self.slots.lock().info.get(loc as usize).map(|s| s.machine)
    }

    /// The shard owning `loc`, if allocated: its machine's, so the
    /// locations of one machine share a thread and machines go round-robin
    /// over the shards.
    pub fn shard_of(&self, loc: u32) -> Option<usize> {
        self.machine_of(loc).map(|m| m as usize % self.shards)
    }

    /// A fresh set of counters for one thread, included in every later
    /// [`Registry::stats`].
    pub fn counters(&self) -> Arc<Counters> {
        let c = Arc::new(Counters::default());
        self.counters.lock().push(c.clone());
        c
    }

    /// The counters of every thread, summed.
    pub fn stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for c in self.counters.lock().iter() {
            let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
            s.reconnects += read(&c.reconnects);
            s.frames_dropped += read(&c.frames_dropped);
            s.frames_duplicated += read(&c.frames_duplicated);
            s.frames_written += read(&c.frames_written);
            s.writes += read(&c.writes);
            s.colocated += read(&c.colocated);
        }
        s
    }
}
