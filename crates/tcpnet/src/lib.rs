//! A real TCP runtime for GPM processes: every message between machines
//! crosses a byte boundary over a `std::net` loopback socket.
//!
//! This is the repository's counterpart of the paper's testbed wiring —
//! ShadowDB's generated processes exchanging framed messages over real
//! sockets — and the real-time substrate behind the [`Runtime`] seam: the
//! same unmodified `PbrDeployment`/`SmrDeployment`/TOB builders that run
//! under the simulator and inside the model checker deploy here onto
//! actual TCP connections.
//!
//! # Architecture
//!
//! * Every location lives on a *machine*. [`TcpNet::add_node`],
//!   [`Runtime::add_node_late`] and [`TcpNet::port`] each open a new one;
//!   [`TcpNet::add_node_colocated`] joins its peer's — the paper's
//!   broadcast machine, whose server and consensus roles are one composed
//!   process.
//! * N sharded executor threads (thread-per-core; machine `m` lives on
//!   shard `m % shards`, so machines go round-robin over the shards) each
//!   run a readiness event loop over a std-only poller (epoll on Linux,
//!   `poll(2)` elsewhere). A shard owns its locations' listeners, every
//!   inbound connection to them, the hosted processes, one heap of
//!   everything due on them, and the hosts' outbound links — there are
//!   no per-node, per-connection or control threads.
//! * The receive path costs one allocation per frame: sockets read
//!   directly into each connection's reassembly buffer, each complete
//!   frame is copied out right-sized, and decoded message bodies are
//!   zero-copy `Bytes`/string views of that frame — never of the buffer,
//!   which is reused in place whatever a process keeps
//!   (`shadowdb_eventml::codec`). Decoding steps the destination process
//!   inline on its own shard; a process's zero-delay self-sends are
//!   stepped at the top of the next turn, once everything readable this
//!   turn was delivered and the links those steps wrote are flushed (one
//!   made by an inbox-delivered step runs in that same drain).
//! * A message to another location of the sender's machine takes the
//!   self-send path: it is handed into that host's inbox, with no encoder,
//!   link or socket. A pair of locations always takes the same path, so
//!   FIFO per pair holds either way, and the fault plane gives a colocated
//!   pair the verdict it gives a link (see
//!   [`TcpNet::install_fault_plan`]).
//! * Outbound links are nonblocking with vectored writes: a send queues
//!   its frame, and the shard drains every queued link once per turn, so
//!   a turn's short steps share one `writev` per link; a step that runs
//!   longer than 100 µs flushes them right after it instead, so a long
//!   step never holds the turn's frames back from their peers. When the
//!   kernel pushes back the link parks on write readiness. Reconnect backoff jitter is a pure
//!   function of the deployment seed ([`TcpNetBuilder::seeded`]), so
//!   chaos-soak schedules are byte-identical across runs.
//! * A location has one entry point, its shard: injections
//!   ([`TcpNet::send_at`]) and fault actions ride the owning shard's heap
//!   beside its timers, on one clock; a due injection is stepped inline.
//!   [`TcpNet::crash_at`] *removes the host* (volatile state, inbox,
//!   timers, and outbound connections die with it) and
//!   [`TcpNet::restart_at`] installs a fresh incarnation behind the same
//!   listener, so crash-recovery behaves like a process restart behind a
//!   stable address. Both act on one location, never its whole machine.
//! * Driver ports ([`TcpNet::port`]) are loopback listeners too: replies
//!   to a client port travel over a socket like any other message.
//!
//! A net runs exactly one thread per shard. [`TcpNet::shutdown`] stops
//! and joins every shard (woken by its command pipe), each dropping its
//! hosted processes and sockets on exit; then it waits for the disk work
//! still in flight under its storage root and removes the root.
//!
//! # Example
//!
//! ```
//! use shadowdb_eventml::{Ctx, FnProcess, Msg, SendInstr, Value};
//! use shadowdb_tcpnet::TcpNet;
//!
//! let mut net = TcpNet::new();
//! let echo = net.add_node(Box::new(FnProcess::new((), |_s, _c: &Ctx, m: &Msg| {
//!     match m.body.as_loc() {
//!         Some(from) => vec![SendInstr::now(from, Msg::new("pong", Value::Unit))],
//!         None => vec![],
//!     }
//! })));
//! let (port, rx) = TcpNet::port(&mut net);
//! net.send(echo, Msg::new("ping", Value::Loc(port)));
//! let reply = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(reply.header.name(), "pong");
//! net.shutdown();
//! ```

mod link;
mod node;
mod poll;
mod registry;
mod shard;

use crossbeam::channel::{self, Receiver};
use parking_lot::Mutex;
use registry::Registry;
use shadowdb_eventml::{Msg, Process};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{FaultPlan, PortRx, Runtime, StorageMode};
use shard::{spawn_shard, ShardCmd, ShardHandle, TimerDue};

pub use link::{OutQueue, PENDING_CAP};
pub use registry::LinkStats;

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configures a [`TcpNet`].
pub struct TcpNetBuilder {
    seed: u64,
    shards: Option<usize>,
}

impl TcpNetBuilder {
    /// Sets the deployment seed: reconnect-backoff jitter becomes a pure
    /// function of `(seed, origin, dest, attempt)`, making chaos-soak
    /// reconnect schedules byte-identical across runs with the same seed
    /// (simnet derives its jitter the same way).
    pub fn seeded(mut self, seed: u64) -> TcpNetBuilder {
        self.seed = seed;
        self
    }

    /// Overrides the shard (executor thread) count; defaults to the
    /// machine's available parallelism, clamped to `1..=8`.
    pub fn shards(mut self, n: usize) -> TcpNetBuilder {
        self.shards = Some(n.max(1));
        self
    }

    /// Starts the shard event loops, one thread each.
    pub fn spawn(self) -> TcpNet {
        let shards = self.shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(1, 8)
        });
        let registry = Registry::new(Instant::now(), self.seed, shards);
        let (handles, joins) = (0..shards).map(|_| spawn_shard(registry.clone())).unzip();
        TcpNet {
            registry,
            shards: handles,
            shard_joins: joins,
            unborn: Mutex::default(),
            storage_root: StorageMode::fresh_file_root("tcpnet"),
        }
    }
}

/// A running TCP network of process nodes.
pub struct TcpNet {
    registry: Arc<Registry>,
    shards: Vec<ShardHandle>,
    shard_joins: Vec<JoinHandle<()>>,
    /// Actions for locations not allocated yet, handed to the location's
    /// shard right after it is added there.
    unborn: Mutex<HashMap<u32, Vec<(Instant, TimerDue)>>>,
    storage_root: std::path::PathBuf,
}

impl TcpNet {
    /// Starts building a network.
    pub fn builder() -> TcpNetBuilder {
        TcpNetBuilder {
            seed: 0,
            shards: None,
        }
    }

    /// An empty running network (shards only); add nodes with
    /// [`TcpNet::add_node`].
    pub fn new() -> TcpNet {
        TcpNet::builder().spawn()
    }

    /// Binds the next location's listener, on `peer`'s machine or a new
    /// one, and hands it to the owning shard in the command `cmd` makes —
    /// followed by the actions held for the location until now.
    fn add(&self, peer: Option<Loc>, cmd: impl FnOnce(u32, TcpListener) -> ShardCmd) -> Loc {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        // Held across allocating and adding, so `schedule` sends nothing
        // for the location before the shard hosts it.
        let mut unborn = self.unborn.lock();
        let loc = self.registry.allocate(addr, peer);
        let shard = &self.shards[self.registry.shard_of(loc.index()).expect("allocated")];
        shard.send(cmd(loc.index(), listener));
        let now = Instant::now();
        for (at, due) in unborn.remove(&loc.index()).unwrap_or_default() {
            // A crash or restart acts on the location it finds when due:
            // one whose time passed before the location existed is void.
            if matches!(due, TimerDue::Deliver(..)) || at > now {
                shard.send(ShardCmd::At(at, due));
            }
        }
        loc
    }

    /// Hosts `process` at the next location, on a machine of its own:
    /// binds its listener, then hands both to the machine's shard.
    pub fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        self.host(process, None)
    }

    /// Hosts `process` at the next location, on `peer`'s machine: the two
    /// share `peer`'s shard thread and hand each other messages in memory
    /// instead of over a socket. The new location still has a listener of
    /// its own for every other machine.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not an allocated location.
    pub fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        self.host(process, Some(peer))
    }

    fn host(&mut self, process: Box<dyn Process>, peer: Option<Loc>) -> Loc {
        self.add(peer, |loc, listener| ShardCmd::AddNode {
            loc,
            listener,
            process,
        })
    }

    /// Number of locations allocated so far (nodes and ports).
    pub fn node_count(&self) -> u32 {
        self.registry.allocated()
    }

    /// Elapsed time since the network started, as the runtime clock.
    pub fn now(&self) -> VTime {
        VTime::from_micros(self.registry.start.elapsed().as_micros() as u64)
    }

    /// Puts `due` on the heap of the shard that owns `loc`, at `at` on the
    /// runtime clock (clamped to now if already past). An action for a
    /// location not allocated yet waits in the handle until the location
    /// is added; then an injection goes to its shard, and a crash or
    /// restart only if it is not yet due — one due before the location
    /// existed is a no-op.
    fn schedule(&self, at: VTime, loc: Loc, due: TimerDue) {
        let at = (self.registry.start + Duration::from_micros(at.as_micros())).max(Instant::now());
        let mut unborn = self.unborn.lock();
        match self.registry.shard_of(loc.index()) {
            Some(shard) => self.shards[shard].send(ShardCmd::At(at, due)),
            None => unborn.entry(loc.index()).or_default().push((at, due)),
        }
    }

    /// Injects a message from outside the system, delivered as soon as
    /// possible.
    pub fn send(&self, dest: Loc, msg: Msg) {
        self.send_at(VTime::ZERO, dest, msg);
    }

    /// Injects a message from outside the system at `at` on the runtime
    /// clock (clamped to now if already past). The owning shard steps it
    /// inline when due, ordered by time with everything else due there.
    pub fn send_at(&self, at: VTime, dest: Loc, msg: Msg) {
        self.schedule(at, dest, TimerDue::Deliver(dest.index(), msg));
    }

    /// Schedules a crash of the node at `loc`: its host is removed —
    /// volatile state, pending timers, and outbound connections die — and
    /// deliveries are silently dropped until restart.
    pub fn crash_at(&self, at: VTime, loc: Loc) {
        self.schedule(at, loc, TimerDue::Crash(loc.index()));
    }

    /// Schedules a restart of the node at `loc`: a fresh incarnation
    /// hosting `process` behind the location's existing listener.
    pub fn restart_at(&self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        self.schedule(at, loc, TimerDue::Restart(loc.index(), process));
    }

    /// Installs (or replaces) the fault plan consulted by every node's
    /// sends, over a link or to a machine-mate alike. Severed links
    /// force-close their connections and park frames in bounded pending
    /// queues until heal, and a cut colocated pair holds its messages the
    /// same way; lossy windows drop messages; duplication windows deliver
    /// them twice. Delay spikes and reorder windows are not reproducible
    /// on a real FIFO stream and are ignored (the schedule itself is
    /// byte-identical with the other substrates). External injections
    /// from the driver are never faulted.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.registry.faults.plan.lock() = Some(plan);
        self.registry.faults.engaged.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the frame-layer counters, summed over every thread.
    pub fn link_stats(&self) -> LinkStats {
        self.registry.stats()
    }

    /// Creates an external mailbox at the next location, backed by its own
    /// loopback listener: messages sent to it cross a socket and land in
    /// the returned receiver.
    ///
    /// The mailbox is unbounded on purpose. Its writer is the shard
    /// thread, which must not block on a driver that stopped reading — a
    /// wait there would freeze every location of the shard — and a reply
    /// dropped at a bound would be a loss no protocol sees. Bounding what
    /// a run asks of the system is admission control's job.
    pub fn port(&mut self) -> (Loc, Receiver<Msg>) {
        let (tx, rx) = channel::unbounded();
        let loc = self.add(None, |loc, listener| ShardCmd::AddPort {
            loc,
            listener,
            tx,
        });
        (loc, rx)
    }

    /// Stops every shard and waits for it, then for the disk work still
    /// in flight under the storage root, and removes the root.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Stop link connect retries, then the shard loops themselves.
        self.registry.shutdown.store(true, Ordering::SeqCst);
        for shard in self.shards.iter() {
            shard.send(ShardCmd::Shutdown);
        }
        for h in self.shard_joins.drain(..) {
            let _ = h.join();
        }
        // Scratch durable storage dies with the instance (it only exists
        // if a durability-enabled deployment opened a disk). The shards
        // dropped every replica, so no new disk work starts; what is in
        // flight on a disk's own threads, which the deployment may keep
        // alive, finishes first.
        shadowdb_wal::settle_disks(&self.storage_root);
        let _ = std::fs::remove_dir_all(&self.storage_root);
    }
}

impl Default for TcpNet {
    fn default() -> Self {
        TcpNet::new()
    }
}

impl Drop for TcpNet {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl Runtime for TcpNet {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        TcpNet::add_node(self, process)
    }

    fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        TcpNet::add_node_colocated(self, process, peer)
    }

    fn node_count(&self) -> u32 {
        TcpNet::node_count(self)
    }

    fn now(&self) -> VTime {
        TcpNet::now(self)
    }

    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg) {
        TcpNet::send_at(self, at, dest, msg);
    }

    fn crash_at(&mut self, at: VTime, loc: Loc) {
        TcpNet::crash_at(self, at, loc);
    }

    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        TcpNet::restart_at(self, at, loc, process);
    }

    fn port(&mut self) -> (Loc, PortRx) {
        let (loc, rx) = TcpNet::port(self);
        (loc, PortRx::new(rx))
    }

    /// Real threads and sockets run on their own; letting the system
    /// execute for a duration is simply sleeping that long.
    fn run_for(&mut self, duration: Duration) {
        std::thread::sleep(duration);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        TcpNet::install_fault_plan(self, plan);
    }

    fn fault_stats(&self) -> (u64, u64) {
        let s = self.link_stats();
        (s.frames_dropped, s.frames_duplicated)
    }

    /// Real sockets get real files: commits pay an actual `write + fsync`.
    fn storage_mode(&self) -> StorageMode {
        StorageMode::File {
            root: self.storage_root.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_consensus::parse_decide;
    use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
    use shadowdb_eventml::{Ctx, FnProcess, InterpretedProcess, SendInstr, Value};
    use shadowdb_runtime::{LinkFault, LinkSel};

    fn echo_counter() -> Box<dyn Process> {
        Box::new(FnProcess::new(0u32, |n, _c: &Ctx, m: &Msg| {
            *n += 1;
            match m.body.as_loc() {
                Some(from) => {
                    vec![SendInstr::now(
                        from,
                        Msg::new("pong", Value::Int(*n as i64)),
                    )]
                }
                None => vec![],
            }
        }))
    }

    #[test]
    fn echo_roundtrip_over_sockets() {
        let mut net = TcpNet::new();
        let echo = net.add_node(echo_counter());
        let (port, rx) = TcpNet::port(&mut net);
        net.send(echo, Msg::new("ping", Value::Loc(port)));
        net.send(echo, Msg::new("ping", Value::Loc(port)));
        let a = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(a.body, Value::Int(1));
        assert_eq!(b.body, Value::Int(2));
        net.shutdown();
    }

    /// A single link carries frames in FIFO order: a relay node forwards a
    /// numbered burst and the port sees it in sequence.
    #[test]
    fn fifo_per_link() {
        let mut net = TcpNet::new();
        let relay = net.add_node(Box::new(FnProcess::new(
            (),
            |_s, _c: &Ctx, m: &Msg| match (m.body.fst(), m.body.snd()) {
                (Some(to), Some(v)) => vec![SendInstr::now(to.loc(), Msg::new("seq", v.clone()))],
                _ => vec![],
            },
        )));
        let (port, rx) = TcpNet::port(&mut net);
        const N: i64 = 500;
        for i in 0..N {
            net.send(
                relay,
                Msg::new("fwd", Value::pair(Value::Loc(port), Value::Int(i))),
            );
        }
        for i in 0..N {
            let m = rx.recv_timeout(Duration::from_secs(10)).expect("in order");
            assert_eq!(m.body, Value::Int(i), "link reordered messages");
        }
        net.shutdown();
    }

    #[test]
    fn delayed_self_send_fires_later() {
        let mut net = TcpNet::new();
        let node = net.add_node(Box::new(FnProcess::new(
            (),
            |_s, ctx: &Ctx, m: &Msg| match m.header.name() {
                "start" => vec![SendInstr::after(
                    Duration::from_millis(80),
                    ctx.slf,
                    Msg::new("timer", m.body.clone()),
                )],
                "timer" => vec![SendInstr::now(m.body.loc(), Msg::new("fired", Value::Unit))],
                _ => vec![],
            },
        )));
        let (port, rx) = TcpNet::port(&mut net);
        let t0 = Instant::now();
        net.send(node, Msg::new("start", Value::Loc(port)));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(75),
            "{:?}",
            t0.elapsed()
        );
        net.shutdown();
    }

    /// Zero-delay self-sends wait for the top of the next turn: a node that
    /// self-sends on every input and finds frames on three connections in
    /// one turn steps all three before the first self-send — so work it
    /// defers to the self-send covers the whole turn.
    #[test]
    fn self_sends_run_after_the_turns_inputs() {
        // One shard per location: the senders and the port keep running
        // while the target's shard is held inside a step.
        let mut net = TcpNet::builder().shards(5).spawn();
        let log = Arc::new(parking_lot::Mutex::new(Vec::<&'static str>::new()));
        let (blocked_tx, blocked_rx) = channel::unbounded::<()>();
        let (release_tx, release_rx) = channel::unbounded::<()>();
        let release_rx = Arc::new(parking_lot::Mutex::new(release_rx));
        let target = {
            let log = log.clone();
            net.add_node(Box::new(FnProcess::new(
                (),
                move |_s, ctx: &Ctx, m: &Msg| {
                    let name = m.header.name();
                    log.lock().push(name);
                    match name {
                        "self" => vec![],
                        "hold" => {
                            blocked_tx.send(()).unwrap();
                            let release = release_rx.lock();
                            release.recv_timeout(Duration::from_secs(10)).unwrap();
                            vec![]
                        }
                        _ => vec![SendInstr::now(ctx.slf, Msg::new("self", Value::Unit))],
                    }
                },
            )))
        };
        // A sender passes its input on to the target and, a later turn (so
        // after the frame is written), reports to the port.
        let senders: Vec<Loc> = (0..3)
            .map(|_| {
                net.add_node(Box::new(FnProcess::new(
                    (),
                    move |_s, ctx: &Ctx, m: &Msg| match m.body.as_loc() {
                        Some(port) if m.header.name() == "go" => vec![
                            SendInstr::now(target, Msg::new("in", Value::Unit)),
                            SendInstr::after(
                                Duration::from_millis(5),
                                ctx.slf,
                                Msg::new("sent", Value::Loc(port)),
                            ),
                        ],
                        Some(port) => vec![SendInstr::now(port, Msg::new("sent", Value::Unit))],
                        None => vec![],
                    },
                )))
            })
            .collect();
        let (port, rx) = TcpNet::port(&mut net);
        let round = |net: &TcpNet| {
            for s in &senders {
                net.send(*s, Msg::new("go", Value::Loc(port)));
            }
            for _ in &senders {
                rx.recv_timeout(Duration::from_secs(10)).expect("sent");
            }
        };
        let await_selfs = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while log.lock().iter().filter(|h| **h == "self").count() < n {
                assert!(Instant::now() < deadline, "log: {:?}", *log.lock());
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        // Round one establishes the three connections into the target.
        round(&net);
        await_selfs(3);
        // Round two lands while the target's shard is held inside a step,
        // so all three frames are waiting when it next polls.
        net.send(target, Msg::new("hold", Value::Unit));
        blocked_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        round(&net);
        release_tx.send(()).unwrap();
        await_selfs(6);
        let log = log.lock().clone();
        let held = log.iter().position(|n| *n == "hold").expect("held");
        assert_eq!(
            log[held + 1..],
            ["in", "in", "in", "self", "self", "self"],
            "whole log: {log:?}"
        );
        net.shutdown();
    }

    /// `INBOX_BUDGET`: a node that re-arms a zero-delay self-send on every
    /// step never empties its inbox, yet its sockets are still served.
    #[test]
    fn self_send_loop_cannot_starve_sockets() {
        let mut net = TcpNet::builder().shards(1).spawn();
        let node = net.add_node(Box::new(FnProcess::new(
            (),
            |_s, ctx: &Ctx, m: &Msg| match m.body.as_loc() {
                Some(from) => vec![SendInstr::now(from, Msg::new("pong", Value::Unit))],
                None => vec![SendInstr::now(ctx.slf, Msg::new("spin", Value::Unit))],
            },
        )));
        let (port, rx) = TcpNet::port(&mut net);
        net.send(node, Msg::new("spin", Value::Unit));
        std::thread::sleep(Duration::from_millis(20)); // let it spin
        net.send(node, Msg::new("ping", Value::Loc(port)));
        let reply = rx.recv_timeout(Duration::from_secs(10)).expect("served");
        assert_eq!(reply.header.name(), "pong");
        net.shutdown();
    }

    /// A link written during a turn is flushed before the turn's
    /// self-sends are stepped: the step a node defers to a self-send waits
    /// (up to 5 s) for the peer to confirm receipt of the frame the same
    /// input produced — were the frame still queued behind that step, the
    /// confirmation could never come.
    #[test]
    fn links_flush_before_self_sends_run() {
        let mut net = TcpNet::builder().shards(2).spawn();
        let (got_tx, got_rx) = channel::unbounded::<()>();
        let got_rx = Arc::new(parking_lot::Mutex::new(got_rx));
        let (port, rx) = TcpNet::port(&mut net); // loc 0
        let peer = Loc::new(2); // the other shard from the node at loc 1
        let node = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, ctx: &Ctx, m: &Msg| match m.header.name() {
                "go" => vec![
                    SendInstr::now(peer, Msg::new("fwd", Value::Unit)),
                    SendInstr::now(ctx.slf, Msg::new("sync", Value::Unit)),
                ],
                _ => {
                    let on_the_wire = got_rx.lock().recv_timeout(Duration::from_secs(5)).is_ok();
                    vec![SendInstr::now(
                        port,
                        Msg::new("done", Value::Bool(on_the_wire)),
                    )]
                }
            },
        )));
        let added = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, _c: &Ctx, _m: &Msg| {
                got_tx.send(()).unwrap();
                vec![]
            },
        )));
        assert_eq!((node, added), (Loc::new(1), peer));
        net.send(node, Msg::new("go", Value::Unit));
        let done = rx.recv_timeout(Duration::from_secs(10)).expect("done");
        assert_eq!(
            done.body,
            Value::Bool(true),
            "the forward sat queued behind the self-send's step"
        );
        net.shutdown();
    }

    /// A step longer than `LONG_STEP` puts the frames queued so far on the
    /// wire before the next step of the same turn: `x` and `y` are due at
    /// one instant, `x` runs 2 ms and forwards to a peer on the other
    /// shard, and `y` waits (up to 5 s) for the peer to confirm receipt —
    /// were the frame still queued behind `y`, the confirmation could
    /// never come.
    #[test]
    fn a_long_step_puts_the_turns_frames_on_the_wire() {
        let mut net = TcpNet::builder().shards(2).spawn();
        let (got_tx, got_rx) = channel::unbounded::<()>();
        let got_rx = Arc::new(parking_lot::Mutex::new(got_rx));
        let (port, rx) = TcpNet::port(&mut net); // loc 0
        let peer = Loc::new(2); // the other shard from the node at loc 1
        let node = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, _c: &Ctx, m: &Msg| match m.header.name() {
                "x" => {
                    std::thread::sleep(Duration::from_millis(2));
                    vec![SendInstr::now(peer, Msg::new("fwd", Value::Unit))]
                }
                _ => {
                    let on_the_wire = got_rx.lock().recv_timeout(Duration::from_secs(5)).is_ok();
                    vec![SendInstr::now(
                        port,
                        Msg::new("done", Value::Bool(on_the_wire)),
                    )]
                }
            },
        )));
        let added = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, _c: &Ctx, _m: &Msg| {
                got_tx.send(()).unwrap();
                vec![]
            },
        )));
        assert_eq!((node, added), (Loc::new(1), peer));
        let t = net.now() + Duration::from_millis(50);
        net.send_at(t, node, Msg::new("x", Value::Unit));
        net.send_at(t, node, Msg::new("y", Value::Unit));
        let done = rx.recv_timeout(Duration::from_secs(10)).expect("done");
        assert_eq!(
            done.body,
            Value::Bool(true),
            "the forward sat queued behind the next step of the turn"
        );
        net.shutdown();
    }

    /// Short steps keep the turn-end batching: 32 injections due at one
    /// instant each queue a frame on one link, and the frames leave in far
    /// fewer `writev` calls (one, unless a step was preempted for longer
    /// than `LONG_STEP`).
    #[test]
    fn short_steps_in_one_turn_share_a_write() {
        const N: usize = 32;
        let mut net = TcpNet::builder().shards(2).spawn();
        let (port, rx) = TcpNet::port(&mut net);
        let relay = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, _c: &Ctx, m: &Msg| vec![SendInstr::now(port, m.clone())],
        )));
        let t = net.now() + Duration::from_millis(50);
        for i in 0..N {
            net.send_at(t, relay, Msg::new("n", Value::Int(i as i64)));
        }
        for i in 0..N {
            let m = rx.recv_timeout(Duration::from_secs(10)).expect("relayed");
            assert_eq!(m.body, Value::Int(i as i64));
        }
        // The sender counts its writes after they return; wait for them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while net.link_stats().frames_written < N as u64 {
            assert!(Instant::now() < deadline, "{:?}", net.link_stats());
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = net.link_stats();
        assert_eq!(stats.frames_written, N as u64, "{stats:?}");
        assert!(stats.writes <= 8, "{stats:?}");
        net.shutdown();
    }

    /// Every step reads the clock at its own start: `a` and `b` are
    /// self-sends stepped in one drain, and `b` sees the 5 ms `a` ran.
    #[test]
    fn every_step_sees_the_clock_at_its_own_start() {
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        let node = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, ctx: &Ctx, m: &Msg| {
                let now = Msg::new("now", Value::Int(ctx.now.as_micros() as i64));
                match m.header.name() {
                    "go" => vec![
                        SendInstr::now(ctx.slf, Msg::new("a", Value::Unit)),
                        SendInstr::now(ctx.slf, Msg::new("b", Value::Unit)),
                    ],
                    "a" => {
                        std::thread::sleep(Duration::from_millis(5));
                        vec![SendInstr::now(port, now)]
                    }
                    _ => vec![SendInstr::now(port, now)],
                }
            },
        )));
        net.send(node, Msg::new("go", Value::Unit));
        let at = || {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("now")
                .body
                .int()
        };
        let (a, b) = (at(), at());
        assert!(b >= a + 5_000, "a stepped at {a} µs, b at {b} µs");
        net.shutdown();
    }

    /// The generated TwoThird consensus over real sockets: three members
    /// decide one value and notify the learner port.
    #[test]
    fn twothird_consensus_over_sockets() {
        let members = Loc::first_n(3);
        // The learner port will be loc 3 (first location after 3 nodes).
        let config = TwoThirdConfig::new(members, vec![Loc::new(3)]).with_auto_adopt();
        let class = TwoThird::new(config).class();
        let mut net = TcpNet::new();
        for _ in 0..3 {
            net.add_node(Box::new(InterpretedProcess::compile(&class)));
        }
        let (port, rx) = TcpNet::port(&mut net);
        assert_eq!(port, Loc::new(3));
        net.send(Loc::new(0), propose_msg(0, Value::Int(41)));
        net.send(Loc::new(1), propose_msg(0, Value::Int(42)));
        net.send(Loc::new(2), propose_msg(0, Value::Int(41)));
        let mut decisions = Vec::new();
        while decisions.len() < 3 {
            let m = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a decision");
            if let Some(d) = parse_decide(&m) {
                decisions.push(d);
            }
        }
        let first = decisions[0].1.clone();
        assert!(decisions.iter().all(|(i, v)| *i == 0 && *v == first));
        net.shutdown();
    }

    /// A crashed node's host is gone: deliveries are dropped. After
    /// restart the location answers again with fresh state.
    #[test]
    fn crash_silences_node_until_restart() {
        let mut net = TcpNet::new();
        let node = net.add_node(echo_counter());
        let (port, rx) = TcpNet::port(&mut net);
        net.send(node, Msg::new("ping", Value::Loc(port)));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );

        net.crash_at(VTime::ZERO, node);
        std::thread::sleep(Duration::from_millis(50));
        net.send(node, Msg::new("ping", Value::Loc(port)));
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "crashed node must stay silent"
        );

        net.restart_at(VTime::ZERO, node, echo_counter());
        std::thread::sleep(Duration::from_millis(50));
        net.send(node, Msg::new("ping", Value::Loc(port)));
        // Fresh process: the counter restarts from 1.
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );
        net.shutdown();
    }

    /// A completion route reaches the incarnation it was taken in — from
    /// another thread, through the shard's command channel — and nothing
    /// else: posted after that location crashed and restarted, it is
    /// dropped rather than delivered to the new incarnation.
    #[test]
    fn a_completion_for_a_restarted_location_is_dropped() {
        use parking_lot::Mutex;
        use shadowdb_runtime::completion::{self, Route};
        use std::sync::Arc;

        let routes: Arc<Mutex<Vec<Route>>> = Arc::default();
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        // "grab" hands a route out of the step; "done" (a completion) and
        // "ping" are answered to the port, tagged with the incarnation.
        let node = |incarnation: i64| -> Box<dyn Process> {
            let routes = routes.clone();
            Box::new(FnProcess::new((), move |_s, _c: &Ctx, m: &Msg| {
                let answer = |body| vec![SendInstr::now(port, Msg::new("seen", body))];
                match m.header.name() {
                    "grab" => {
                        routes
                            .lock()
                            .push(completion::route().expect("a routing loop"));
                        answer(Value::Unit)
                    }
                    "done" => answer(Value::pair(Value::Int(incarnation), m.body.clone())),
                    _ => answer(Value::Int(incarnation)),
                }
            }))
        };
        let loc = net.add_node(node(1));
        let recv = || {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("answered")
                .body
        };
        let grab = || {
            net.send(loc, Msg::new("grab", Value::Unit));
            assert_eq!(recv(), Value::Unit);
            routes.lock().pop().expect("route handed out")
        };
        let post = |route: Route, id: i64| {
            std::thread::spawn(move || {
                route.post(Duration::ZERO, Msg::new("done", Value::Int(id)))
            })
            .join()
            .unwrap();
        };

        post(grab(), 7);
        assert_eq!(recv(), Value::pair(Value::Int(1), Value::Int(7)));

        let stale = grab();
        net.crash_at(VTime::ZERO, loc);
        net.restart_at(VTime::ZERO, loc, node(2));
        std::thread::sleep(Duration::from_millis(50));
        net.send(loc, Msg::new("ping", Value::Unit));
        assert_eq!(recv(), Value::Int(2), "the new incarnation runs");
        post(stale, 8);
        post(grab(), 9);
        // The command channel is FIFO: had the stale completion been
        // delivered, it would have arrived first.
        assert_eq!(recv(), Value::pair(Value::Int(2), Value::Int(9)));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        net.shutdown();
    }

    /// Nodes and ports share one location sequence, as the deployment
    /// builders require for precomputing locations.
    #[test]
    fn dynamic_nodes_and_ports_share_locations() {
        let mut net = TcpNet::new();
        assert_eq!(TcpNet::node_count(&net), 0);
        let a = net.add_node(echo_counter());
        let (p, _rx) = TcpNet::port(&mut net);
        let b = net.add_node(echo_counter());
        assert_eq!((a, p, b), (Loc::new(0), Loc::new(1), Loc::new(2)));
        assert_eq!(TcpNet::node_count(&net), 3);
        net.shutdown();
    }

    /// A seeded net with an explicit shard count behaves identically at
    /// the API level.
    #[test]
    fn builder_seed_and_shards_echo() {
        let mut net = TcpNet::builder().seeded(42).shards(2).spawn();
        let echo = net.add_node(echo_counter());
        let (port, rx) = TcpNet::port(&mut net);
        net.send(echo, Msg::new("ping", Value::Loc(port)));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );
        net.shutdown();
    }

    /// A severed link force-closes its connection and parks frames; after
    /// heal the pending queue flushes in FIFO order over a fresh
    /// connection (a counted reconnect), with nothing lost.
    #[test]
    fn fault_plan_severs_then_heals_with_fifo_flush() {
        let mut net = TcpNet::new();
        let relay = net.add_node(echo_counter());
        let (port, rx) = TcpNet::port(&mut net);
        // Establish the link (and the counter baseline) before the fault.
        net.send(relay, Msg::new("ping", Value::Loc(port)));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );

        let start = net.now();
        let end = start + Duration::from_millis(400);
        net.install_fault_plan(FaultPlan::new(7).with_rule(
            LinkSel::Pair(relay, port),
            start,
            end,
            LinkFault::partition(),
        ));
        for _ in 0..5 {
            net.send(relay, Msg::new("ping", Value::Loc(port)));
        }
        // Severed: replies are parked at the relay, not delivered.
        assert!(
            rx.recv_timeout(Duration::from_millis(250)).is_err(),
            "severed link must not deliver"
        );
        // After heal the parked replies arrive in send order.
        for i in 2..=6 {
            let m = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("flushed after heal");
            assert_eq!(m.body, Value::Int(i), "flush must preserve FIFO");
        }
        let stats = net.link_stats();
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert_eq!(stats.frames_dropped, 0, "{stats:?}");
        net.shutdown();
    }

    /// A duplication window writes each frame twice: the port sees two
    /// identical replies and the counter records the duplicate.
    #[test]
    fn fault_plan_duplicates_frames() {
        let mut net = TcpNet::new();
        let relay = net.add_node(echo_counter());
        let (port, rx) = TcpNet::port(&mut net);
        let start = net.now();
        net.install_fault_plan(FaultPlan::new(9).with_rule(
            LinkSel::Pair(relay, port),
            start,
            start + Duration::from_secs(5),
            LinkFault::duplicating(1.0),
        ));
        net.send(relay, Msg::new("ping", Value::Loc(port)));
        let a = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(a.body, Value::Int(1));
        assert_eq!(b.body, Value::Int(1));
        assert_eq!(net.link_stats().frames_duplicated, 1);
        net.shutdown();
    }

    /// A link severed forever cannot grow memory without bound: the
    /// pending queue caps at `PENDING_CAP` frames and evicts the oldest,
    /// counting each eviction as a dropped frame.
    #[test]
    fn severed_link_bounds_pending_queue_drop_oldest() {
        let mut net = TcpNet::new();
        let relay = net.add_node(echo_counter());
        let (port, _rx) = TcpNet::port(&mut net);
        net.install_fault_plan(FaultPlan::new(3).with_rule(
            LinkSel::Pair(relay, port),
            VTime::ZERO,
            VTime::MAX,
            LinkFault::partition(),
        ));
        let extra = 50u64;
        for _ in 0..(link::PENDING_CAP as u64 + extra) {
            net.send(relay, Msg::new("ping", Value::Loc(port)));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while net.link_stats().frames_dropped < extra {
            assert!(
                Instant::now() < deadline,
                "expected >= {extra} evictions, stats: {:?}",
                net.link_stats()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        net.shutdown();
    }

    /// Fault plans and injections may name locations that do not exist
    /// yet — reconfiguration adds nodes after deployment, and a nemesis
    /// plan written against the final membership must not wedge the net
    /// before the joiner arrives. An injection to an unknown location
    /// waits in the handle and reaches the location once it is added;
    /// crash and restart of an unknown location are no-ops.
    #[test]
    fn unknown_locations_are_tolerated() {
        let mut net = TcpNet::new();
        let echo = net.add_node(echo_counter());
        let (port, rx) = TcpNet::port(&mut net);
        let ghost = Loc::new(9);
        net.send(ghost, Msg::new("ping", Value::Loc(port)));
        net.crash_at(VTime::ZERO, ghost);
        net.restart_at(VTime::ZERO, ghost, echo_counter());
        // The net still serves its real nodes.
        net.send(echo, Msg::new("ping", Value::Loc(port)));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );
        // A late-added node binds a fresh location and answers.
        let late = net.add_node(echo_counter());
        net.send(late, Msg::new("ping", Value::Loc(port)));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );
        // The ghost's ping was kept for it: a first incarnation (the
        // restart was a no-op) answers it once the location exists.
        while net.node_count() < ghost.index() {
            net.add_node(echo_counter());
        }
        assert_eq!(net.add_node(echo_counter()), ghost);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1)
        );
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        net.shutdown();
    }

    /// A crash scheduled before its location exists acts on the location
    /// it finds when due: a nemesis arms the crash of a joiner before the
    /// reconfiguration adds it, and the joiner must still go down.
    #[test]
    fn a_crash_scheduled_before_its_location_exists_hits_it_when_due() {
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        let next = Loc::new(net.node_count());
        let t = net.now() + Duration::from_millis(300);
        net.crash_at(t, next);
        assert_eq!(net.add_node(echo_counter()), next);
        net.send(next, Msg::new("ping", Value::Loc(port)));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(1),
            "up until the crash is due"
        );
        while net.now() < t + Duration::from_millis(50) {
            std::thread::sleep(Duration::from_millis(10));
        }
        net.send(next, Msg::new("ping", Value::Loc(port)));
        assert!(
            rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "the crash never reached the location"
        );
        net.shutdown();
    }

    /// A process that passes every message body on to `to`.
    fn forward_to(to: Loc) -> Box<dyn Process> {
        Box::new(FnProcess::new((), move |_s, _c: &Ctx, m: &Msg| {
            vec![SendInstr::now(to, Msg::new("fwd", m.body.clone()))]
        }))
    }

    /// A process that, given `<from, to>`, sends each of `from..to` to
    /// `dest` in order.
    fn numbers_to(dest: Loc) -> Box<dyn Process> {
        Box::new(FnProcess::new((), move |_s, _c: &Ctx, m: &Msg| {
            let (from, to) = m.body.unpair();
            (from.int()..to.int())
                .map(|i| SendInstr::now(dest, Msg::new("n", Value::Int(i))))
                .collect()
        }))
    }

    fn range(from: i64, to: i64) -> Msg {
        Msg::new("send", Value::pair(Value::Int(from), Value::Int(to)))
    }

    /// Colocated pairs stay FIFO whichever path of the loop sends: 10 000
    /// numbered messages to a machine-mate, alternate chunks sent straight
    /// from a step and from due timers, arrive in order — and none of them
    /// crosses a socket.
    #[test]
    fn colocated_pairs_stay_fifo_across_steps_and_timers() {
        const N: i64 = 10_000;
        const CHUNK: i64 = 100;
        let mut net = TcpNet::builder().shards(2).spawn();
        let (port, rx) = TcpNet::port(&mut net);
        let receiver = net.add_node(Box::new(FnProcess::new(
            0i64,
            move |next: &mut i64, _c: &Ctx, m: &Msg| {
                let got = m.body.int();
                if got != *next {
                    let gap = Value::pair(Value::Int(*next), Value::Int(got));
                    return vec![SendInstr::now(port, Msg::new("gap", gap))];
                }
                *next += 1;
                match *next {
                    N => vec![SendInstr::now(port, Msg::new("done", Value::Unit))],
                    _ => vec![],
                }
            },
        )));
        // Chunk k goes out from the step when k is even and from 100 µs
        // timers when it is odd; chunk k + 1 follows 200 µs later, after
        // those timers.
        let sender = net.add_node_colocated(
            Box::new(FnProcess::new((), move |_s, ctx: &Ctx, m: &Msg| {
                let k = m.body.int();
                let delay = Duration::from_micros(100 * (k % 2) as u64);
                let mut out: Vec<SendInstr> = (k * CHUNK..(k + 1) * CHUNK)
                    .map(|i| SendInstr::after(delay, receiver, Msg::new("n", Value::Int(i))))
                    .collect();
                if (k + 1) * CHUNK < N {
                    out.push(SendInstr::after(
                        Duration::from_micros(200),
                        ctx.slf,
                        Msg::new("chunk", Value::Int(k + 1)),
                    ));
                }
                out
            })),
            receiver,
        );
        net.send(sender, Msg::new("chunk", Value::Int(0)));
        let m = rx.recv_timeout(Duration::from_secs(30)).expect("an answer");
        assert_eq!(m.header.name(), "done", "out of order: {:?}", m.body);
        let stats = net.link_stats();
        assert_eq!(stats.colocated, N as u64, "{stats:?}");
        // The answer alone: nothing between the pair, and the injection
        // crosses no socket.
        assert_eq!(stats.frames_written, 1, "{stats:?}");
        net.shutdown();
    }

    /// A cut between two locations of one machine holds the pair's
    /// messages rather than losing them — the partition-with-heal a core
    /// link gets — and hands them over in order at heal, none dropped.
    #[test]
    fn a_cut_colocated_pair_holds_its_messages_until_heal() {
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        let sink = net.add_node(forward_to(port));
        let source = net.add_node_colocated(numbers_to(sink), sink);
        net.send(source, range(0, 1));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
            Value::Int(0)
        );
        let before = net.link_stats();

        let start = net.now();
        net.install_fault_plan(FaultPlan::new(7).with_rule(
            LinkSel::Pair(source, sink),
            start,
            start + Duration::from_millis(400),
            LinkFault::partition(),
        ));
        for burst in 0..4 {
            net.send(source, range(1 + 50 * burst, 51 + 50 * burst));
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(250)).is_err(),
            "a cut pair must not deliver"
        );
        for i in 1..=200 {
            let m = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("released after heal");
            assert_eq!(m.body, Value::Int(i), "release must preserve FIFO");
        }
        let stats = net.link_stats();
        assert_eq!(stats.frames_dropped, before.frames_dropped, "{stats:?}");
        assert_eq!(stats.colocated - before.colocated, 200, "{stats:?}");
        net.shutdown();
    }

    /// Loss and duplication windows act on a colocated pair as on a link,
    /// and are counted the same way.
    #[test]
    fn lossy_and_duplicating_windows_count_on_colocated_pairs() {
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        let sink = net.add_node(forward_to(port));
        let source = net.add_node_colocated(numbers_to(sink), sink);
        let window = |fault| {
            let start = net.now();
            FaultPlan::new(5).with_rule(
                LinkSel::Pair(source, sink),
                start,
                start + Duration::from_secs(30),
                fault,
            )
        };

        net.install_fault_plan(window(LinkFault::duplicating(1.0)));
        net.send(source, range(0, 50));
        for i in 0..50 {
            for _ in 0..2 {
                let m = rx.recv_timeout(Duration::from_secs(5)).expect("twice");
                assert_eq!(m.body, Value::Int(i));
            }
        }
        assert_eq!(net.link_stats().frames_duplicated, 50);

        net.install_fault_plan(window(LinkFault::lossy(0.5)));
        net.send(source, range(0, 200));
        let mut arrived = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while arrived + net.link_stats().frames_dropped < 200 {
            assert!(Instant::now() < deadline, "{:?}", net.link_stats());
            if rx.recv_timeout(Duration::from_millis(20)).is_ok() {
                arrived += 1;
            }
        }
        let stats = net.link_stats();
        assert_eq!(arrived + stats.frames_dropped, 200, "{stats:?}");
        assert!(arrived > 0 && stats.frames_dropped > 0, "{stats:?}");
        net.shutdown();
    }

    /// Crashing one location of a machine crashes only that location.
    /// What its mates hand it while it is down is dropped, and so is what
    /// sat in its inbox when it crashed: its restart hears nothing
    /// addressed to the old incarnation. Its mates keep running.
    #[test]
    fn a_crashed_colocated_location_drops_its_inbound_and_its_mates_run_on() {
        // The port on shard 0, the sender's machine on shard 1.
        let mut net = TcpNet::builder().shards(2).spawn();
        let (port, rx) = TcpNet::port(&mut net);
        // A recorder answers `<who, <incarnation, body>>` for every message.
        let recorder = |who: i64, incarnation: i64| -> Box<dyn Process> {
            Box::new(FnProcess::new((), move |_s, _c: &Ctx, m: &Msg| {
                let seen = Value::pair(
                    Value::Int(who),
                    Value::pair(Value::Int(incarnation), m.body.clone()),
                );
                vec![SendInstr::now(port, Msg::new("seen", seen))]
            }))
        };
        let (blocked_tx, blocked_rx) = channel::unbounded::<()>();
        let (release_tx, release_rx) = channel::unbounded::<()>();
        let release_rx = Arc::new(parking_lot::Mutex::new(release_rx));
        let (b, c) = (Loc::new(2), Loc::new(3));
        // The sender tells both mates every number it is given; "hold"
        // parks its shard in the step until released, then tells -1.
        let sender = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, _c: &Ctx, m: &Msg| {
                let n = if m.header.name() == "hold" {
                    blocked_tx.send(()).unwrap();
                    let release = release_rx.lock();
                    release.recv_timeout(Duration::from_secs(10)).unwrap();
                    -1
                } else {
                    m.body.int()
                };
                let tell = |to| SendInstr::now(to, Msg::new("n", Value::Int(n)));
                vec![tell(b), tell(c)]
            },
        )));
        assert_eq!(net.add_node_colocated(recorder(1, 1), sender), b);
        assert_eq!(net.add_node_colocated(recorder(2, 1), sender), c);
        let seen = |n: usize| -> Vec<(i64, i64, i64)> {
            let mut got: Vec<_> = (0..n)
                .map(|_| {
                    let m = rx.recv_timeout(Duration::from_secs(5)).expect("seen");
                    let (who, rest) = m.body.unpair();
                    let (inc, body) = rest.unpair();
                    (who.int(), inc.int(), body.int())
                })
                .collect();
            got.sort();
            got
        };
        let tell = |n: i64| net.send(sender, Msg::new("n", Value::Int(n)));

        tell(1);
        assert_eq!(seen(2), [(1, 1, 1), (2, 1, 1)]);
        // The hand-offs of the held step land in the inboxes after the
        // crash command is queued, so the shard takes the crash first.
        net.send(sender, Msg::new("hold", Value::Unit));
        blocked_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        net.crash_at(VTime::ZERO, b);
        release_tx.send(()).unwrap();
        assert_eq!(seen(1), [(2, 1, -1)]);
        tell(2);
        assert_eq!(seen(1), [(2, 1, 2)]);
        net.restart_at(VTime::ZERO, b, recorder(1, 2));
        std::thread::sleep(Duration::from_millis(100));
        tell(3);
        assert_eq!(seen(2), [(1, 2, 3), (2, 1, 3)]);
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        net.shutdown();
    }

    /// A colocated location lands on its peer's shard, and every new
    /// machine — a node, a late node or a port — takes the next shard
    /// round-robin.
    #[test]
    fn colocated_locations_share_their_peers_shard_and_machines_round_robin() {
        // Answers the name of the thread it runs on.
        let thread = || -> Box<dyn Process> {
            Box::new(FnProcess::new((), |_s, _c: &Ctx, m: &Msg| {
                let name = format!("{:?}", std::thread::current().id());
                vec![SendInstr::now(
                    m.body.loc(),
                    Msg::new("on", Value::str(&name)),
                )]
            }))
        };
        let mut net = TcpNet::builder().shards(3).spawn();
        let a = net.add_node(thread());
        let (port, rx) = TcpNet::port(&mut net);
        let b = net.add_node_colocated(thread(), a);
        let c = Runtime::add_node_late(&mut net, thread());
        let d = net.add_node_colocated(thread(), c);
        let e = net.add_node(thread());
        let shards: Vec<_> = [a, port, b, c, d, e]
            .iter()
            .map(|l| net.registry.shard_of(l.index()).unwrap())
            .collect();
        assert_eq!(shards, [0, 1, 0, 2, 2, 0]);
        let mut on = |loc| {
            net.send(loc, Msg::new("which", Value::Loc(port)));
            let m = rx.recv_timeout(Duration::from_secs(5)).expect("answered");
            m.body.as_str().unwrap().to_string()
        };
        let threads: Vec<String> = [a, b, c, d, e].into_iter().map(&mut on).collect();
        assert_eq!(threads[0], threads[1]);
        assert_eq!(threads[0], threads[4]);
        assert_eq!(threads[2], threads[3]);
        assert_ne!(threads[0], threads[2]);
        net.shutdown();
    }

    /// A process that answers `<incarnation, body>` to `port` for every
    /// message.
    fn recorder(port: Loc, incarnation: i64) -> Box<dyn Process> {
        Box::new(FnProcess::new((), move |_s, _c: &Ctx, m: &Msg| {
            let seen = Value::pair(Value::Int(incarnation), m.body.clone());
            vec![SendInstr::now(port, Msg::new("seen", seen))]
        }))
    }

    /// Injections, crashes and restarts of one location ride its shard's
    /// heap: scheduled for one instant, they take effect in the order
    /// they were scheduled. The message between the crash and the restart
    /// meets no host, the one before reaches the first incarnation and the
    /// one after the second.
    #[test]
    fn injections_crashes_and_restarts_at_one_instant_keep_their_order() {
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        let a = net.add_node(recorder(port, 1));
        let m = |i: i64| Msg::new("m", Value::Int(i));
        let t = net.now() + Duration::from_millis(50);
        net.send_at(t, a, m(1));
        net.crash_at(t, a);
        net.send_at(t, a, m(2));
        net.restart_at(t, a, recorder(port, 2));
        net.send_at(t, a, m(3));
        // The two incarnations answer over two connections: sort.
        let mut seen = Vec::new();
        while let Ok(msg) = rx.recv_timeout(Duration::from_millis(500)) {
            let (inc, i) = msg.body.unpair();
            seen.push((inc.int(), i.int()));
        }
        seen.sort();
        assert_eq!(seen, [(1, 1), (2, 3)]);
        net.shutdown();
    }

    /// Injections scheduled out of order fire in time order, and between
    /// the process's own timers: both wait on the one heap of the shard.
    #[test]
    fn injections_fire_in_time_order_among_the_shards_timers() {
        let mut net = TcpNet::new();
        let (port, rx) = TcpNet::port(&mut net);
        // Reports every message's name; "arm" also arms a 100 ms "tick".
        let node = net.add_node(Box::new(FnProcess::new(
            (),
            move |_s, ctx: &Ctx, m: &Msg| {
                let name = m.header.name();
                let mut out = vec![SendInstr::now(port, Msg::new(name, Value::Unit))];
                if name == "arm" {
                    let tick = Msg::new("tick", Value::Unit);
                    out.push(SendInstr::after(Duration::from_millis(100), ctx.slf, tick));
                }
                out
            },
        )));
        let t = net.now() + Duration::from_millis(50);
        let at = |ms: u64| t + Duration::from_millis(ms);
        net.send_at(at(300), node, Msg::new("late", Value::Unit));
        net.send_at(at(200), node, Msg::new("mid", Value::Unit));
        net.send_at(at(0), node, Msg::new("arm", Value::Unit));
        net.send_at(at(40), node, Msg::new("early", Value::Unit));
        let names: Vec<String> = (0..5)
            .map(|_| {
                let m = rx.recv_timeout(Duration::from_secs(5)).expect("reported");
                m.header.name().to_string()
            })
            .collect();
        assert_eq!(names, ["arm", "early", "tick", "mid", "late"]);
        net.shutdown();
    }
}
