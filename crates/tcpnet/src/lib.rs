//! A real TCP runtime for GPM processes: every inter-node message crosses
//! a byte boundary over a `std::net` loopback socket.
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
//! * N sharded executor threads (thread-per-core, `loc % shards`) each
//!   run a readiness event loop over a std-only poller (epoll on Linux,
//!   `poll(2)` elsewhere). A shard owns its locations' listeners, every
//!   inbound connection to them, the hosted processes with their timer
//!   heaps, and the hosts' outbound links — there are no per-node or
//!   per-connection threads.
//! * The receive path costs one allocation per frame: sockets read
//!   directly into each connection's reassembly buffer, each complete
//!   frame is copied out right-sized, and decoded message bodies are
//!   zero-copy `Bytes`/string views of that frame — never of the buffer,
//!   which is reused in place whatever a process keeps
//!   (`shadowdb_eventml::codec`). Decoding steps the destination process
//!   inline on its own shard; a process's zero-delay self-sends are
//!   stepped at the top of the next turn, once everything readable this
//!   turn was delivered and the links those steps wrote are flushed.
//! * Outbound links are nonblocking with vectored writes: frames drain
//!   through a per-link queue; when the kernel pushes back the link
//!   parks on write readiness. Reconnect backoff jitter is a pure
//!   function of the deployment seed ([`TcpNetBuilder::seeded`]), so
//!   chaos-soak schedules are byte-identical across runs.
//! * A control thread schedules external injections ([`TcpNet::send_at`],
//!   over the injector's own loopback connections) and fault actions:
//!   [`TcpNet::crash_at`] *removes the host* (volatile state, timers, and
//!   outbound connections die with it) and [`TcpNet::restart_at`]
//!   installs a fresh incarnation behind the same listener, so
//!   crash-recovery behaves like a process restart behind a stable
//!   address.
//! * Driver ports ([`TcpNet::port`]) are loopback listeners too: replies
//!   to a client port travel over a socket like any other message.
//!
//! [`TcpNet::shutdown`] joins deterministically: the control thread
//! first, then every shard (woken by its command pipe); each shard drops
//! its sockets on exit.
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

use crossbeam::channel::{self, Receiver, Sender};
use link::Injector;
use registry::{Registry, SlotInfo};
use shadowdb_eventml::{Msg, Process};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{FaultPlan, PortRx, Runtime, StorageMode};
use shard::{spawn_shard, ShardCmd, ShardHandle};

pub use link::{OutQueue, PENDING_CAP};
pub use registry::LinkStats;

use std::collections::BinaryHeap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An action the control thread performs when its instant comes due.
enum Act {
    /// Deliver an externally injected message (over a real socket).
    Deliver(Loc, Msg),
    /// Remove the location's host: volatile state and timers are lost and
    /// deliveries are silently dropped until restart.
    Crash(Loc),
    /// Install a fresh incarnation behind the location's listener.
    Restart(Loc, Box<dyn Process>),
}

enum Ctl {
    At { at: Instant, act: Act },
    Shutdown,
}

struct Due {
    at: Instant,
    seq: u64,
    act: Act,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

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

    /// Starts the shard event loops and the control thread.
    pub fn spawn(self) -> TcpNet {
        let shards = self.shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(1, 8)
        });
        let start = Instant::now();
        let registry = Registry::new(start, self.seed);
        let mut handles = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (handle, join) = spawn_shard(registry.clone());
            handles.push(handle);
            joins.push(join);
        }
        let shard_handles = Arc::new(handles);
        let (ctl_tx, ctl_rx) = channel::unbounded::<Ctl>();
        let ctl_handle = {
            let registry = registry.clone();
            let shards = shard_handles.clone();
            std::thread::spawn(move || control_loop(registry, shards, ctl_rx))
        };
        TcpNet {
            start,
            registry,
            shards: shard_handles,
            shard_joins: joins,
            ctl: ctl_tx,
            ctl_handle: Some(ctl_handle),
            storage_root: StorageMode::fresh_file_root("tcpnet"),
        }
    }
}

/// A running TCP network of process nodes.
pub struct TcpNet {
    start: Instant,
    registry: Arc<Registry>,
    shards: Arc<Vec<ShardHandle>>,
    shard_joins: Vec<JoinHandle<()>>,
    ctl: Sender<Ctl>,
    ctl_handle: Option<JoinHandle<()>>,
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

    /// An empty running network (shards and control thread only); add
    /// nodes with [`TcpNet::add_node`].
    pub fn new() -> TcpNet {
        TcpNet::builder().spawn()
    }

    fn shard_of(&self, loc: Loc) -> &ShardHandle {
        &self.shards[loc.index() as usize % self.shards.len()]
    }

    fn bind_slot(&self) -> (Loc, TcpListener) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let loc = {
            let mut slots = self.registry.slots.lock();
            let loc = Loc::new(slots.len() as u32);
            slots.push(SlotInfo { addr });
            loc
        };
        (loc, listener)
    }

    /// Hosts `process` at the next location: binds its listener, then
    /// hands both to the location's shard.
    pub fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        let (loc, listener) = self.bind_slot();
        self.shard_of(loc).send(ShardCmd::AddNode {
            loc: loc.index(),
            listener,
            process,
        });
        loc
    }

    /// Number of locations allocated so far (nodes and ports).
    pub fn node_count(&self) -> u32 {
        self.registry.slots.lock().len() as u32
    }

    /// Elapsed time since the network started, as the runtime clock.
    pub fn now(&self) -> VTime {
        VTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn instant_of(&self, at: VTime) -> Instant {
        (self.start + Duration::from_micros(at.as_micros())).max(Instant::now())
    }

    /// Injects a message from outside the system, delivered as soon as
    /// possible (over the injector's own loopback connection).
    pub fn send(&self, dest: Loc, msg: Msg) {
        self.send_at(VTime::ZERO, dest, msg);
    }

    /// Injects a message from outside the system at `at` on the runtime
    /// clock (clamped to now if already past).
    pub fn send_at(&self, at: VTime, dest: Loc, msg: Msg) {
        let _ = self.ctl.send(Ctl::At {
            at: self.instant_of(at),
            act: Act::Deliver(dest, msg),
        });
    }

    /// Schedules a crash of the node at `loc`: its host is removed —
    /// volatile state, pending timers, and outbound connections die — and
    /// deliveries are silently dropped until restart.
    pub fn crash_at(&self, at: VTime, loc: Loc) {
        let _ = self.ctl.send(Ctl::At {
            at: self.instant_of(at),
            act: Act::Crash(loc),
        });
    }

    /// Schedules a restart of the node at `loc`: a fresh incarnation
    /// hosting `process` behind the location's existing listener.
    pub fn restart_at(&self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        let _ = self.ctl.send(Ctl::At {
            at: self.instant_of(at),
            act: Act::Restart(loc, process),
        });
    }

    /// Installs (or replaces) the fault plan consulted by every node's
    /// frame layer. Severed links force-close their connections and park
    /// frames in bounded pending queues until heal; lossy windows drop
    /// frames; duplication windows write them twice. Delay spikes and
    /// reorder windows are not reproducible on a real FIFO stream and are
    /// ignored (the schedule itself is byte-identical with the other
    /// substrates). External injections from the driver are never faulted.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.registry.faults.plan.lock() = Some(plan);
        self.registry.faults.engaged.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the frame-layer counters (`reconnects`,
    /// `frames_dropped`, `frames_duplicated`) aggregated over all links.
    pub fn link_stats(&self) -> LinkStats {
        self.registry.faults.stats()
    }

    /// Creates an external mailbox at the next location, backed by its own
    /// loopback listener: messages sent to it cross a socket and land in
    /// the returned receiver.
    pub fn port(&mut self) -> (Loc, Receiver<Msg>) {
        let (tx, rx) = channel::unbounded();
        let (loc, listener) = self.bind_slot();
        self.shard_of(loc).send(ShardCmd::AddPort {
            loc: loc.index(),
            listener,
            tx,
        });
        (loc, rx)
    }

    /// Stops every thread and waits for all of them: the control thread
    /// first, then every shard event loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let _ = self.ctl.send(Ctl::Shutdown);
        if let Some(h) = self.ctl_handle.take() {
            let _ = h.join();
        }
        // Stop link connect retries, then the shard loops themselves.
        self.registry.shutdown.store(true, Ordering::SeqCst);
        for shard in self.shards.iter() {
            shard.send(ShardCmd::Shutdown);
        }
        for h in self.shard_joins.drain(..) {
            let _ = h.join();
        }
        // Scratch durable storage dies with the instance (it only exists
        // if a durability-enabled deployment opened a disk).
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

/// The control thread: a timer heap of scheduled injections and fault
/// actions, with its own blocking outbound links for external deliveries.
fn control_loop(registry: Arc<Registry>, shards: Arc<Vec<ShardHandle>>, rx: Receiver<Ctl>) {
    let mut injector = Injector::new(registry);
    let shard_of = |loc: Loc| &shards[loc.index() as usize % shards.len()];
    let mut heap: BinaryHeap<Due> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        while heap.peek().map(|d| d.at <= now).unwrap_or(false) {
            let due = heap.pop().expect("peeked");
            match due.act {
                Act::Deliver(dest, msg) => injector.send(dest, &msg),
                Act::Crash(loc) => shard_of(loc).send(ShardCmd::Crash(loc.index())),
                Act::Restart(loc, process) => {
                    shard_of(loc).send(ShardCmd::Restart(loc.index(), process))
                }
            }
        }
        let wait = heap
            .peek()
            .map(|d| d.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(20))
            .min(Duration::from_millis(20));
        match rx.recv_timeout(wait) {
            Ok(Ctl::At { at, act }) => {
                seq += 1;
                heap.push(Due { at, seq, act });
            }
            Ok(Ctl::Shutdown) | Err(channel::RecvTimeoutError::Disconnected) => break,
            Err(channel::RecvTimeoutError::Timeout) => {}
        }
        injector.tick();
    }
}

impl Runtime for TcpNet {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        TcpNet::add_node(self, process)
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
    /// before the joiner arrives. Sends to an unknown location park until
    /// it exists (or evict at the queue cap); crash and restart of an
    /// unknown location are no-ops.
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
        net.shutdown();
    }

    #[cfg(target_os = "linux")]
    fn os_thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }

    /// Shutdown joins the control thread and every shard event loop —
    /// repeated nets must not leak OS threads, even with timers and
    /// traffic in flight.
    #[test]
    #[cfg(target_os = "linux")]
    fn repeated_nets_leak_no_threads() {
        let before = os_thread_count();
        for i in 0..10u64 {
            let mut net = TcpNet::new();
            let echo = net.add_node(echo_counter());
            let timer = net.add_node(Box::new(FnProcess::new((), |_s, ctx: &Ctx, m: &Msg| {
                // Arm a far-future timer so shutdown always has an
                // in-flight delayed send to discard.
                vec![SendInstr::after(
                    Duration::from_secs(3600),
                    ctx.slf,
                    m.clone(),
                )]
            })));
            let (port, rx) = TcpNet::port(&mut net);
            net.send(timer, Msg::new("tick", Value::Int(i as i64)));
            net.send(echo, Msg::new("ping", Value::Loc(port)));
            let _ = rx.recv_timeout(Duration::from_secs(5));
            net.shutdown();
        }
        let after = os_thread_count();
        assert!(
            after <= before,
            "leaked {} threads across 10 nets",
            after - before
        );
    }
}
