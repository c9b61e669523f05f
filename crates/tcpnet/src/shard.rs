//! The shard event loops: N per-core executor threads, each owning a
//! partition of the net's machines (`machine % shards`), and with them
//! every location on those machines. A shard's poller watches its
//! listeners, every inbound connection to its locations, a wake pipe for
//! commands, and any outbound link currently blocked on write readiness.
//! One heap per shard holds everything due at a time — process timers and
//! the driver's injections, crashes and restarts — so there are no
//! per-node, per-connection or control threads anywhere.
//!
//! Delivery is inline: a frame decoded off an inbound connection steps
//! the destination process on the spot (the connection was accepted by
//! the destination's own shard), and so does a due injection; their sends
//! are queued on nonblocking links and written before the loop returns to
//! the poller — or, after a step longer than `LONG_STEP`, before anything
//! else is stepped, so a long step holds no frame of its turn back from a
//! peer that could be working on it. Each step sees the clock read at its
//! own start. Zero-delay self-sends instead wait in the host's inbox for
//! the top of the next turn — after everything readable this turn was
//! stepped and the links those steps wrote are flushed — so work a process
//! defers to one (a replica's `sdb/sync`) runs once per turn. A send to
//! another location of the same machine takes that path too: no encoder,
//! no link, no socket, and the same fault verdict a link would get. A
//! self-send made by an inbox-delivered step (hand-off, completion,
//! self-send) runs in that same drain, up to `INBOX_BUDGET`. Decoded
//! message bodies are zero-copy views of their own frame, which
//! `FrameReader` copies out of the connection's reassembly buffer
//! right-sized: one allocation per frame, and the buffer itself is never
//! pinned by what a process keeps.
//!
//! Work a process hands to another thread (a disk's syncer) reports back
//! through the command channel: each shard thread installs itself as the
//! completion sink of the steps it runs, and a completion lands in the
//! inbox of the incarnation that handed the work off — or nowhere, if that
//! incarnation has crashed since.

use crate::link::{try_connect, OutLink, MAX_IOV};
use crate::node::{hold, NodeHost, Path, Peer};
use crate::poll::{Interest, PollEvent, Poller};
use crate::registry::{bump, Counters, Registry};
use crossbeam::channel::{self, Receiver, Sender};
use shadowdb_eventml::{Ctx, FrameEncoder, FrameReader, Msg, Process, SendInstr};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::completion::{self, CompletionSink};
use shadowdb_runtime::LinkVerdict;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The wake pipe's poller token; every other token comes from the
/// shard's counter.
const TOKEN_WAKE: usize = 0;
/// Bytes asked of the reassembly buffer per socket read.
const READ_CHUNK: usize = 16 * 1024;
/// Most bytes drained from one connection per readiness event before
/// yielding to the rest of the shard (level-triggered: the poller fires
/// again if more remain).
const READ_BUDGET: usize = 256 * 1024;
/// Most inbox messages (self-sends and hand-offs from machine-mates)
/// stepped per host per turn, so a self-send loop cannot starve the
/// shard's sockets.
const INBOX_BUDGET: usize = 256;
/// Most heap entries fired per turn, so timers and injections that keep
/// coming due cannot starve the shard's sockets and inboxes.
const DUE_BUDGET: usize = 256;
/// The loop's idle tick: pending links retry and heal within this bound,
/// matching the threaded runtime's cadence.
const TICK: Duration = Duration::from_millis(20);
/// A step longer than this flushes every dirty link of its shard before
/// anything else is stepped: a frame it or an earlier step of the turn
/// queued would otherwise wait out the rest of the turn while its peer
/// idles. Shorter steps keep the turn-end batching.
const LONG_STEP: Duration = Duration::from_micros(100);

/// What a shard can be told to do.
pub enum ShardCmd {
    /// Host `process` at `loc`, accepting on `listener`.
    AddNode {
        /// The location's index.
        loc: u32,
        /// The pre-bound loopback listener (nonblocking).
        listener: TcpListener,
        /// The process to host.
        process: Box<dyn Process>,
    },
    /// Register a driver port at `loc`: decoded frames go to `tx`.
    AddPort {
        /// The location's index.
        loc: u32,
        /// The pre-bound loopback listener (nonblocking).
        listener: TcpListener,
        /// Where decoded messages land.
        tx: Sender<Msg>,
    },
    /// Put a driver's action, or a completion, on the shard's heap, due
    /// at the instant.
    At(Instant, TimerDue),
    /// Exit the shard thread.
    Shutdown,
}

/// What comes due on a shard's heap: a process's timer, or an action the
/// driver scheduled on one location (never its whole machine).
pub enum TimerDue {
    /// A delayed send armed by a hosted process, held at the sender until
    /// due (Fig. 4's "period of time the process must wait before
    /// sending"), or a completion of work it handed off. Fires only into
    /// the incarnation that armed it.
    Timer {
        origin: u32,
        epoch: u64,
        dest: Loc,
        msg: Msg,
    },
    /// An injected message: stepped inline, like a decoded frame, and
    /// never faulted — the driver must always reach the system it tests.
    Deliver(u32, Msg),
    /// Remove the host: volatile state, inbox, pending timers, and
    /// outbound connections die with it; deliveries are dropped until
    /// restart.
    Crash(u32),
    /// Install a fresh incarnation behind the same listener (a no-op for
    /// a location that never hosted a node).
    Restart(u32, Box<dyn Process>),
}

/// The sending half of a shard: enqueue a command, then poke the wake
/// pipe so a sleeping poller returns immediately.
pub struct ShardHandle {
    tx: Sender<ShardCmd>,
    wake: UnixStream,
}

impl ShardHandle {
    /// Delivers `cmd` to the shard thread.
    pub fn send(&self, cmd: ShardCmd) {
        let _ = self.tx.send(cmd);
        // A full pipe means a wake is already pending — dropping the
        // byte is fine.
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// A shard's own handle, as the completion sink of the steps it runs: a
/// completion is a timer of the incarnation that handed the work off,
/// into its own inbox, due once the time left has passed.
impl CompletionSink for ShardHandle {
    fn post(&self, loc: Loc, epoch: u64, after: Duration, msg: Msg) {
        let timer = TimerDue::Timer {
            origin: loc.index(),
            epoch,
            dest: loc,
            msg,
        };
        self.send(ShardCmd::At(Instant::now() + after, timer));
    }
}

/// Spawns one shard thread; the returned handle feeds it commands.
pub fn spawn_shard(registry: Arc<Registry>) -> (ShardHandle, JoinHandle<()>) {
    // Unbounded on purpose: a bound would stall a disk's syncer (and its
    // later syncs) behind a busy shard, or drop a completion its replica
    // waits for forever; the driver's load is admission control's to shape.
    let (cmd_tx, cmd_rx) = channel::unbounded::<ShardCmd>();
    let (wake_tx, wake_rx) = UnixStream::pair().expect("wake pipe");
    wake_tx.set_nonblocking(true).expect("nonblocking wake");
    wake_rx.set_nonblocking(true).expect("nonblocking wake");
    let sink = ShardHandle {
        tx: cmd_tx.clone(),
        wake: wake_tx.try_clone().expect("wake pipe clone"),
    };
    let handle = std::thread::spawn(move || {
        completion::install_sink(Arc::new(sink));
        Shard::new(registry, wake_rx, cmd_rx).run()
    });
    (
        ShardHandle {
            tx: cmd_tx,
            wake: wake_tx,
        },
        handle,
    )
}

/// What a poller token stands for.
#[derive(Clone, Copy, Debug)]
enum Token {
    /// A location's accept socket.
    Listener(u32),
    /// An inbound connection.
    Conn,
    /// An outbound link parked on write readiness.
    Out { origin: u32, dest: u32 },
}

/// One accepted inbound connection and its reassembly state.
struct InConn {
    stream: TcpStream,
    rdr: FrameReader,
    /// The location this connection delivers to.
    dest: u32,
}

/// An entry of a shard's heap, ordered by `(at, seq)`: due instant, then
/// arrival.
struct Entry {
    at: Instant,
    seq: u64,
    due: TimerDue,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, the earliest entry first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The fault plane's verdict on one message, as a shard acts on it — the
/// same for a link and a colocated pair.
enum Fate {
    /// Deliver this many copies (two under a duplication window).
    Deliver(usize),
    /// Lost to a lossy window (already counted).
    Lost,
    /// Cut: held in order until heal.
    Held,
}

struct Shard {
    registry: Arc<Registry>,
    /// This thread's share of the link statistics.
    counters: Arc<Counters>,
    poller: Poller,
    wake_rx: UnixStream,
    cmds: Receiver<ShardCmd>,
    tokens: HashMap<usize, Token>,
    next_token: usize,
    listeners: HashMap<usize, TcpListener>,
    conns: HashMap<usize, InConn>,
    hosts: HashMap<u32, NodeHost>,
    ports: HashMap<u32, Sender<Msg>>,
    /// Incarnation counters, persisting across crash so a restart renders
    /// the previous incarnation's timers inert.
    epochs: HashMap<u32, u64>,
    /// Hand-offs to a machine-mate allocated but not yet added here (its
    /// `AddNode` is still in the command channel); they open its inbox.
    unborn: HashMap<u32, VecDeque<Msg>>,
    timers: BinaryHeap<Entry>,
    timer_seq: u64,
    /// Links with frames queued since the last flush, flushed before the
    /// next poll (or after a long step) so a burst of sends leaves in one
    /// `writev` instead of a syscall per message.
    dirty: Vec<(u32, u32)>,
    /// Reused step-output scratch.
    outs: Vec<SendInstr>,
    events: Vec<PollEvent>,
    stop: bool,
}

impl Shard {
    fn new(registry: Arc<Registry>, wake_rx: UnixStream, cmds: Receiver<ShardCmd>) -> Shard {
        let mut poller = Poller::new().expect("poller");
        poller
            .register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)
            .expect("register wake");
        Shard {
            counters: registry.counters(),
            registry,
            poller,
            wake_rx,
            cmds,
            tokens: HashMap::new(),
            next_token: TOKEN_WAKE,
            listeners: HashMap::new(),
            conns: HashMap::new(),
            hosts: HashMap::new(),
            ports: HashMap::new(),
            epochs: HashMap::new(),
            unborn: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            dirty: Vec::new(),
            outs: Vec::new(),
            events: Vec::new(),
            stop: false,
        }
    }

    fn run(mut self) {
        loop {
            self.fire_due();
            if self.stop {
                return;
            }
            // The turn's deliveries go on the wire before the self-sends
            // they left behind are stepped: such a step may be long (a
            // replica capturing a checkpoint), and its peers should be
            // working meanwhile.
            self.flush_dirty(None);
            self.drain_inboxes();
            self.tick_links();
            // Everything queued since, batched per link.
            self.flush_dirty(None);
            let timeout = self.poll_timeout();
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            let _ = self.poller.wait(Some(timeout), &mut events);
            for ev in &events {
                self.handle_event(*ev);
            }
            self.events = events;
        }
    }

    fn now_v(&self) -> VTime {
        VTime::from_micros(self.registry.start.elapsed().as_micros() as u64)
    }

    /// Snapshot of the installed fault plan, without touching the mutex
    /// on an unfaulted net.
    fn fault_plan(&self) -> Option<shadowdb_runtime::FaultPlan> {
        if self.registry.faults.engaged.load(Ordering::Relaxed) {
            self.registry.faults.plan.lock().clone()
        } else {
            None
        }
    }

    fn alloc_token(&mut self, t: Token) -> usize {
        self.next_token += 1;
        self.tokens.insert(self.next_token, t);
        self.next_token
    }

    fn handle_cmd(&mut self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::AddNode {
                loc,
                listener,
                process,
            } => {
                self.add_listener(loc, listener);
                self.install(loc, process);
            }
            ShardCmd::AddPort { loc, listener, tx } => {
                self.add_listener(loc, listener);
                for msg in self.unborn.remove(&loc).unwrap_or_default() {
                    let _ = tx.send(msg);
                }
                self.ports.insert(loc, tx);
            }
            ShardCmd::At(at, due) => self.schedule(at, due),
            ShardCmd::Shutdown => self.stop = true,
        }
    }

    fn add_listener(&mut self, loc: u32, listener: TcpListener) {
        let _ = listener.set_nonblocking(true);
        let token = self.alloc_token(Token::Listener(loc));
        self.poller
            .register(listener.as_raw_fd(), token, Interest::READ)
            .expect("register listener");
        self.listeners.insert(token, listener);
        // Connections may already be queued in the backlog; level-triggered
        // registration reports them, no extra accept pass needed.
    }

    /// Hosts a new incarnation of `process` at `loc`. A first incarnation
    /// starts with whatever its machine-mates handed it before it arrived.
    fn install(&mut self, loc: u32, process: Box<dyn Process>) {
        let epoch = self.epochs.entry(loc).or_insert(0);
        *epoch += 1;
        let machine = self.registry.machine_of(loc).expect("allocated");
        let mut host = NodeHost::new(Loc::new(loc), machine, *epoch, process);
        host.inbox = self.unborn.remove(&loc).unwrap_or_default();
        self.hosts.insert(loc, host);
    }

    /// Removes the host at `loc`: volatile state, its inbox, timers (via
    /// epoch), and outbound connections die with it — after what its steps
    /// sent this turn leaves, as a real process's sends would. Inbound
    /// connections and the listener survive — deliveries are dropped while
    /// no host exists, exactly as a dead process behind a live address
    /// would.
    fn drop_host(&mut self, loc: u32) {
        if let Some(mut host) = self.hosts.remove(&loc) {
            for (&dest, peer) in host.peers.iter_mut() {
                if let Path::Link(link) = &mut peer.path {
                    if link.dirty {
                        self.flush_link(loc, dest, link);
                    }
                    close_link(&mut self.poller, &mut self.tokens, link);
                }
            }
        }
    }

    fn schedule(&mut self, at: Instant, due: TimerDue) {
        self.timer_seq += 1;
        let seq = self.timer_seq;
        self.timers.push(Entry { at, seq, due });
    }

    /// Runs `f` on the host at `loc`, taken out of the map meanwhile so
    /// `f` may use the rest of the shard; `None` if no host runs there.
    fn with_host<R>(
        &mut self,
        loc: u32,
        f: impl FnOnce(&mut Self, &mut NodeHost) -> R,
    ) -> Option<R> {
        let mut host = self.hosts.remove(&loc)?;
        let r = f(self, &mut host);
        self.hosts.insert(loc, host);
        Some(r)
    }

    /// Takes the waiting commands, then fires due heap entries, earliest
    /// first, up to `DUE_BUDGET` of them. Commands are taken again after
    /// each entry, and the clock read again, so one that arrives during a
    /// long step (a crash, say) is ordered before what that step left in
    /// the inboxes; the budget keeps timers armed meanwhile, and a driver
    /// that keeps injecting, from holding the sockets and inboxes off.
    fn fire_due(&mut self) {
        for _ in 0..DUE_BUDGET {
            while let Ok(cmd) = self.cmds.try_recv() {
                self.handle_cmd(cmd);
            }
            if self.stop || self.timers.peek().is_none_or(|e| e.at > Instant::now()) {
                return;
            }
            match self.timers.pop().expect("peeked").due {
                TimerDue::Timer {
                    origin,
                    epoch,
                    dest,
                    msg,
                } => {
                    let now = self.now_v();
                    self.with_host(origin, |s, host| {
                        if host.epoch == epoch {
                            s.route(host, dest, msg, now);
                        }
                    });
                }
                TimerDue::Deliver(loc, msg) => {
                    if self.with_host(loc, |s, h| s.run_step(h, &msg)).is_none() {
                        if let Some(tx) = self.ports.get(&loc) {
                            let _ = tx.send(msg);
                        }
                    }
                }
                TimerDue::Crash(loc) => self.drop_host(loc),
                // Only locations that ever hosted a node can restart.
                TimerDue::Restart(loc, process) => {
                    if self.epochs.contains_key(&loc) {
                        self.drop_host(loc);
                        self.install(loc, process);
                    }
                }
            }
        }
    }

    fn drain_inboxes(&mut self) {
        let locs: Vec<u32> = self
            .hosts
            .iter()
            .filter(|(_, h)| !h.inbox.is_empty())
            .map(|(l, _)| *l)
            .collect();
        for loc in locs {
            self.with_host(loc, |s, host| {
                for _ in 0..INBOX_BUDGET {
                    let Some(m) = host.inbox.pop_front() else {
                        break;
                    };
                    s.run_step(host, &m);
                }
            });
        }
    }

    /// Retries what waits on a peer: links with parked frames reconnect
    /// (respecting the seeded backoff) and flush in FIFO order, and a
    /// machine-mate's held messages are handed over, oldest first — in
    /// both cases only once the fault plane no longer cuts the pair.
    /// Cheap when nothing is pending.
    fn tick_links(&mut self) {
        let locs: Vec<u32> = self
            .hosts
            .iter()
            .filter(|(_, h)| h.peers.values().any(Peer::pending))
            .map(|(l, _)| *l)
            .collect();
        if locs.is_empty() {
            return;
        }
        let now = self.now_v();
        let plan = self.fault_plan();
        for loc in locs {
            self.with_host(loc, |s, host| {
                for (&d, peer) in host.peers.iter_mut() {
                    if !peer.pending()
                        || plan
                            .as_ref()
                            .is_some_and(|p| p.cut(host.slf, Loc::new(d), now))
                    {
                        continue;
                    }
                    match &mut peer.path {
                        Path::Link(link) => s.flush_link(loc, d, link),
                        Path::Mate(held) => {
                            for msg in std::mem::take(held) {
                                s.hand_off(d, msg);
                            }
                        }
                    }
                }
            });
        }
    }

    fn poll_timeout(&self) -> Duration {
        if self.hosts.values().any(|h| !h.inbox.is_empty()) {
            return Duration::ZERO;
        }
        match self.timers.peek() {
            Some(e) => e.at.saturating_duration_since(Instant::now()).min(TICK),
            None => TICK,
        }
    }

    fn handle_event(&mut self, ev: PollEvent) {
        if ev.token == TOKEN_WAKE {
            self.drain_wake();
            return;
        }
        match self.tokens.get(&ev.token).copied() {
            Some(Token::Listener(loc)) => self.accept_ready(ev.token, loc),
            Some(Token::Conn) if ev.readable || ev.hangup => self.read_conn(ev.token),
            Some(Token::Conn) => {}
            Some(Token::Out { origin, dest }) => self.out_event(origin, dest, ev),
            // Stale token: the fd was closed earlier in this event batch.
            None => {}
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self, token: usize, loc: u32) {
        let Some(listener) = self.listeners.remove(&token) else {
            return;
        };
        while let Ok((stream, _peer)) = listener.accept() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let ctok = self.alloc_token(Token::Conn);
            if self
                .poller
                .register(stream.as_raw_fd(), ctok, Interest::READ)
                .is_ok()
            {
                self.conns.insert(
                    ctok,
                    InConn {
                        stream,
                        rdr: FrameReader::new(),
                        dest: loc,
                    },
                );
            } else {
                self.tokens.remove(&ctok);
            }
        }
        self.listeners.insert(token, listener);
    }

    /// Drains one inbound connection until `WouldBlock` (or the read
    /// budget), decoding frames and delivering each message inline. The
    /// destination is resolved once for the whole batch — every frame on
    /// a connection delivers to the same location — so the per-message
    /// cost is one decode and one process step, no map lookups. A decode
    /// error means the stream is unsynchronized: the connection is
    /// dropped (the sender reconnects), the only safe recovery for a
    /// framed stream.
    fn read_conn(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut host = self.hosts.remove(&conn.dest);
        let port = match &host {
            Some(_) => None,
            // Crashed (or unknown) locations fall through to `None`:
            // messages are dropped, exactly as a dead process would.
            None => self.ports.get(&conn.dest).cloned(),
        };
        let mut alive = true;
        let mut budget = READ_BUDGET;
        'conn: while budget > 0 {
            let spare = conn.rdr.spare_mut(READ_CHUNK);
            match conn.stream.read(spare) {
                Ok(0) => {
                    alive = false;
                    break;
                }
                Ok(n) => {
                    conn.rdr.commit(n);
                    budget = budget.saturating_sub(n);
                    loop {
                        match conn.rdr.next_msg() {
                            Ok(Some(msg)) => {
                                if let Some(h) = host.as_mut() {
                                    self.run_step(h, &msg);
                                } else if let Some(tx) = &port {
                                    let _ = tx.send(msg);
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                alive = false;
                                break 'conn;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        if let Some(h) = host {
            self.hosts.insert(conn.dest, h);
        }
        if alive {
            self.conns.insert(token, conn);
        } else {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.tokens.remove(&token);
        }
    }

    /// One delivered message: step the process, then send its outputs —
    /// delayed ones to the shard's heap, the rest by [`Shard::route`].
    /// The step sees the clock at its own start, however long the steps
    /// before it in the batch ran. A step longer than [`LONG_STEP`]
    /// flushes the shard's dirty links before anything else is stepped.
    fn run_step(&mut self, host: &mut NodeHost, msg: &Msg) {
        let start = Instant::now();
        let now = VTime::from_micros(
            start
                .saturating_duration_since(self.registry.start)
                .as_micros() as u64,
        );
        let mut outs = std::mem::take(&mut self.outs);
        outs.clear();
        completion::stepping(host.slf, host.epoch, || {
            host.process
                .step_into(&Ctx::new(host.slf, now), msg, &mut outs)
        });
        for SendInstr { dest, delay, msg } in outs.drain(..) {
            if delay > Duration::ZERO {
                let timer = TimerDue::Timer {
                    origin: host.slf.index(),
                    epoch: host.epoch,
                    dest,
                    msg,
                };
                self.schedule(Instant::now() + delay, timer);
            } else {
                self.route(host, dest, msg, now);
            }
        }
        self.outs = outs;
        if start.elapsed() > LONG_STEP {
            self.flush_dirty(Some(host));
        }
    }

    /// Sends one message from `host`, by the one routing decision every
    /// output and every due timer takes: to the host's own inbox; to a
    /// location of the same machine, by hand-off into its inbox; or to
    /// anywhere else, over the pair's socket link. The path is settled on
    /// the pair's first message (the destination's machine is read from
    /// the registry then) and kept, so a pair never mixes paths and stays
    /// FIFO.
    fn route(&mut self, host: &mut NodeHost, dest: Loc, msg: Msg, now: VTime) {
        if dest == host.slf {
            host.inbox.push_back(msg);
            return;
        }
        let didx = dest.index();
        let machine = host.machine;
        let peer = host
            .peers
            .entry(didx)
            .or_insert_with(|| Peer::new(self.registry.machine_of(didx) == Some(machine)));
        let fate = self.fate(host.slf, dest, now, &mut peer.fault_seq);
        match &mut peer.path {
            Path::Mate(held) => self.mate_send(held, didx, msg, fate),
            Path::Link(link) => self.link_send(host.slf, &mut host.enc, didx, link, &msg, fate),
        }
    }

    /// What the fault plane does to the `seq`-th message from `origin` to
    /// `dest`, counting losses and duplicates. Delay spikes and reorder
    /// windows are not reproducible on a real FIFO stream and are ignored
    /// (the schedule itself stays byte-identical with the other
    /// substrates).
    fn fate(&self, origin: Loc, dest: Loc, now: VTime, seq: &mut u64) -> Fate {
        if !self.registry.faults.engaged.load(Ordering::Relaxed) {
            return Fate::Deliver(1);
        }
        let guard = self.registry.faults.plan.lock();
        let Some(plan) = guard.as_ref().filter(|p| p.active(origin, dest, now)) else {
            return Fate::Deliver(1);
        };
        *seq += 1;
        match plan.decide(origin, dest, now, *seq - 1) {
            LinkVerdict::Drop { severed: true } => Fate::Held,
            LinkVerdict::Drop { severed: false } => {
                bump(&self.counters.frames_dropped, 1);
                Fate::Lost
            }
            LinkVerdict::Deliver {
                duplicate: true, ..
            } => {
                bump(&self.counters.frames_duplicated, 1);
                Fate::Deliver(2)
            }
            LinkVerdict::Deliver { .. } => Fate::Deliver(1),
        }
    }

    /// Sends to a machine-mate. Once the pair holds messages (a cut), later
    /// ones queue behind them until the tick after heal hands them over.
    fn mate_send(&mut self, held: &mut VecDeque<Msg>, dest: u32, msg: Msg, fate: Fate) {
        let copies = match fate {
            Fate::Lost => return,
            Fate::Held => 1,
            Fate::Deliver(n) if held.is_empty() => {
                for _ in 1..n {
                    self.hand_off(dest, msg.clone());
                }
                self.hand_off(dest, msg);
                return;
            }
            Fate::Deliver(n) => n,
        };
        for _ in 0..copies {
            if hold(held, msg.clone()) {
                bump(&self.counters.frames_dropped, 1);
            }
        }
    }

    /// Puts `msg` in the inbox of the machine-mate at `dest`, stepped at
    /// the top of the next turn like a self-send. A crashed mate drops it,
    /// as a dead process behind a live listener drops frames; one not yet
    /// added here finds it waiting when it arrives.
    fn hand_off(&mut self, dest: u32, msg: Msg) {
        if let Some(host) = self.hosts.get_mut(&dest) {
            host.inbox.push_back(msg);
        } else if let Some(tx) = self.ports.get(&dest) {
            let _ = tx.send(msg);
        } else if !self.epochs.contains_key(&dest) {
            self.unborn.entry(dest).or_default().push_back(msg);
        } else {
            return;
        }
        bump(&self.counters.colocated, 1);
    }

    /// Encodes and queues one message on the `(origin, dest)` link: a cut
    /// force-closes its connection and parks the frame for the post-heal
    /// flush, a lossy verdict sends nothing, a duplicating one queues the
    /// frame twice.
    fn link_send(
        &mut self,
        origin: Loc,
        enc: &mut FrameEncoder,
        dest: u32,
        link: &mut OutLink,
        msg: &Msg,
        fate: Fate,
    ) {
        let copies = match fate {
            Fate::Lost => return,
            Fate::Held => {
                // Partition: force-close so the peer's loop sees the
                // break, and park the frame for the post-heal flush.
                close_link(&mut self.poller, &mut self.tokens, link);
                if link.queue.push(enc.encode(msg)) {
                    bump(&self.counters.frames_dropped, 1);
                }
                return;
            }
            Fate::Deliver(n) => n,
        };
        let frame = enc.encode(msg);
        for _ in 0..copies {
            if link.queue.push(frame) {
                bump(&self.counters.frames_dropped, 1);
            }
        }
        if link.queue.len() >= MAX_IOV {
            // A full writev batch is queued: flush now rather than let a
            // long read burst pile frames toward the eviction cap.
            self.flush_link(origin.index(), dest, link);
        }
        if !link.dirty && !link.queue.is_empty() {
            link.dirty = true;
            self.dirty.push((origin.index(), dest));
        }
    }

    /// Flushes every link that queued frames since the last flush, one
    /// `writev` burst per link. A link the fault plane severed meanwhile
    /// keeps its frames parked — `tick_links` flushes them after heal.
    /// `held` is a host taken out of `hosts` by the caller (the one being
    /// stepped); its links are flushed through it.
    fn flush_dirty(&mut self, mut held: Option<&mut NodeHost>) {
        if self.dirty.is_empty() {
            return;
        }
        let now = self.now_v();
        let plan = self.fault_plan();
        let flush = |s: &mut Self, host: &mut NodeHost, dest: u32| {
            let origin = host.slf;
            if let Some(link) = host.link_mut(dest) {
                link.dirty = false;
                if !plan
                    .as_ref()
                    .is_some_and(|p| p.cut(origin, Loc::new(dest), now))
                {
                    s.flush_link(origin.index(), dest, link);
                }
            }
        };
        while let Some((origin, dest)) = self.dirty.pop() {
            match held.as_deref_mut() {
                Some(host) if host.slf.index() == origin => flush(self, host, dest),
                _ => {
                    self.with_host(origin, |s, host| flush(s, host, dest));
                }
            }
        }
    }

    /// An event on an outbound link: peer close tears the connection down
    /// right away (its frames stay parked for the reconnect),
    /// write-readiness resumes a parked flush. Outbound links never
    /// expect inbound data, so readable without hangup is probed — EOF
    /// and errors break the link, stray bytes are discarded.
    fn out_event(&mut self, origin: u32, dest: u32, ev: PollEvent) {
        self.with_host(origin, |s, host| {
            if let Some(link) = host.link_mut(dest) {
                let broken =
                    ev.hangup || ev.readable && link.conn.as_mut().is_some_and(closed_by_peer);
                if broken {
                    // The reconnect happens on the next send or link tick,
                    // honoring the seeded backoff.
                    close_link(&mut s.poller, &mut s.tokens, link);
                } else if ev.writable {
                    s.flush_link(origin, dest, link);
                }
            }
        });
    }

    /// Drives one link as far as the kernel allows: connect (respecting
    /// the seeded backoff), drain the queue with vectored writes, and park
    /// on write readiness when the kernel pushes back. Connections stay
    /// registered read-side their whole life, so a peer close wakes the
    /// loop immediately; write interest is toggled with `modify`, never
    /// re-registered. On a broken connection the partial-write offset
    /// resets so the reconnect retransmits the whole front frame — the
    /// peer discarded the partial tail with the dead connection.
    fn flush_link(&mut self, origin: u32, dest: u32, link: &mut OutLink) {
        let mut breaks = 0;
        loop {
            if link.queue.is_empty() {
                // Fully drained: back to read-only interest (peer-close
                // watch) — leaving write armed would spin a
                // level-triggered poller on an always-writable idle
                // socket.
                if link.write_armed {
                    if let (Some(tok), Some(conn)) = (link.token, link.conn.as_ref()) {
                        let _ = self.poller.modify(conn.as_raw_fd(), tok, Interest::READ);
                    }
                    link.write_armed = false;
                }
                return;
            }
            if link.conn.is_none() {
                if breaks >= 2 || !try_connect(&self.registry, &self.counters, origin, dest, link) {
                    return;
                }
                // Newly connected: watch for peer close from the start.
                let fd = link.conn.as_ref().expect("connected").as_raw_fd();
                let tok = self.alloc_token(Token::Out { origin, dest });
                if self.poller.register(fd, tok, Interest::READ).is_ok() {
                    link.token = Some(tok);
                } else {
                    self.tokens.remove(&tok);
                }
                link.write_armed = false;
            }
            let conn = link.conn.as_mut().expect("connected");
            match link.queue.flush_into(conn) {
                Ok((frames, writes)) => {
                    bump(&self.counters.frames_written, frames);
                    bump(&self.counters.writes, writes);
                    if link.queue.is_empty() {
                        continue; // loop falls into the disarm arm
                    }
                    // WouldBlock: arm write readiness and wait for the
                    // kernel.
                    if !link.write_armed {
                        if let Some(tok) = link.token {
                            let fd = link.conn.as_ref().expect("connected").as_raw_fd();
                            let _ = self.poller.modify(fd, tok, Interest::RW);
                            link.write_armed = true;
                        }
                    }
                    return;
                }
                Err(_) => {
                    close_link(&mut self.poller, &mut self.tokens, link);
                    breaks += 1;
                }
            }
        }
    }
}

/// Reads an outbound connection dry: EOF or an error means the peer closed
/// it; stray bytes are discarded.
fn closed_by_peer(conn: &mut TcpStream) -> bool {
    let mut probe = [0u8; 64];
    loop {
        match conn.read(&mut probe) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Withdraws a link's poller registration and closes its connection.
fn close_link(poller: &mut Poller, tokens: &mut HashMap<usize, Token>, link: &mut OutLink) {
    if let Some(tok) = link.token.take() {
        tokens.remove(&tok);
    }
    if let Some(conn) = link.conn.take() {
        let _ = poller.deregister(conn.as_raw_fd());
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    link.write_armed = false;
    link.queue.reset_front();
}
