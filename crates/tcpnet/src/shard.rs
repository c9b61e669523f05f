//! The shard event loops: N per-core executor threads, each owning a
//! partition of the net's locations (`loc % shards`). A shard's poller
//! watches its listeners, every inbound connection to its locations, a
//! wake pipe for commands, and any outbound link currently blocked on
//! write readiness. Node timer heaps run off the same loop — there are no
//! per-node or per-connection threads anywhere.
//!
//! Delivery is inline: a frame decoded off an inbound connection steps
//! the destination process on the spot (the connection was accepted by
//! the destination's own shard); its sends are queued on nonblocking
//! links and written before the loop returns to the poller. Zero-delay
//! self-sends instead wait in the host's inbox for the top of the next
//! turn — after everything readable this turn was stepped and the links
//! those steps wrote are flushed — so work a process defers to one (a
//! replica's `sdb/sync`) runs once per turn. Decoded message bodies are
//! zero-copy views of their own frame, which `FrameReader` copies out of
//! the connection's reassembly buffer right-sized: one allocation per
//! frame, and the buffer itself is never pinned by what a process keeps.

use crate::link::{try_connect, OutLink};
use crate::node::NodeHost;
use crate::poll::{Interest, PollEvent, Poller};
use crate::registry::Registry;
use crossbeam::channel::{self, Receiver, Sender};
use shadowdb_eventml::{Ctx, FrameReader, Msg, Process, SendInstr};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::LinkVerdict;
use std::collections::{BinaryHeap, HashMap};
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
/// Most zero-delay self-sends stepped per host per turn, so a self-send
/// loop cannot starve the shard's sockets.
const INBOX_BUDGET: usize = 256;
/// The loop's idle tick: pending links retry and heal within this bound,
/// matching the threaded runtime's cadence.
const TICK: Duration = Duration::from_millis(20);

/// What a shard can be told to do. Crash and restart are not inbox
/// messages: a crash *removes the host* (volatile state, pending timers,
/// and outbound connections die with it) and a restart installs a fresh
/// incarnation behind the same listener.
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
    /// Drop the host at `loc`; deliveries are discarded until restart.
    Crash(u32),
    /// Install a fresh incarnation at `loc` (no-op for unknown locs).
    Restart(u32, Box<dyn Process>),
    /// Exit the shard thread.
    Shutdown,
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

/// Spawns one shard thread; the returned handle feeds it commands.
pub fn spawn_shard(registry: Arc<Registry>) -> (ShardHandle, JoinHandle<()>) {
    let (cmd_tx, cmd_rx) = channel::unbounded::<ShardCmd>();
    let (wake_tx, wake_rx) = UnixStream::pair().expect("wake pipe");
    wake_tx.set_nonblocking(true).expect("nonblocking wake");
    wake_rx.set_nonblocking(true).expect("nonblocking wake");
    let handle = std::thread::spawn(move || Shard::new(registry, wake_rx, cmd_rx).run());
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

/// A delayed send armed by a hosted process, held at the sender until due
/// (Fig. 4's "period of time the process must wait before sending").
/// Fires only into the incarnation that armed it.
struct TimerDue {
    at: Instant,
    seq: u64,
    origin: u32,
    epoch: u64,
    dest: Loc,
    msg: Msg,
}

impl PartialEq for TimerDue {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerDue {}
impl PartialOrd for TimerDue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerDue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, the earliest timer first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Shard {
    registry: Arc<Registry>,
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
    timers: BinaryHeap<TimerDue>,
    timer_seq: u64,
    /// Links with frames queued this iteration, flushed once before the
    /// next poll so a burst of sends leaves in one `writev` instead of a
    /// syscall per message.
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
            while let Ok(cmd) = self.cmds.try_recv() {
                self.handle_cmd(cmd);
            }
            if self.stop {
                return;
            }
            self.fire_timers();
            // The turn's deliveries go on the wire before the self-sends
            // they left behind are stepped: such a step may block (a
            // replica's fsync), and its peers should be working meanwhile.
            self.flush_dirty();
            self.drain_inboxes();
            self.tick_links();
            // Everything queued since, batched per link.
            self.flush_dirty();
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
                let epoch = self.bump_epoch(loc);
                self.hosts
                    .insert(loc, NodeHost::new(Loc::new(loc), epoch, process));
            }
            ShardCmd::AddPort { loc, listener, tx } => {
                self.add_listener(loc, listener);
                self.ports.insert(loc, tx);
            }
            ShardCmd::Crash(loc) => self.drop_host(loc),
            ShardCmd::Restart(loc, process) => {
                // Only locations that ever hosted a node can restart.
                if !self.epochs.contains_key(&loc) {
                    return;
                }
                self.drop_host(loc);
                let epoch = self.bump_epoch(loc);
                self.hosts
                    .insert(loc, NodeHost::new(Loc::new(loc), epoch, process));
            }
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

    fn bump_epoch(&mut self, loc: u32) -> u64 {
        let e = self.epochs.entry(loc).or_insert(0);
        *e += 1;
        *e
    }

    /// Removes the host at `loc`: volatile state, timers (via epoch), and
    /// outbound connections die with it. Inbound connections and the
    /// listener survive — deliveries are dropped while no host exists,
    /// exactly as a dead process behind a live address would.
    fn drop_host(&mut self, loc: u32) {
        if let Some(mut host) = self.hosts.remove(&loc) {
            for link in host.links.values_mut() {
                close_link(&mut self.poller, &mut self.tokens, link);
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        let vnow = self.now_v();
        while self.timers.peek().map(|t| t.at <= now).unwrap_or(false) {
            let t = self.timers.pop().expect("peeked");
            let Some(mut host) = self.hosts.remove(&t.origin) else {
                continue;
            };
            if host.epoch == t.epoch {
                if t.dest == host.slf {
                    host.inbox.push_back(t.msg);
                } else {
                    self.link_send(&mut host, t.dest, &t.msg, vnow);
                }
            }
            self.hosts.insert(t.origin, host);
        }
    }

    fn drain_inboxes(&mut self) {
        let locs: Vec<u32> = self
            .hosts
            .iter()
            .filter(|(_, h)| !h.inbox.is_empty())
            .map(|(l, _)| *l)
            .collect();
        if locs.is_empty() {
            return;
        }
        let now = self.now_v();
        for loc in locs {
            let Some(mut host) = self.hosts.remove(&loc) else {
                continue;
            };
            let mut budget = INBOX_BUDGET;
            while budget > 0 {
                let Some(m) = host.inbox.pop_front() else {
                    break;
                };
                self.run_step(&mut host, &m, now);
                budget -= 1;
            }
            self.hosts.insert(loc, host);
        }
    }

    /// Retries links with parked frames: reconnects (respecting the
    /// seeded backoff) and flushes in FIFO order, skipping links the
    /// fault plane still holds severed. Cheap when nothing is pending.
    fn tick_links(&mut self) {
        let locs: Vec<u32> = self
            .hosts
            .iter()
            .filter(|(_, h)| h.links.values().any(|l| !l.queue.is_empty()))
            .map(|(l, _)| *l)
            .collect();
        if locs.is_empty() {
            return;
        }
        let now = self.now_v();
        let plan = self.fault_plan();
        for loc in locs {
            let Some(mut host) = self.hosts.remove(&loc) else {
                continue;
            };
            let dests: Vec<u32> = host
                .links
                .iter()
                .filter(|(_, l)| !l.queue.is_empty())
                .map(|(d, _)| *d)
                .collect();
            for d in dests {
                if let Some(plan) = plan.as_ref() {
                    if plan.cut(host.slf, Loc::new(d), now) {
                        continue;
                    }
                }
                let link = host.links.get_mut(&d).expect("link exists");
                flush_link(
                    &mut self.poller,
                    &mut self.tokens,
                    &mut self.next_token,
                    &self.registry,
                    loc,
                    d,
                    link,
                );
            }
            self.hosts.insert(loc, host);
        }
    }

    fn poll_timeout(&self) -> Duration {
        if self.hosts.values().any(|h| !h.inbox.is_empty()) {
            return Duration::ZERO;
        }
        match self.timers.peek() {
            Some(t) => t.at.saturating_duration_since(Instant::now()).min(TICK),
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
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(_) => return,
            }
        }
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
        let now = self.now_v();
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
                                    self.run_step(h, &msg, now);
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

    /// One delivered message: step the process, then fan its outputs out
    /// to the timer heap (delayed), the host inbox (self), or the
    /// nonblocking links (remote). `now` is the batch's clock reading —
    /// computed once per readiness event, not per message.
    fn run_step(&mut self, host: &mut NodeHost, msg: &Msg, now: VTime) {
        let mut outs = std::mem::take(&mut self.outs);
        outs.clear();
        host.process
            .step_into(&Ctx::new(host.slf, now), msg, &mut outs);
        for SendInstr { dest, delay, msg } in outs.drain(..) {
            if delay > Duration::ZERO {
                self.timer_seq += 1;
                self.timers.push(TimerDue {
                    at: Instant::now() + delay,
                    seq: self.timer_seq,
                    origin: host.slf.index(),
                    epoch: host.epoch,
                    dest,
                    msg,
                });
            } else if dest == host.slf {
                host.inbox.push_back(msg);
            } else {
                self.link_send(host, dest, &msg, now);
            }
        }
        self.outs = outs;
    }

    /// Encodes and writes one message on the `(host, dest)` link,
    /// consulting the fault plane per frame: a severed link force-closes
    /// its connection and parks the frame for the post-heal flush, lossy
    /// windows drop, duplication windows write twice. Delay spikes and
    /// reorder windows are not reproducible on a real FIFO stream and are
    /// ignored (the schedule itself stays byte-identical with the other
    /// substrates).
    fn link_send(&mut self, host: &mut NodeHost, dest: Loc, msg: &Msg, now: VTime) {
        let origin = host.slf;
        let didx = dest.index();
        let link = host.links.entry(didx).or_default();
        let mut copies = 1usize;
        let verdict = if self.registry.faults.engaged.load(Ordering::Relaxed) {
            let guard = self.registry.faults.plan.lock();
            guard.as_ref().and_then(|plan| {
                plan.active(origin, dest, now).then(|| {
                    let k = link.fault_seq;
                    link.fault_seq += 1;
                    plan.decide(origin, dest, now, k)
                })
            })
        } else {
            None
        };
        match verdict {
            None => {}
            Some(LinkVerdict::Drop { severed: false }) => {
                self.registry
                    .faults
                    .frames_dropped
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Some(LinkVerdict::Drop { severed: true }) => {
                // Partition: force-close so the peer's loop sees the
                // break, and park the frame for the post-heal flush.
                close_link(&mut self.poller, &mut self.tokens, link);
                let frame = host.enc.encode(msg);
                if link.queue.push(frame) {
                    self.registry
                        .faults
                        .frames_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Some(LinkVerdict::Deliver {
                duplicate: true, ..
            }) => {
                copies = 2;
                self.registry
                    .faults
                    .frames_duplicated
                    .fetch_add(1, Ordering::Relaxed);
            }
            Some(LinkVerdict::Deliver { .. }) => {}
        }
        let frame = host.enc.encode(msg);
        for _ in 0..copies {
            if link.queue.push(frame) {
                self.registry
                    .faults
                    .frames_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if link.queue.len() >= crate::link::MAX_IOV {
            // A full writev batch is queued: flush now rather than let a
            // long read burst pile frames toward the eviction cap.
            flush_link(
                &mut self.poller,
                &mut self.tokens,
                &mut self.next_token,
                &self.registry,
                origin.index(),
                didx,
                link,
            );
        }
        if !link.dirty && !link.queue.is_empty() {
            link.dirty = true;
            self.dirty.push((origin.index(), didx));
        }
    }

    /// Flushes every link that queued frames this iteration, one `writev`
    /// burst per link. A link the fault plane severed mid-iteration keeps
    /// its frames parked — `tick_links` flushes them after heal.
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let now = self.now_v();
        let plan = self.fault_plan();
        while let Some((origin, dest)) = self.dirty.pop() {
            let Some(mut host) = self.hosts.remove(&origin) else {
                continue;
            };
            if let Some(link) = host.links.get_mut(&dest) {
                link.dirty = false;
                let cut = plan
                    .as_ref()
                    .is_some_and(|p| p.cut(host.slf, Loc::new(dest), now));
                if !cut {
                    flush_link(
                        &mut self.poller,
                        &mut self.tokens,
                        &mut self.next_token,
                        &self.registry,
                        origin,
                        dest,
                        link,
                    );
                }
            }
            self.hosts.insert(origin, host);
        }
    }

    /// An event on an outbound link: peer close tears the connection down
    /// right away (its frames stay parked for the reconnect),
    /// write-readiness resumes a parked flush. Outbound links never
    /// expect inbound data, so readable without hangup is probed — EOF
    /// and errors break the link, stray bytes are discarded.
    fn out_event(&mut self, origin: u32, dest: u32, ev: PollEvent) {
        let Some(mut host) = self.hosts.remove(&origin) else {
            return;
        };
        if let Some(link) = host.links.get_mut(&dest) {
            let mut broken = ev.hangup;
            if !broken && ev.readable {
                if let Some(conn) = link.conn.as_mut() {
                    let mut probe = [0u8; 64];
                    loop {
                        match conn.read(&mut probe) {
                            Ok(0) => {
                                broken = true;
                                break;
                            }
                            Ok(_) => {}
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                broken = true;
                                break;
                            }
                        }
                    }
                }
            }
            if broken {
                // The reconnect happens on the next send or link tick,
                // honoring the seeded backoff.
                close_link(&mut self.poller, &mut self.tokens, link);
            } else if ev.writable {
                flush_link(
                    &mut self.poller,
                    &mut self.tokens,
                    &mut self.next_token,
                    &self.registry,
                    origin,
                    dest,
                    link,
                );
            }
        }
        self.hosts.insert(origin, host);
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

/// Drives one link as far as the kernel allows: connect (respecting the
/// seeded backoff), drain the queue with vectored writes, and park on
/// write readiness when the kernel pushes back. Connections stay
/// registered read-side their whole life, so a peer close wakes the loop
/// immediately; write interest is toggled with `modify`, never
/// re-registered. On a broken connection the partial-write offset resets
/// so the reconnect retransmits the whole front frame — the peer
/// discarded the partial tail with the dead connection.
fn flush_link(
    poller: &mut Poller,
    tokens: &mut HashMap<usize, Token>,
    next_token: &mut usize,
    registry: &Registry,
    origin: u32,
    dest: u32,
    link: &mut OutLink,
) {
    let mut breaks = 0;
    loop {
        if link.queue.is_empty() {
            // Fully drained: back to read-only interest (peer-close
            // watch) — leaving write armed would spin a level-triggered
            // poller on an always-writable idle socket.
            if link.write_armed {
                if let (Some(tok), Some(conn)) = (link.token, link.conn.as_ref()) {
                    let _ = poller.modify(conn.as_raw_fd(), tok, Interest::READ);
                }
                link.write_armed = false;
            }
            return;
        }
        if link.conn.is_none() {
            if breaks >= 2 || !try_connect(registry, origin, dest, link) {
                return;
            }
            // Newly connected: watch for peer close from the start.
            let conn = link.conn.as_ref().expect("connected");
            *next_token += 1;
            let tok = *next_token;
            if poller
                .register(conn.as_raw_fd(), tok, Interest::READ)
                .is_ok()
            {
                tokens.insert(tok, Token::Out { origin, dest });
                link.token = Some(tok);
            }
            link.write_armed = false;
        }
        let conn = link.conn.as_mut().expect("connected");
        match link.queue.flush_into(conn) {
            Ok(()) => {
                if link.queue.is_empty() {
                    continue; // loop falls into the disarm arm
                }
                // WouldBlock: arm write readiness and wait for the
                // kernel.
                if !link.write_armed {
                    if let Some(tok) = link.token {
                        let fd = link.conn.as_ref().expect("connected").as_raw_fd();
                        let _ = poller.modify(fd, tok, Interest::RW);
                        link.write_armed = true;
                    }
                }
                return;
            }
            Err(_) => {
                close_link(poller, tokens, link);
                breaks += 1;
            }
        }
    }
}
