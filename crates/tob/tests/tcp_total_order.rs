//! The broadcast service on real sockets: the unmodified `TobDeployment`
//! builder deploys onto `shadowdb-tcpnet`, so every client request,
//! consensus round, and delivery notification between machines crosses a
//! loopback TCP connection as length-prefixed codec frames — and the
//! roles inside one broadcast machine hand each other messages in memory.

use parking_lot::Mutex;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{PortRx, Runtime};
use shadowdb_tcpnet::TcpNet;
use shadowdb_tob::client::{ClientStats, TobClient};
use shadowdb_tob::deploy::{BackendKind, TobDeployment, TobOptions};
use shadowdb_tob::mode::ExecutionMode;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run_over_tcp(backend: BackendKind, n_msgs: u64) -> ClientStats {
    let mut net = TcpNet::new();
    let stats = Arc::new(parking_lot::Mutex::new(ClientStats::default()));
    let client_loc = Loc::new(0);
    let options = TobOptions {
        backend,
        mode: ExecutionMode::Compiled,
        ..TobOptions::default()
    };
    let servers = options.server_locs(1);
    let client = TobClient::new(servers, Value::str("payload"), n_msgs, stats.clone());
    let added = net.add_node(Box::new(client));
    assert_eq!(added, client_loc);
    let deployment = TobDeployment::build(&mut net, &options, vec![client_loc]);
    assert_eq!(deployment.servers[0], Loc::new(1));
    Runtime::send_at(&mut net, VTime::ZERO, client_loc, TobClient::start_msg());

    let t0 = Instant::now();
    while (stats.lock().completed.len() as u64) < n_msgs {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "broadcast run over TCP did not finish in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    net.shutdown();
    let out = stats.lock().clone();
    out
}

#[test]
fn paxos_backend_delivers_all_messages_over_tcp() {
    let stats = run_over_tcp(BackendKind::Paxos, 20);
    assert_eq!(stats.completed.len(), 20);
}

#[test]
fn twothird_backend_delivers_all_messages_over_tcp() {
    let stats = run_over_tcp(BackendKind::TwoThird, 20);
    assert_eq!(stats.completed.len(), 20);
}

/// Every step output of a deployment, split by whether it stays on the
/// sender's machine. Self-sends count as neither.
#[derive(Default)]
struct Hops {
    machine_of: Mutex<HashMap<Loc, Loc>>,
    intra: AtomicU64,
    inter: AtomicU64,
}

/// A process whose outputs are tallied in [`Hops`].
struct Tallied {
    inner: Box<dyn Process>,
    hops: Arc<Hops>,
}

impl Process for Tallied {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        let first = out.len();
        self.inner.step_into(ctx, msg, out);
        let machine_of = self.hops.machine_of.lock();
        for s in out[first..].iter().filter(|s| s.dest != ctx.slf) {
            let tally = if machine_of.get(&s.dest) == machine_of.get(&ctx.slf) {
                &self.hops.intra
            } else {
                &self.hops.inter
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(Tallied {
            inner: self.inner.clone_box(),
            hops: self.hops.clone(),
        })
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        self.inner.digest(hasher)
    }
}

/// A net whose processes are all [`Tallied`]; a machine is named by its
/// first location.
struct TalliedNet {
    net: TcpNet,
    hops: Arc<Hops>,
}

impl TalliedNet {
    fn tally(&self, process: Box<dyn Process>) -> Box<dyn Process> {
        Box::new(Tallied {
            inner: process,
            hops: self.hops.clone(),
        })
    }

    fn placed(&self, loc: Loc, machine: Loc) -> Loc {
        self.hops.machine_of.lock().insert(loc, machine);
        loc
    }
}

impl Runtime for TalliedNet {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        let loc = self.net.add_node(self.tally(process));
        self.placed(loc, loc)
    }

    fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        let loc = self.net.add_node_colocated(self.tally(process), peer);
        let machine = self.hops.machine_of.lock()[&peer];
        self.placed(loc, machine)
    }

    fn node_count(&self) -> u32 {
        self.net.node_count()
    }

    fn now(&self) -> VTime {
        self.net.now()
    }

    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg) {
        self.net.send_at(at, dest, msg)
    }

    fn crash_at(&mut self, at: VTime, loc: Loc) {
        self.net.crash_at(at, loc)
    }

    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        let p = self.tally(process);
        self.net.restart_at(at, loc, p)
    }

    fn port(&mut self) -> (Loc, PortRx) {
        let (loc, rx) = self.net.port();
        (self.placed(loc, loc), PortRx::new(rx))
    }

    fn run_for(&mut self, duration: Duration) {
        self.net.run_for(duration)
    }
}

/// A Paxos broadcast machine is four locations — server, Synod replica,
/// leader and acceptor — on one tcpnet machine: every message between two
/// of them is handed over in memory and none is written to a socket. The
/// frames written are exactly the outputs that leave a machine: the
/// driver's injections (the client's start and the leader's) are stepped
/// by their shard and cross no socket.
#[test]
fn paxos_machine_roles_write_no_frames_to_each_other() {
    let n_msgs = 20;
    let mut rt = TalliedNet {
        net: TcpNet::new(),
        hops: Arc::default(),
    };
    let stats = Arc::new(parking_lot::Mutex::new(ClientStats::default()));
    let options = TobOptions {
        backend: BackendKind::Paxos,
        mode: ExecutionMode::Compiled,
        ..TobOptions::default()
    };
    let client = TobClient::new(
        options.server_locs(1),
        Value::str("payload"),
        n_msgs,
        stats.clone(),
    );
    let client = rt.add_node(Box::new(client));
    TobDeployment::build(&mut rt, &options, vec![client]);
    rt.send_at(VTime::ZERO, client, TobClient::start_msg());

    let t0 = Instant::now();
    while (stats.lock().completed.len() as u64) < n_msgs {
        assert!(t0.elapsed() < Duration::from_secs(60), "run did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The late deliveries of the other two servers drain; then the
    // service is idle.
    let reading = |rt: &TalliedNet| {
        let hops = (
            rt.hops.intra.load(Ordering::Relaxed),
            rt.hops.inter.load(Ordering::Relaxed),
        );
        (hops, rt.net.link_stats())
    };
    let mut last = reading(&rt);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = reading(&rt);
        if now == last {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(60), "never settled");
        last = now;
    }
    let ((intra, inter), links) = last;
    assert!(
        intra >= n_msgs,
        "roles of one machine exchanged {intra} messages"
    );
    assert_eq!(links.colocated, intra, "{links:?}");
    assert_eq!(links.frames_written, inter, "{links:?}");
    rt.net.shutdown();
}
