//! Broadcast-service fault tolerance: "if we deploy the broadcast service
//! on three replicas, then at most one failure can be masked" (Sec. III).
//!
//! One whole service machine (server + replica + leader + acceptor) is
//! crashed; with standby leaders running, the surviving majority keeps
//! ordering, and clients — retrying other servers on timeout — lose
//! nothing.

use parking_lot::Mutex;
use shadowdb_consensus::synod;
use shadowdb_eventml::codec::encoded_len;
use shadowdb_eventml::{Ctx, FnProcess, Msg, Process, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_simnet::{NetworkConfig, SimBuilder};
use shadowdb_tob::deploy::BackendKind;
use shadowdb_tob::{
    parse_deliver, ClientStats, Delivery, ExecutionMode, InOrderBuffer, TobClient, TobDeployment,
    TobOptions,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

type Log = Arc<Mutex<Vec<Delivery>>>;

fn subscriber(log: Log) -> Box<dyn Process> {
    Box::new(FnProcess::new(
        InOrderBuffer::new(),
        move |buf, _c: &Ctx, m: &Msg| {
            if let Some(d) = parse_deliver(m) {
                log.lock().extend(buf.offer(d));
            }
            vec![]
        },
    ))
}

fn crash_one_machine(victim_machine: u32, seed: u64) {
    let n_clients = 3u32;
    let per = 4;
    let mut sim = shadowdb_simnet::testing::default_net(seed);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let sub = sim.add_node(subscriber(log.clone()));
    assert_eq!(sub, Loc::new(0));
    let first_server = 1 + n_clients;
    let servers: Vec<Loc> = (0..3).map(|i| Loc::new(first_server + i * per)).collect();
    let mut stats = Vec::new();
    let mut clients = Vec::new();
    for c in 0..n_clients {
        let s = Arc::new(Mutex::new(ClientStats::default()));
        stats.push(s.clone());
        let mut order = servers.clone();
        order.rotate_left(c as usize % 3);
        clients.push(
            sim.add_node(Box::new(
                TobClient::new(order, Value::Int(c as i64), 15, s)
                    .with_timeout(Duration::from_millis(300)),
            )),
        );
    }
    let mut subscribers = vec![sub];
    subscribers.extend(clients.iter().copied());
    let d = TobDeployment::build(
        &mut sim,
        &TobOptions {
            machines: 3,
            backend: BackendKind::Paxos,
            mode: ExecutionMode::Compiled,
            max_batch: 16,
            window: None,
            start_all_leaders: true,
        },
        subscribers,
    );
    assert_eq!(d.servers, servers);
    for c in &clients {
        sim.send_at(VTime::ZERO, *c, TobClient::start_msg());
    }
    // Kill every role on the victim machine shortly into the run.
    sim.run_until(VTime::from_millis(40));
    for k in 0..per {
        sim.crash_at(sim.now(), Loc::new(first_server + victim_machine * per + k));
    }
    sim.run_until_quiescent(VTime::from_secs(600));

    // Every client message delivered, exactly once, in one global order.
    for (c, s) in stats.iter().enumerate() {
        assert_eq!(s.lock().completed.len(), 15, "client {c} finished");
    }
    let log = log.lock();
    assert_eq!(log.len(), 3 * 15, "subscriber saw everything exactly once");
    for (i, del) in log.iter().enumerate() {
        assert_eq!(del.seq, i as i64, "gapless sequence");
    }
}

#[test]
fn crash_of_leader_machine_is_masked() {
    crash_one_machine(0, 11);
}

#[test]
fn crash_of_follower_machine_is_masked() {
    crash_one_machine(1, 12);
}

#[test]
fn crash_of_third_machine_is_masked() {
    crash_one_machine(2, 13);
}

/// Leader change after pruning. Machine 0 holds the only active leader
/// (`start_all_leaders: false`: the standbys stay passive, but they prune
/// too) and is crashed once the watermark riding on the P2As has passed
/// 2 000 slots; the test then starts machine 1's leader, standing in for a
/// failure detector. The successor adopts on P1Bs that carry a floor past
/// those 2 000 slots and only the pvalues at or above it, so their size is
/// set by the slots in flight, not by the history behind them; and every
/// broadcast, before and after the crash, reaches both subscribers exactly
/// once, in one gapless order.
#[test]
fn leader_change_after_pruning_adopts_on_bounded_p1bs() {
    const PER_CLIENT: u64 = 1_000;
    const PASSED: i64 = 2_000;
    let n_clients = 3u32;
    let mut sim = SimBuilder::new(14)
        .network(NetworkConfig::lan())
        .capture_trace(true)
        .build();
    let logs: Vec<Log> = (0..2).map(|_| Log::default()).collect();
    let mut subscribers: Vec<Loc> = logs
        .iter()
        .map(|log| sim.add_node(subscriber(log.clone())))
        .collect();
    let options = TobOptions {
        machines: 3,
        backend: BackendKind::Paxos,
        mode: ExecutionMode::Compiled,
        max_batch: 16,
        window: None,
        start_all_leaders: false,
    };
    let servers = options.server_locs(2 + n_clients);
    let stats: Vec<Arc<Mutex<ClientStats>>> = (0..n_clients).map(|_| Arc::default()).collect();
    for (c, s) in stats.iter().enumerate() {
        let mut order = servers.clone();
        order.rotate_left(c % 3);
        let client = TobClient::new(order, Value::Int(c as i64), PER_CLIENT, s.clone())
            .with_timeout(Duration::from_millis(300));
        subscribers.push(sim.add_node(Box::new(client)));
    }
    let clients = subscribers[2..].to_vec();
    let d = TobDeployment::build(&mut sim, &options, subscribers);
    assert_eq!(d.servers, servers);
    // A machine is its server, replica, leader and acceptor, in that order.
    let role = |machine: usize, k: u32| Loc::new(servers[machine].index() + k);
    for c in &clients {
        sim.send_at(VTime::ZERO, *c, TobClient::start_msg());
    }

    let (mut scanned, mut w) = (0, 0);
    while w <= PASSED {
        assert!(
            sim.now() < VTime::from_secs(600),
            "watermark stalled at {w}"
        );
        sim.run_until(sim.now() + Duration::from_millis(50));
        let trace = sim.trace().expect("trace captured");
        for e in trace.iter().skip(scanned) {
            if e.msg().header.name() == synod::P2A_HEADER {
                w = w.max(e.msg().body.unpair().0.int());
            }
        }
        scanned = trace.len();
    }
    let crashed_at = sim.now();
    for k in 0..4 {
        sim.crash_at(crashed_at, role(0, k));
    }
    let successor = role(1, 2);
    sim.send_at(crashed_at, successor, synod::start_msg());
    sim.run_until_quiescent(VTime::from_secs(1_200));

    // The successor adopted: its own P2As reached the acceptors.
    let trace = sim.trace().expect("trace captured");
    let after: Vec<&Msg> = trace
        .iter()
        .filter(|e| e.time() >= crashed_at)
        .map(|e| e.msg())
        .collect();
    let successor_p2as = after
        .iter()
        .filter(|m| m.header.name() == synod::P2A_HEADER)
        .filter(|m| m.body.unpair().1.unpair().0.loc() == successor)
        .count();
    assert!(successor_p2as > 0, "the successor never adopted");
    // Its P1Bs came from past the watermark, and every P1B of the run is
    // bounded by what is in flight: three servers' windows plus the
    // reporting period of a replica that only learns.
    let floors: Vec<i64> = after
        .iter()
        .filter(|m| m.header.name() == synod::P1B_HEADER)
        .map(|m| m.body.unpair().1.unpair().1.unpair().0.int())
        .collect();
    assert!(
        floors.len() >= 2 && floors.iter().all(|f| *f > PASSED),
        "successor's P1B floors {floors:?}"
    );
    let in_flight = 3 * options.effective_window() + synod::FRONTIER_EVERY as usize;
    let (mut most_pvalues, mut largest) = (0, 0);
    for e in trace.iter() {
        if e.msg().header.name() == synod::P1B_HEADER {
            let pvalues = e.msg().body.unpair().1.unpair().1.unpair().1;
            most_pvalues = most_pvalues.max(pvalues.elems().len());
            largest = largest.max(encoded_len(&e.msg().body));
        }
    }
    assert!(
        most_pvalues <= in_flight,
        "a P1B carried {most_pvalues} pvalues"
    );
    // A pvalue here is one batch of at most `max_batch` small entries.
    let pvalue_bound = 64 + 32 * options.max_batch;
    assert!(
        largest <= in_flight * pvalue_bound,
        "the largest P1B body is {largest} bytes"
    );

    // Total order and agreement over every broadcast, before and after.
    for (c, s) in stats.iter().enumerate() {
        assert_eq!(s.lock().completed.len() as u64, PER_CLIENT, "client {c}");
    }
    let (first, second) = (logs[0].lock(), logs[1].lock());
    assert_eq!(first.len() as u64, u64::from(n_clients) * PER_CLIENT);
    for (i, del) in first.iter().enumerate() {
        assert_eq!(del.seq, i as i64, "gapless sequence");
    }
    let ids: BTreeSet<(Loc, i64)> = first.iter().map(|d| (d.client, d.msgid)).collect();
    assert_eq!(ids.len(), first.len(), "each broadcast delivered once");
    assert_eq!(*first, *second, "both subscribers saw one order");
}
