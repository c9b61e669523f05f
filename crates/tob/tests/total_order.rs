//! The total-order broadcast properties, checked on full deployments:
//!
//! * **Total order / agreement** — every subscriber observes exactly the
//!   same sequence of deliveries (same messages, same order, gapless
//!   sequence numbers);
//! * **Integrity** — each broadcast message is delivered exactly once, and
//!   only messages that were broadcast are delivered;
//! * **Batching transparency** — the properties hold for any batch bound,
//!   including 1 (batching disabled).

use parking_lot::Mutex;
use shadowdb_eventml::{Ctx, FnProcess, Msg, Process, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_tob::deploy::BackendKind;
use shadowdb_tob::{
    parse_deliver, ClientStats, Delivery, ExecutionMode, InOrderBuffer, TobClient, TobDeployment,
    TobOptions,
};
use std::sync::Arc;

type Log = Arc<Mutex<Vec<Delivery>>>;

/// A subscriber: dedup/reorder through an [`InOrderBuffer`], then log.
fn subscriber(log: Log) -> Box<dyn Process> {
    Box::new(FnProcess::new(
        InOrderBuffer::new(),
        move |buf, _ctx: &Ctx, msg: &Msg| {
            if let Some(d) = parse_deliver(msg) {
                log.lock().extend(buf.offer(d));
            }
            vec![]
        },
    ))
}

/// Runs `n_clients` clients × `msgs_each` messages against a deployment
/// with two pure subscribers; returns the two logs.
fn run(
    backend: BackendKind,
    n_clients: u32,
    msgs_each: u64,
    max_batch: usize,
    seed: u64,
) -> (Vec<Delivery>, Vec<Delivery>, Vec<Arc<Mutex<ClientStats>>>) {
    let mut sim = shadowdb_simnet::testing::default_net(seed);
    let log_a: Log = Arc::new(Mutex::new(Vec::new()));
    let log_b: Log = Arc::new(Mutex::new(Vec::new()));
    let sub_a = sim.add_node(subscriber(log_a.clone()));
    let sub_b = sim.add_node(subscriber(log_b.clone()));

    // Plan client and server locations: clients follow the two subscribers,
    // the deployment follows the clients.
    let options = TobOptions {
        backend,
        mode: ExecutionMode::Compiled,
        max_batch,
        machines: 3,
        ..TobOptions::default()
    };
    let servers = options.server_locs(2 + n_clients);

    let mut stats = Vec::new();
    let mut client_locs = Vec::new();
    for c in 0..n_clients {
        let s = Arc::new(Mutex::new(ClientStats::default()));
        stats.push(s.clone());
        // Stagger client starting servers to exercise multi-server intake.
        let mut order = servers.clone();
        order.rotate_left((c % 3) as usize);
        let client = TobClient::new(order, Value::Int(c as i64), msgs_each, s);
        client_locs.push(sim.add_node(Box::new(client)));
    }

    let mut subscribers = vec![sub_a, sub_b];
    subscribers.extend(client_locs.iter().copied());
    let deployment = TobDeployment::build(&mut sim, &options, subscribers);
    assert_eq!(deployment.servers, servers);

    for c in &client_locs {
        sim.send_at(VTime::ZERO, *c, TobClient::start_msg());
    }
    sim.run_until_quiescent(VTime::from_secs(3_600));
    let a = log_a.lock().clone();
    let b = log_b.lock().clone();
    (a, b, stats)
}

fn assert_properties(
    a: &[Delivery],
    b: &[Delivery],
    n_clients: u32,
    msgs_each: u64,
    client_locs_start: u32,
) {
    let expected = (n_clients as u64 * msgs_each) as usize;
    // Agreement/total order: identical logs at both subscribers.
    assert_eq!(a, b, "subscribers diverged");
    assert_eq!(a.len(), expected, "all messages delivered");
    // Gapless global sequence.
    for (i, d) in a.iter().enumerate() {
        assert_eq!(d.seq, i as i64, "sequence gap at {i}");
    }
    // Integrity: per client, msgids 0..msgs_each delivered exactly once and
    // in client order (clients are closed-loop).
    for c in 0..n_clients {
        let loc = Loc::new(client_locs_start + c);
        let ids: Vec<i64> = a
            .iter()
            .filter(|d| d.client == loc)
            .map(|d| d.msgid)
            .collect();
        assert_eq!(ids, (0..msgs_each as i64).collect::<Vec<_>>(), "client {c}");
    }
}

#[test]
fn paxos_total_order_with_batching() {
    let (a, b, stats) = run(BackendKind::Paxos, 4, 10, 64, 7);
    assert_properties(&a, &b, 4, 10, 2);
    for s in stats {
        assert_eq!(s.lock().completed.len(), 10);
    }
}

#[test]
fn paxos_total_order_without_batching() {
    let (a, b, _) = run(BackendKind::Paxos, 3, 6, 1, 8);
    assert_properties(&a, &b, 3, 6, 2);
}

#[test]
fn twothird_total_order_with_batching() {
    let (a, b, _) = run(BackendKind::TwoThird, 4, 10, 64, 9);
    assert_properties(&a, &b, 4, 10, 2);
}

#[test]
fn twothird_total_order_without_batching() {
    let (a, b, _) = run(BackendKind::TwoThird, 3, 6, 1, 10);
    assert_properties(&a, &b, 3, 6, 2);
}

/// Seed sweep: the properties are schedule-independent.
#[test]
fn total_order_across_seeds() {
    for seed in 0..8 {
        let (a, b, _) = run(BackendKind::Paxos, 2, 5, 8, 100 + seed);
        assert_properties(&a, &b, 2, 5, 2);
    }
}
