//! A net runs one OS thread per shard and nothing else: injections,
//! crashes and restarts ride the owning shard's heap, not a thread of
//! their own. Its own test binary, so no other test spawns threads while
//! this one counts them.
#![cfg(target_os = "linux")]

use shadowdb_eventml::{Ctx, FnProcess, Msg, Process, SendInstr, Value};
use shadowdb_loe::VTime;
use shadowdb_tcpnet::TcpNet;
use std::time::Duration;

/// The names of the process's OS threads, from `/proc/self/task`.
fn os_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| {
            let comm = task.expect("task").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_string()
        })
        .collect()
}

/// Answers `pong` to the location in every message's body.
fn echo() -> Box<dyn Process> {
    Box::new(FnProcess::new((), |_s, _c: &Ctx, m: &Msg| {
        vec![SendInstr::now(m.body.loc(), Msg::new("pong", Value::Unit))]
    }))
}

/// Re-sends every message to itself an hour later — a timer that is
/// always in flight when the net shuts down — and tells the location in
/// its body that the timer is armed.
fn far_timer() -> Box<dyn Process> {
    Box::new(FnProcess::new((), |_s, ctx: &Ctx, m: &Msg| {
        let hour = Duration::from_secs(3600);
        vec![
            SendInstr::after(hour, ctx.slf, m.clone()),
            SendInstr::now(m.body.loc(), Msg::new("armed", Value::Unit)),
        ]
    }))
}

/// Over several nets in a row, each adds exactly one thread per shard
/// while it runs and takes every one of them with it at shutdown — with
/// a far-future timer still in flight, so no net leaks a thread.
#[test]
fn a_net_adds_exactly_one_thread_per_shard() {
    let start = os_threads();
    for _ in 0..4 {
        for n in [1, 2, 3] {
            let before = os_threads();
            let mut net = TcpNet::builder().shards(n).spawn();
            let node = net.add_node(echo());
            let timer = net.add_node(far_timer());
            let (port, rx) = net.port();
            let ping = || Msg::new("ping", Value::Loc(port));
            // Every kind of scheduled action has run before the count.
            net.send(timer, Msg::new("arm", Value::Loc(port)));
            rx.recv_timeout(Duration::from_secs(5)).expect("armed");
            net.send_at(net.now() + Duration::from_millis(20), node, ping());
            rx.recv_timeout(Duration::from_secs(5)).expect("pong");
            net.crash_at(VTime::ZERO, node);
            net.restart_at(VTime::ZERO, node, echo());
            net.send(node, ping());
            rx.recv_timeout(Duration::from_secs(5))
                .expect("pong after restart");
            let during = os_threads();
            assert_eq!(
                during.len(),
                before.len() + n,
                "shards({n}): threads before {before:?}, with the net {during:?}"
            );
            net.shutdown();
            assert_eq!(
                os_threads().len(),
                before.len(),
                "shutdown joins every shard"
            );
        }
    }
    assert_eq!(
        os_threads().len(),
        start.len(),
        "twelve nets leak no thread"
    );
}
