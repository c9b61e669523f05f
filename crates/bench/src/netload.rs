//! Closed-loop echo load over the TCP event-loop runtime.
//!
//! Spawns `pairs` pinger/echo node pairs on a [`TcpNet`], each keeping
//! `depth` pings in flight (the pipelining depth): the pinger fires a
//! fresh ping for every pong it receives, so after the initial burst the
//! traffic is entirely self-driving node-to-node socket I/O — framing,
//! kernel crossings, zero-copy decode, and inline process stepping on the
//! shard event loops, with no injection path in the measured window.
//!
//! The driver port only sees two control messages per pair ("warm" when a
//! pair finishes its warm-up echoes, "done" at the end), so the measured
//! rate is the transport's, not the port channel's.
//!
//! With `colocated` each pinger joins its echo's machine
//! (`TcpNet::add_node_colocated`), so the pair shares a shard thread and
//! every ping and pong is an in-memory hand-off instead of a socket hop.

use shadowdb_eventml::{Ctx, FnProcess, Msg, Process, SendInstr, Value};
use shadowdb_loe::Loc;
use shadowdb_tcpnet::TcpNet;
use std::time::{Duration, Instant};

/// Sustained echoes/sec across `pairs` closed-loop pinger/echo pairs at
/// the given pipelining `depth`. Each completed echo is one ping plus one
/// pong — two framed messages over two sockets, or two hand-offs when the
/// pair is `colocated`. `warm` echoes per pair run before the clock
/// starts; `echoes` per pair are measured.
pub fn echo_rate(pairs: usize, depth: usize, warm: u64, echoes: u64, colocated: bool) -> f64 {
    assert!(pairs > 0 && depth > 0 && echoes > 0);
    let mut net = TcpNet::builder().seeded(11).spawn();
    let port_loc = Loc::new(2 * pairs as u32);
    let mut pingers = Vec::with_capacity(pairs);
    for i in 0..pairs as u32 {
        let echo_loc = Loc::new(2 * i);
        let echo = net.add_node(Box::new(FnProcess::new(
            (),
            |_s, _c: &Ctx, m: &Msg| match m.body.as_loc() {
                Some(from) => vec![SendInstr::now(from, Msg::new("pong", Value::Unit))],
                None => vec![],
            },
        )));
        assert_eq!(echo, echo_loc);
        let pinger: Box<dyn Process> = Box::new(FnProcess::new(
            (warm, echoes),
            move |s: &mut (u64, u64), ctx: &Ctx, m: &Msg| {
                let ping = || SendInstr::now(echo_loc, Msg::new("ping", Value::Loc(ctx.slf)));
                match m.header.name() {
                    "start" => (0..depth).map(|_| ping()).collect(),
                    "pong" if s.0 > 0 => {
                        s.0 -= 1;
                        if s.0 == 0 {
                            // Warm-up over: tell the driver, keep flying.
                            vec![
                                ping(),
                                SendInstr::now(port_loc, Msg::new("warm", Value::Unit)),
                            ]
                        } else {
                            vec![ping()]
                        }
                    }
                    "pong" if s.1 > 0 => {
                        s.1 -= 1;
                        if s.1 == 0 {
                            vec![SendInstr::now(port_loc, Msg::new("done", Value::Unit))]
                        } else {
                            vec![ping()]
                        }
                    }
                    // Stragglers from the final in-flight window.
                    _ => vec![],
                }
            },
        ));
        let pinger = if colocated {
            net.add_node_colocated(pinger, echo)
        } else {
            net.add_node(pinger)
        };
        assert_eq!(pinger, Loc::new(2 * i + 1));
        pingers.push(pinger);
    }
    let (port, rx) = net.port();
    assert_eq!(port, port_loc);
    for p in &pingers {
        net.send(*p, Msg::new("start", Value::Unit));
    }
    let wait_for = |name: &str| {
        for _ in 0..pairs {
            let m = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("timed out waiting for {name}"));
            assert_eq!(m.header.name(), name);
        }
    };
    wait_for("warm");
    let t = Instant::now();
    wait_for("done");
    let rate = (pairs as u64 * echoes) as f64 / t.elapsed().as_secs_f64();
    net.shutdown();
    rate
}
