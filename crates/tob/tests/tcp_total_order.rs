//! The broadcast service on real sockets: the unmodified `TobDeployment`
//! builder deploys onto `shadowdb-tcpnet`, so every client request,
//! consensus round, and delivery notification crosses a loopback TCP
//! connection as length-prefixed codec frames.

use shadowdb_eventml::Value;
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;
use shadowdb_tcpnet::TcpNet;
use shadowdb_tob::client::{ClientStats, TobClient};
use shadowdb_tob::deploy::{BackendKind, TobDeployment, TobOptions};
use shadowdb_tob::mode::ExecutionMode;
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
