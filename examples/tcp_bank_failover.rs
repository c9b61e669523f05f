//! Primary failover over real TCP sockets.
//!
//! The same `PbrDeployment` graph the simulator example (`bank_failover`)
//! builds deploys here onto `shadowdb-tcpnet`: every replica and service
//! process runs on its own operating-system thread behind a loopback
//! `TcpListener`, and every message between them — client requests,
//! broadcasts, heartbeats, answers — crosses a kernel socket as
//! length-prefixed codec frames.
//! Mid-run the primary is crashed (its thread dropped, its connections
//! severed); the verified recovery — suspicion, totally ordered
//! configuration change, election, state transfer, resumption — plays
//! out over the sockets, and every submitted transaction is still
//! answered exactly once.
//!
//! Run with: `cargo run --release --example tcp_bank_failover`

use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::pbr::PbrOptions;
use shadowdb_tcpnet::TcpNet;
use shadowdb_workloads::bank;
use std::time::{Duration, Instant};

fn main() {
    let accounts = 1_000;
    let txns_per_client = 100;
    let clients = 4;

    let options = DeployOptions {
        diversity: DiversityPolicy::Trio,
        client_timeout: Duration::from_millis(500),
        ..DeployOptions::new(
            clients,
            move |client| {
                let mut g = bank::BankGen::new(50 + client as u64, accounts);
                (0..txns_per_client).map(|_| g.next_txn()).collect()
            },
            move |db| bank::load(db, accounts).expect("loads"),
        )
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(250),
        ..PbrOptions::default()
    };

    let mut net = TcpNet::new();
    let deployment = PbrDeployment::build(&mut net, &options, pbr);
    println!(
        "replicas on sockets: primary {} (h2), backup {} (hsqldb), spare {} (derby)",
        deployment.replicas[0], deployment.replicas[1], deployment.replicas[2]
    );

    // Let transactions flow, then kill the primary's process: its thread
    // is dropped and its TCP connections die with it.
    let t0 = Instant::now();
    while deployment.committed() < 20 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "no progress before the crash"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = deployment.committed();
    println!("committed before crash : {before}");
    println!("crashing the primary at t = {:?} …", t0.elapsed());
    net.crash_at(net.now(), deployment.replicas[0]);

    while deployment.committed() < clients * txns_per_client {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "failover must complete: {} / {} answered",
            deployment.committed(),
            clients * txns_per_client
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let resends: u64 = deployment.stats.iter().map(|s| s.lock().resends).sum();
    println!("committed after failover: {}", deployment.committed());
    println!("client retransmissions  : {resends}");
    println!("wall-clock total        : {:?}", t0.elapsed());
    assert_eq!(
        deployment.committed(),
        clients * txns_per_client,
        "every transaction answered exactly once"
    );
    assert!(resends > 0, "clients must have retried during the outage");

    net.shutdown();
    println!("survived a primary crash over real TCP sockets; all threads joined.");
}
