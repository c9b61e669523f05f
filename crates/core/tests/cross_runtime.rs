//! One deployment graph, interchangeable substrates.
//!
//! The same `SmrDeployment`/`PbrDeployment` builders that the simulator
//! tests exercise here run on real loopback sockets (`shadowdb-tcpnet`,
//! where every message crosses the byte codec): the SMR bank workload
//! commits the same set of answers under both runtimes and every observed
//! history is strictly serializable, and a PBR deployment on sockets
//! survives a primary crash — the real-time mirror of the simulator's
//! `pbr_primary_crash_recovers_and_resumes`.

use shadowdb::client::DbClientStats;
use shadowdb::deploy::{DeployOptions, PbrDeployment, SmrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb::serializability::{check_bank_history_concurrent, Observation};
use shadowdb_loe::VTime;
use shadowdb_workloads::{bank, TxnRequest};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: usize = 20;

/// Mixed deposits and reads, identical across runtimes.
fn scripts(n_clients: usize, txns_each: usize) -> Vec<Vec<TxnRequest>> {
    (0..n_clients)
        .map(|client| {
            (0..txns_each)
                .map(|i| {
                    if (i + client) % 3 == 0 {
                        TxnRequest::BankRead {
                            account: ((i * 7 + client) % ACCOUNTS) as i64,
                        }
                    } else {
                        TxnRequest::BankDeposit {
                            account: ((i * 5 + client) % ACCOUNTS) as i64,
                            amount: 1 + (i % 9) as i64,
                        }
                    }
                })
                .collect()
        })
        .collect()
}

fn bank_options(scripts: Vec<Vec<TxnRequest>>) -> DeployOptions {
    DeployOptions::new(
        scripts.len(),
        move |i| scripts[i].clone(),
        |db| bank::load(db, ACCOUNTS).expect("bank loads"),
    )
}

/// The committed `(client, cseq)` set and observations of a finished run.
fn harvest(
    stats: &[Arc<parking_lot::Mutex<DbClientStats>>],
    scripts: &[Vec<TxnRequest>],
) -> (BTreeSet<(usize, usize)>, Vec<Observation>) {
    let mut committed = BTreeSet::new();
    let mut observations = Vec::new();
    for (client, s) in stats.iter().enumerate() {
        let s = s.lock();
        for (cseq, (_, _, ok)) in s.completed.iter().enumerate() {
            if *ok {
                committed.insert((client, cseq));
            }
        }
        observations.extend(s.observations(&scripts[client]));
    }
    observations.sort_by_key(|o| o.answered);
    (committed, observations)
}

fn wait_for(deadline: Duration, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < deadline, "tcpnet run did not finish in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn smr_bank_commits_identically_on_simnet_and_tcpnet() {
    const N_CLIENTS: usize = 2;
    const TXNS_EACH: usize = 25;
    let scripts = scripts(N_CLIENTS, TXNS_EACH);

    // Substrate 1: the deterministic simulator.
    let mut sim = shadowdb_simnet::testing::default_net(17);
    let d_sim = SmrDeployment::build(&mut sim, &bank_options(scripts.clone()));
    sim.run_until_quiescent(VTime::from_secs(600));
    let (committed_sim, obs_sim) = harvest(&d_sim.stats, &scripts);

    // Substrate 2: real loopback TCP sockets — the identical builder,
    // every message through the length-prefixed byte codec, actual kernel
    // byte streams between nodes.
    let mut tcp = shadowdb_tcpnet::TcpNet::new();
    let d_tcp = SmrDeployment::build(&mut tcp, &bank_options(scripts.clone()));
    wait_for(Duration::from_secs(60), || {
        d_tcp.committed() == N_CLIENTS * TXNS_EACH
    });
    let (committed_tcp, obs_tcp) = harvest(&d_tcp.stats, &scripts);
    tcp.shutdown();

    // Both substrates answer the same committed set…
    assert_eq!(committed_sim.len(), N_CLIENTS * TXNS_EACH);
    assert_eq!(committed_sim, committed_tcp);
    // …and each observed history is strictly serializable with the read
    // results the clients actually saw: every read within its real-time
    // bounds (answer order is no witness on a real-time runtime, where two
    // clients' answers can be recorded out of execution order).
    check_bank_history_concurrent(&obs_sim, 1_000).expect("simnet history serializable");
    check_bank_history_concurrent(&obs_tcp, 1_000).expect("tcpnet history serializable");
    // Deposits commute, so identical committed sets imply identical final
    // balances; assert the derived balances agree as a belt-and-braces
    // check on the harvested histories themselves.
    let final_balances = |obs: &[Observation]| {
        let mut b = std::collections::BTreeMap::new();
        for o in obs {
            if let TxnRequest::BankDeposit { account, amount } = &o.txn {
                *b.entry(*account).or_insert(1_000i64) += amount;
            }
        }
        b
    };
    assert_eq!(final_balances(&obs_sim), final_balances(&obs_tcp));
}

/// The real-time mirror of the simulator's
/// `pbr_primary_crash_recovers_and_resumes`: kill the primary mid-run
/// over real sockets; failover answers everything, with client retries
/// during the outage.
#[test]
fn tcpnet_pbr_primary_crash_recovers_and_resumes() {
    const N_CLIENTS: usize = 2;
    // Loopback PBR commits a transaction in well under a millisecond, so
    // the run must be long enough to still be going when the crash lands.
    const TXNS_EACH: usize = 2_000;
    let scripts = scripts(N_CLIENTS, TXNS_EACH);
    let mut options = bank_options(scripts);
    options.client_timeout = Duration::from_millis(500);
    let pbr = PbrOptions {
        detect_after: Duration::from_millis(200),
        heartbeat_every: Duration::from_millis(50),
        ..PbrOptions::default()
    };

    let mut net = shadowdb_tcpnet::TcpNet::new();
    let d = PbrDeployment::build(&mut net, &options, pbr);

    // Let some transactions through, then kill the primary mid-run.
    wait_for(Duration::from_secs(30), || d.committed() >= 5);
    assert!(
        d.committed() < N_CLIENTS * TXNS_EACH,
        "the crash must interrupt the run"
    );
    net.crash_at(net.now(), d.replicas[0]);

    wait_for(Duration::from_secs(60), || {
        d.committed() == N_CLIENTS * TXNS_EACH
    });
    let resends: u64 = d.stats.iter().map(|s| s.lock().resends).sum();
    assert!(resends > 0, "clients must have retried during the outage");
    net.shutdown();
}
