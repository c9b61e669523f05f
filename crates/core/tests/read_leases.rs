//! End-to-end coverage of the lease-based read fast path.
//!
//! Both shipping deployments run a YCSB-B-shaped read/update mix with
//! leases enabled; the deployment's probe proves fast reads were actually
//! served (not silently falling back to the ordered path) under disjoint
//! lease intervals, and every client's
//! history passes the concurrent strict-serializability checker — a fast
//! read carries exactly the same real-time obligations as an ordered
//! one. A deliberately broken "stale holder" double shows the checker
//! has teeth: a read served from a frozen database after a covering
//! write *must* fail it. The reconfiguration × leases legs add a replica
//! to a serving lease deployment: the joiner carries the lease plane, so
//! it stays silent while the holder's lease is live.

use parking_lot::Mutex;
use shadowdb::deploy::{DeployOptions, PbrDeployment, SmrDeployment};
use shadowdb::msgs::REPLY_HEADER;
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_lease_intervals_disjoint, Event, Probe};
use shadowdb::serializability::{check_bank_history_concurrent, Observation, Violation};
use shadowdb::smr::SmrLeaseOptions;
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;
use shadowdb_simnet::{NetworkConfig, SimBuilder, Simulation};
use shadowdb_sqldb::Database;
use shadowdb_workloads::kv::{KvGen, KvOptions};
use shadowdb_workloads::{apply_group, bank, TxnRequest};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 64;
const CLIENTS: usize = 2;
const TXNS_EACH: usize = 60;

fn kv_script(client: usize) -> Vec<TxnRequest> {
    let mut g = KvGen::new(7_000 + client as u64, KvOptions::ycsb_b(ROWS));
    g.script(TXNS_EACH)
}

fn kv_options(probe: &Probe) -> DeployOptions {
    let mut options = DeployOptions::new(CLIENTS, kv_script, |db| {
        bank::load(db, ROWS).expect("bank loads")
    });
    options.probe = Some(probe.clone());
    options
}

/// Collects every client's committed observations against the scripts
/// the deployment actually ran.
fn collect(stats: &[Arc<Mutex<shadowdb::client::DbClientStats>>]) -> Vec<Observation> {
    stats
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.lock().observations(&kv_script(i)))
        .collect()
}

/// How many lease reads the log recorded.
fn lease_reads(probe: &Probe) -> usize {
    let events = probe.events();
    let read = |e: &&Event| matches!(e, Event::LeaseRead { .. });
    events.iter().filter(read).count()
}

#[test]
fn pbr_read_leases_serve_fast_reads_and_stay_linearizable() {
    let mut sim = shadowdb_simnet::testing::default_net(21);
    let probe = Probe::default();
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(10),
        ..PbrOptions::default()
    };
    let mut options = kv_options(&probe);
    options.smr_leases = Some(SmrLeaseOptions::default());
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    sim.run_until_quiescent(VTime::from_secs(300));
    assert_eq!(d.committed(), CLIENTS * TXNS_EACH, "every txn answered");
    assert!(
        lease_reads(&probe) > 0,
        "the 95%-read mix must actually exercise the fast path"
    );
    check_lease_intervals_disjoint(&probe.events()).expect("one holder at a time");
    check_bank_history_concurrent(&collect(&d.stats), 1_000)
        .expect("fast-path reads are strictly serializable");
}

#[test]
fn smr_read_leases_serve_fast_reads_and_stay_linearizable() {
    let mut sim = shadowdb_simnet::testing::default_net(22);
    let probe = Probe::default();
    let mut options = kv_options(&probe);
    options.smr_leases = Some(SmrLeaseOptions::default());
    let d = SmrDeployment::build(&mut sim, &options);
    sim.run_until_quiescent(VTime::from_secs(300));
    assert_eq!(d.committed(), CLIENTS * TXNS_EACH, "every txn answered");
    assert!(
        lease_reads(&probe) > 0,
        "the holder must serve fast reads without a broadcast round"
    );
    check_lease_intervals_disjoint(&probe.events()).expect("one holder at a time");
    check_bank_history_concurrent(&collect(&d.stats), 1_000)
        .expect("fast-path reads are strictly serializable");
}

/// Every database the deployment loaded, in engine-rotation order: the
/// deploy-time replicas, then joiners.
type Dbs = Arc<Mutex<Vec<Database>>>;

/// An SMR lease deployment (default 4 s leases renewed every second)
/// whose loader keeps a handle on each replica's database.
fn lease_options(
    txns: impl Fn(usize) -> Vec<TxnRequest> + 'static,
    dbs: &Dbs,
    probe: &Probe,
) -> DeployOptions {
    let dbs = dbs.clone();
    let mut options = DeployOptions::new(CLIENTS, txns, move |db| {
        bank::load(db, ROWS).expect("bank loads");
        dbs.lock().push(db.clone());
    });
    options.smr_leases = Some(SmrLeaseOptions::default());
    options.probe = Some(probe.clone());
    options
}

fn run_until_committed(sim: &mut Simulation, d: &SmrDeployment, n: usize) {
    while d.committed() < n {
        sim.run_for(Duration::from_millis(5));
        assert!(sim.now() < VTime::from_secs(120), "the workload stalled");
    }
}

fn total_balance(db: &Database) -> i64 {
    let sum = db.execute("SELECT SUM(balance) FROM accounts");
    sum.expect("sums").rows[0][0].as_int().expect("int")
}

/// Reconfiguration × leases: a replica added to a serving lease
/// deployment carries the lease plane like the replicas the deployment
/// was built with. The holder (replica 0, the rank-0 claimant) keeps its
/// lease live for the whole run, so from the moment the joiner installs
/// its snapshot every write it executes lands inside a suppression
/// window: it must acknowledge none of them — "during the lease only the
/// holder acknowledges" is the invariant the fast read path rests on.
/// A joiner built without the plane answers every one.
#[test]
fn smr_joiner_acknowledges_nothing_while_the_holders_lease_is_live() {
    const DEPOSITS: usize = 600;
    let net = NetworkConfig::lan();
    let mut sim = SimBuilder::new(24).network(net).capture_trace(true).build();
    let (dbs, probe): (Dbs, Probe) = Default::default();
    let deposits = |i: usize| {
        let mut g = bank::BankGen::new(300 + i as u64, ROWS);
        (0..DEPOSITS).map(|_| g.next_txn()).collect()
    };
    let d = SmrDeployment::build(&mut sim, &lease_options(deposits, &dbs, &probe));
    let mut handle = d.reconfig(&mut sim);
    run_until_committed(&mut sim, &d, 10);
    let joiner = handle
        .add_replica(&mut sim, Duration::from_secs(10))
        .expect("smr adds unconditionally");
    run_until_committed(&mut sim, &d, CLIENTS * DEPOSITS);
    sim.run_for(Duration::from_millis(50));

    // The joiner joined under load and executed the writes that followed…
    let joined = dbs.lock()[3].snapshot().row_count();
    assert_eq!(joined, ROWS, "the snapshot landed");
    let sums: Vec<i64> = dbs.lock().iter().map(total_balance).collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "diverged: {sums:?}");
    // …and answered none of them, while the holder answered throughout.
    let trace = sim.trace().expect("trace capture enabled");
    let replies = |from: Loc| {
        let sent = |e: &&shadowdb_loe::Event<_>| e.sender() == Some(from);
        let all = trace.iter().filter(sent);
        all.filter(|e| e.msg().header.name() == REPLY_HEADER)
            .count()
    };
    assert!(replies(d.replicas[0]) >= CLIENTS * DEPOSITS - 10);
    assert_eq!(
        replies(joiner),
        0,
        "the joiner acknowledged writes inside the holder's lease"
    );
}

/// The same composition under the read-mostly mix, across a whole
/// replacement: a joiner is added, catches up, and an original replica
/// is unsubscribed while clients keep reading through the holder. Fast
/// reads keep flowing, no two holders' intervals overlap, and the
/// history stays strictly serializable.
#[test]
fn smr_replace_replica_under_read_leases_stays_linearizable() {
    const TXNS: usize = 4_000;
    let script = |i: usize| KvGen::new(7_100 + i as u64, KvOptions::ycsb_b(ROWS)).script(TXNS);
    let mut sim = shadowdb_simnet::testing::default_net(25);
    let (dbs, probe): (Dbs, Probe) = Default::default();
    let d = SmrDeployment::build(&mut sim, &lease_options(script, &dbs, &probe));
    let mut handle = d.reconfig(&mut sim);
    run_until_committed(&mut sim, &d, 100);
    let fast_before = lease_reads(&probe);
    assert!(fast_before > 0, "fast reads flow before the change");
    handle
        .replace_replica(&mut sim, d.replicas[2], Duration::from_millis(1_500))
        .expect("smr replaces unconditionally");
    assert!(
        d.committed() < CLIENTS * TXNS,
        "the replacement must overlap the workload"
    );
    run_until_committed(&mut sim, &d, CLIENTS * TXNS);
    assert!(
        lease_reads(&probe) > fast_before,
        "fast reads must keep flowing across the replacement"
    );
    check_lease_intervals_disjoint(&probe.events()).expect("one holder at a time");
    let observations: Vec<Observation> = (d.stats.iter().enumerate())
        .flat_map(|(i, s)| s.lock().observations(&script(i)))
        .collect();
    check_bank_history_concurrent(&observations, 1_000)
        .expect("strictly serializable across the replacement");
}

/// The deliberately broken double: a "holder" that keeps serving reads
/// from a frozen database after its lease should have expired — exactly
/// the failure a broken lease implementation would produce. The answer is
/// produced by the *same* `apply_read_only` the real fast path uses; only
/// the database is stale. The checker must reject the history.
#[test]
fn stale_lease_read_fails_the_checker() {
    let live = Database::new(shadowdb_sqldb::EngineProfile::h2());
    bank::load(&live, 4).expect("bank loads");
    let stale_holder = Database::new(shadowdb_sqldb::EngineProfile::h2());
    bank::load(&stale_holder, 4).expect("bank loads");

    // A deposit commits on the ordered path and answers at t = 10 ms; the
    // broken holder never hears of it.
    let deposit = TxnRequest::BankDeposit {
        account: 0,
        amount: 50,
    };
    apply_group(&live, &[&deposit])
        .pop()
        .expect("one result")
        .expect("deposit commits");
    let mut observations = vec![Observation {
        submitted: VTime::from_millis(1),
        answered: VTime::from_millis(10),
        txn: deposit,
        result: Vec::new(),
    }];

    // A fast read submitted strictly after the deposit's answer must see
    // it; the stale double still reports the initial balance.
    let read = TxnRequest::BankRead { account: 0 };
    let out = read
        .apply_read_only(&stale_holder)
        .expect("reads take the fast path");
    observations.push(Observation {
        submitted: VTime::from_millis(20),
        answered: VTime::from_millis(21),
        txn: read.clone(),
        result: out.result,
    });
    match check_bank_history_concurrent(&observations, 1_000) {
        Err(Violation::ReadOutOfBounds { observed, min, .. }) => {
            assert_eq!(observed, 1_000);
            assert_eq!(min, 1_050);
        }
        other => panic!("a stale fast read must be caught, got {other:?}"),
    }

    // Sanity: the same read served by a *correct* holder passes.
    let ok = read.apply_read_only(&live).expect("fast path");
    observations.pop();
    observations.push(Observation {
        submitted: VTime::from_millis(20),
        answered: VTime::from_millis(21),
        txn: read,
        result: ok.result,
    });
    check_bank_history_concurrent(&observations, 1_000).expect("a fresh holder's read passes");
}
