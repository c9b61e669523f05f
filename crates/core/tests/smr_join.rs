//! SMR reconfiguration: adding a replica with snapshot fetch (Sec. III-B).
//!
//! "If a replica suspects another replica to have crashed, it creates a
//! snapshot of its database and broadcasts a reconfiguration request …
//! The new replica obtains the snapshot from the proposer." Here the
//! joiner is never subscribed: one fetch request (`from = -1`, an image)
//! sent on its behalf is its whole state transfer. A deployed replica
//! that missed deliveries fetches them the same way.

use parking_lot::Mutex;
use shadowdb::deploy::{DeployOptions, SmrDeployment};
use shadowdb::probe::{Event, Probe};
use shadowdb::smr::SmrReplica;
use shadowdb_loe::VTime;
use shadowdb_runtime::fault::{FaultPlan, LinkFault, LinkSel};
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_workloads::bank;
use std::sync::Arc;
use std::time::Duration;

const ACCOUNTS: usize = 400;

#[test]
fn joining_replica_converges_with_donors() {
    let mut sim = shadowdb_simnet::testing::default_net(8);
    let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = dbs.clone();
    let options = DeployOptions {
        client_timeout: Duration::from_secs(2),
        ..DeployOptions::new(
            2,
            |client| {
                let mut g = bank::BankGen::new(30 + client as u64, ACCOUNTS);
                (0..200).map(|_| g.next_txn()).collect()
            },
            move |db| {
                bank::load(db, ACCOUNTS).expect("loads");
                captured.lock().push(db.clone());
            },
        )
    };
    let d = SmrDeployment::build(&mut sim, &options);

    // Let the cluster commit a while, then add a fresh replica that must
    // fetch a snapshot from replica 0 — while traffic keeps flowing.
    let mut ms = 5;
    while d.committed() < 60 {
        sim.run_until(VTime::from_millis(ms));
        ms += 5;
        assert!(ms < 60_000);
    }
    let join_db = Database::new(EngineProfile::innodb());
    let joiner_db = join_db.clone();
    let donor = d.replicas[0];
    let joiner = sim.add_node(Box::new(SmrReplica::joining_from(join_db, vec![donor])));
    // Ask the donor for its image now, while traffic flows…
    sim.send_at(sim.now(), donor, SmrReplica::fetch_msg(joiner, -1, 0));
    sim.run_until_quiescent(VTime::from_secs(600));
    assert_eq!(d.committed(), 400);

    // …the joiner's database equals the donor's state at the snapshot
    // point: consistent (a valid prefix of the committed history), i.e.
    // total balance between the initial load and the final total.
    let initial = (ACCOUNTS as i64) * 1_000;
    let final_total = {
        let dbs = dbs.lock();
        dbs[0]
            .execute("SELECT SUM(balance) FROM accounts")
            .expect("sums")
            .rows[0][0]
            .as_int()
            .expect("int")
    };
    let joined_total = joiner_db
        .execute("SELECT SUM(balance) FROM accounts")
        .expect("sums")
        .rows[0][0]
        .as_int()
        .expect("int");
    assert!(joined_total > initial, "snapshot covers pre-join commits");
    assert!(
        joined_total <= final_total,
        "snapshot is a prefix of the history"
    );
    assert_eq!(joiner_db.table_len("accounts"), ACCOUNTS);
}

/// A joiner whose image is cut after the workload drained converges to
/// the donor's exact final state.
#[test]
fn joiner_fetching_after_the_workload_equals_its_donor() {
    let mut sim = shadowdb_simnet::testing::default_net(9);
    let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = dbs.clone();
    // Plan locations: clients 0..2, TOB machines at 2..14 (4 per machine),
    // replicas at 14..17, joiner at 17.
    let joiner_loc = shadowdb_loe::Loc::new(2 + 12 + 3);
    let options = DeployOptions {
        client_timeout: Duration::from_secs(2),
        ..DeployOptions::new(
            2,
            |client| {
                let mut g = bank::BankGen::new(60 + client as u64, ACCOUNTS);
                (0..150).map(|_| g.next_txn()).collect()
            },
            move |db| {
                bank::load(db, ACCOUNTS).expect("loads");
                captured.lock().push(db.clone());
            },
        )
    };
    let d = SmrDeployment::build(&mut sim, &options);
    let join_db = Database::new(EngineProfile::h2());
    let joiner_db = join_db.clone();
    let donor = d.replicas[1];
    let added = sim.add_node(Box::new(SmrReplica::joining_from(join_db, vec![donor])));
    assert_eq!(added, joiner_loc);
    // Snapshot after everything committed: the joiner must equal the donors
    // exactly.
    sim.run_until_quiescent(VTime::from_secs(600));
    assert_eq!(d.committed(), 300);
    sim.send_at(sim.now(), donor, SmrReplica::fetch_msg(joiner_loc, -1, 0));
    sim.run_until_quiescent(VTime::from_secs(600));

    let donor_total = dbs.lock()[1]
        .execute("SELECT SUM(balance) FROM accounts")
        .expect("sums")
        .rows[0][0]
        .as_int()
        .expect("int");
    let joined_total = joiner_db
        .execute("SELECT SUM(balance) FROM accounts")
        .expect("sums")
        .rows[0][0]
        .as_int()
        .expect("int");
    assert_eq!(
        joined_total, donor_total,
        "joiner converged to the donor state"
    );
}

/// Σ(id·balance) over the accounts: equal states, equal sums.
fn checksum(db: &Database) -> i64 {
    let rows = db
        .execute("SELECT id, balance FROM accounts")
        .expect("reads");
    let int = |v: &shadowdb_sqldb::SqlValue| v.as_int().expect("int");
    rows.rows.iter().map(|r| int(&r[0]) * int(&r[1])).sum()
}

/// A deployed replica cut off for 60 ms mid-run misses the deliveries
/// ordered meanwhile, and its stream holds every later one behind that
/// gap. Once the gap has lasted a fetch period it fetches what it missed
/// from a peer: every replica ends with the same accounts, and the
/// transfer to it is in the probe.
#[test]
fn an_isolated_replica_catches_up_on_the_deliveries_it_missed() {
    let mut sim = shadowdb_simnet::testing::default_net(12);
    let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = dbs.clone();
    let probe = Probe::default();
    let mut options = DeployOptions::new(
        2,
        |client| {
            let mut g = bank::BankGen::new(100 + client as u64, 1_000);
            (0..200).map(|_| g.next_txn()).collect()
        },
        move |db| {
            bank::load(db, 1_000).expect("loads");
            captured.lock().push(db.clone());
        },
    );
    options.probe = Some(probe.clone());
    let d = SmrDeployment::build(&mut sim, &options);
    let lagging = d.replicas[2];
    let (from, to) = (VTime::from_millis(30), VTime::from_millis(90));
    let cut = LinkFault::partition();
    sim.install_fault_plan(FaultPlan::new(12).with_rule(LinkSel::Isolate(lagging), from, to, cut));
    sim.run_until_quiescent(VTime::from_secs(600));
    assert_eq!(d.committed(), 400);
    let sums: Vec<i64> = dbs.lock().iter().map(checksum).collect();
    assert_eq!(sums.len(), 3);
    assert!(
        sums.iter().all(|s| *s == sums[0]),
        "replica states differ: {sums:?}"
    );
    let fetched = |e: &Event| matches!(e, Event::Transfer { to, .. } if *to == lagging);
    assert!(
        probe.events().iter().any(fetched),
        "no transfer to the lagging replica"
    );
}
