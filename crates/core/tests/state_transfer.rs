//! Network state transfer carries the *whole* state image.
//!
//! A replica rebuilt from a peer's snapshot must behave exactly like its
//! donors afterwards: same reply cache (a retransmitted transaction that
//! ran before the snapshot point is answered, not executed again), same
//! `executed` counter, and — in a sharded group — the same 2PC engine
//! state and emission counters, so cross-shard transactions in flight
//! across the join still commit atomically on every replica.

use parking_lot::Mutex;
use shadowdb::chaos::sharded_mixed_txns;
use shadowdb::deploy::{
    DeployOptions, DurabilityOptions, PbrDeployment, ShardedDeployment, SmrDeployment,
};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::msgs::{parse_reply, submit_msg, TxnEnvelope};
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_two_pc_atomicity, Event, Probe, TransferKind};
use shadowdb::serializability::check_bank_history_concurrent;
use shadowdb::smr::SmrReplica;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;
use shadowdb_simnet::Simulation;
use shadowdb_sqldb::{Database, SqlValue};
use shadowdb_tob::{broadcast_msg, subscribe_msg};
use shadowdb_workloads::tpcc::{self, TpccGen, TpccScale};
use shadowdb_workloads::{bank, TxnRequest};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 64;
const TXNS: usize = 30;
const DEPOSIT: i64 = 50;

type Dbs = Arc<Mutex<Vec<Database>>>;

/// Two clients running balance-conserving transfers, so the bank's total
/// moves only by the test's own deposit. Every loaded database is
/// captured (the handle shares state with the replica's).
fn transfer_options(dbs: &Dbs) -> DeployOptions {
    let captured = dbs.clone();
    let mut o = DeployOptions::new(
        2,
        |i| {
            let mut g = bank::BankGen::new(40 + i as u64, ROWS);
            (0..TXNS).map(|_| g.next_transfer()).collect()
        },
        move |db| {
            bank::load(db, ROWS).expect("bank loads");
            captured.lock().push(db.clone());
        },
    );
    o.client_timeout = Duration::from_secs(2);
    o
}

fn capture_loader(dbs: &Dbs) -> impl Fn(&Database) + 'static {
    let captured = dbs.clone();
    move |db| {
        bank::load(db, ROWS).expect("bank loads");
        captured.lock().push(db.clone());
    }
}

fn accounts(db: &Database) -> Vec<Vec<SqlValue>> {
    db.execute("SELECT id, balance FROM accounts ORDER BY id")
        .expect("selects")
        .rows
}

fn total(db: &Database) -> i64 {
    accounts(db)
        .iter()
        .map(|r| r[1].as_int().expect("int"))
        .sum()
}

fn run_for(sim: &mut Simulation, d: Duration) {
    let until = sim.now() + d;
    sim.run_until(until);
}

/// The test's own client request: a deposit with a fixed `(client, cseq)`.
fn deposit_from(port: Loc) -> TxnEnvelope {
    let txn = TxnRequest::BankDeposit {
        account: 3,
        amount: DEPOSIT,
    };
    TxnEnvelope::new(port, 0, txn)
}

/// Hosts a replica behind a shared cell so the test can read its state.
struct Shared(Arc<Mutex<SmrReplica>>);

impl Process for Shared {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        self.0.lock().step_into(ctx, msg, out);
    }
    fn take_step_cost(&mut self) -> Duration {
        self.0.lock().take_step_cost()
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(Shared(self.0.clone()))
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        self.0.lock().digest(hasher);
    }
}

/// SMR: a transaction executes, *then* two replicas join by snapshot (one
/// through the reconfiguration handle, one hand-built the same way behind
/// a shared cell so its `executed` is readable), then the client's
/// byte-identical resend — same client and cseq, fresh TOB msgid — is
/// delivered. The joiners must answer it from the transferred reply cache
/// like their donors; executing it would deposit twice.
#[test]
fn smr_joiner_answers_pre_snapshot_resend_from_cache() {
    let mut sim = shadowdb_simnet::testing::default_net(61);
    let dbs: Dbs = Arc::default();
    let d = SmrDeployment::build(&mut sim, &transfer_options(&dbs));
    let (port, rx) = Runtime::port(&mut sim);
    let env = deposit_from(port);
    sim.send_at(
        VTime::from_millis(1),
        d.tob.servers[0],
        broadcast_msg(port, 0, env.to_value()),
    );
    sim.run_until_quiescent(VTime::from_secs(300));
    assert_eq!(d.committed(), 2 * TXNS);
    assert_eq!(rx.drain().len(), 3, "every replica answered the deposit");
    let executed = (2 * TXNS + 1) as i64;

    let mut handle = d.reconfig(&mut sim);
    let added = handle
        .add_replica(&mut sim, Duration::from_secs(10))
        .expect("smr adds unconditionally");
    let db = DiversityPolicy::Uniform.database(4);
    capture_loader(&dbs)(&db);
    let twin = Arc::new(Mutex::new(SmrReplica::joining_from(db, d.replicas.clone())));
    let twin_loc = sim.add_node(Box::new(Shared(twin.clone())));
    for s in &d.tob.servers {
        sim.send_at(sim.now(), *s, subscribe_msg(twin_loc));
    }
    run_for(&mut sim, Duration::from_secs(5));
    assert_eq!(twin.lock().executed(), executed, "image carries `executed`");

    sim.send_at(
        sim.now(),
        d.tob.servers[1],
        broadcast_msg(port, 1, env.to_value()),
    );
    run_for(&mut sim, Duration::from_secs(5));
    let replies: Vec<_> = rx.drain().iter().filter_map(parse_reply).collect();
    for r in d.replicas.iter().chain([&added, &twin_loc]) {
        let reply = replies.iter().find(|x| x.from == *r);
        let reply = reply.unwrap_or_else(|| panic!("{r:?} never answered the resend"));
        assert!(reply.cseq == 0 && reply.committed, "{reply:?}");
    }
    assert_eq!(
        twin.lock().executed(),
        executed,
        "the resend executed again"
    );
    let dbs = dbs.lock();
    assert_eq!(dbs.len(), 5, "three originals plus two joiners");
    for db in dbs.iter() {
        assert_eq!(total(db), ROWS as i64 * 1_000 + DEPOSIT, "deposited twice");
        assert_eq!(accounts(db), accounts(&dbs[0]));
    }
}

/// PBR: a joiner restored by snapshot (the primary's cache is too short
/// for a catch-up) is later promoted to primary; the client's
/// retransmission of a request answered before the snapshot point must
/// come back from the transferred reply cache, not run a second time.
#[test]
fn pbr_promoted_snapshot_joiner_answers_pre_snapshot_resend_from_cache() {
    let mut sim = shadowdb_simnet::testing::default_net(62);
    let dbs: Dbs = Arc::default();
    let probe = Probe::default();
    let pbr = PbrOptions {
        detect_after: Duration::from_millis(500),
        heartbeat_every: Duration::from_millis(100),
        cache_limit: 4,
        ..PbrOptions::default()
    };
    let mut options = transfer_options(&dbs);
    options.durability = Some(DurabilityOptions::default());
    options.probe = Some(probe.clone());
    let d = PbrDeployment::build(&mut sim, &options, pbr.clone());
    let (port, rx) = Runtime::port(&mut sim);
    let env = deposit_from(port);
    sim.send_at(VTime::from_millis(1), d.replicas[0], submit_msg(&env));
    run_for(&mut sim, Duration::from_secs(20));
    assert_eq!(d.committed(), 2 * TXNS);
    assert_eq!(rx.drain().len(), 1, "the primary answered the deposit");
    let executed = (2 * TXNS + 1) as i64;

    let mut handle = d.reconfig(&mut sim);
    let minute = Duration::from_secs(60);
    let added = handle
        .add_replica(&mut sim, minute)
        .expect("joiner adopted");
    assert!(handle.await_member(&mut sim, added, minute));
    let restored = Event::Transfer {
        to: added,
        kind: TransferKind::Snapshot,
    };
    assert!(
        probe.events().contains(&restored),
        "the joiner must have been restored from a snapshot"
    );
    assert!(handle.promote(&mut sim, added, minute));
    let rep = handle.query_config(&mut sim, minute).expect("a report");
    assert_eq!(rep.config.primary(), added, "joiner promoted: {rep:?}");
    assert!(handle.await_member(&mut sim, added, minute));

    sim.send_at(sim.now(), added, submit_msg(&env));
    run_for(&mut sim, Duration::from_secs(2));
    let replies: Vec<_> = rx.drain().iter().filter_map(parse_reply).collect();
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(replies[0].from == added && replies[0].cseq == 0 && replies[0].committed);
    let rep = handle.query_config(&mut sim, minute).expect("a report");
    assert_eq!(rep.executed, executed, "the retransmission executed again");
    // Primary, backup and joiner (index 2 is the idle spare).
    let dbs = dbs.lock();
    for db in [&dbs[0], &dbs[1], &dbs[3]] {
        assert_eq!(total(db), ROWS as i64 * 1_000 + DEPOSIT, "deposited twice");
    }
}

/// What happens to shard 0 once the joiner has replaced its backup.
#[derive(Clone, Copy, PartialEq)]
enum Then {
    /// Nothing more: the joiner stays a backup.
    Follows,
    /// `promote(joiner)`: it leads with the old primary still a member, so
    /// what a peer group sends to the deploy-time locations is NACKed by
    /// live backups.
    Promoted,
    /// `remove_replica(primary)`: the configuration becomes `[joiner]`, and
    /// every location the peer group was deployed with is a replica the
    /// chain left behind.
    Alone,
}

/// Replaces one replica of shard 0 through `reconfig_group` while both
/// groups serve a workload whose every third transaction is a transfer
/// (half of them cross-shard): the joiner adopts the group's 2PC engine
/// state with its snapshot, so transactions prepared before the join
/// still resolve on it, and the history stays atomic and strictly
/// serializable across the membership change. With `then` the joiner goes
/// on to lead the group: shard 1's votes and completion marks must follow
/// the configuration chain to it, as the clients' submissions do.
fn replace_in_shard_under_cross_shard_load(
    pbr: Option<PbrOptions>,
    seed: u64,
    per_client: usize,
    then: Then,
) {
    const SHARDS: usize = 2;
    let mut sim = shadowdb_simnet::testing::default_net(seed);
    let probe = Probe::default();
    let by_shard: [Dbs; SHARDS] = Default::default();
    let scripts: Vec<Vec<TxnRequest>> = (0..2)
        .map(|i| sharded_mixed_txns(seed + 7919 * (i + 1), per_client, ROWS))
        .collect();
    let (per_client_txns, captured) = (scripts.clone(), by_shard.clone());
    let mut options = DeployOptions::sharded(
        SHARDS,
        2,
        move |i| per_client_txns[i].clone(),
        move |shard, db| {
            bank::load_shard(db, ROWS, SHARDS, shard).expect("bank shard loads");
            captured[shard].lock().push(db.clone());
        },
    );
    options.client_timeout = Duration::from_secs(2);
    options.probe = Some(probe.clone());
    let is_pbr = pbr.is_some();
    let d = match pbr {
        Some(pbr) => ShardedDeployment::build_pbr(&mut sim, &options, pbr),
        None => ShardedDeployment::build_smr(&mut sim, &options),
    };
    let mut handle = d.reconfig_group(&mut sim, 0);
    let mut ms = 5;
    while d.committed() < 20 {
        sim.run_until(VTime::from_millis(ms));
        ms += 5;
        assert!(ms < 60_000, "no progress before the replacement");
    }
    // PBR groups are `[primary, backup, spare]`: replace the backup. Under
    // SMR any replica will do.
    let victim = d.groups[0].replicas[if is_pbr { 1 } else { 2 }];
    let share = Duration::from_secs(6);
    let added = handle
        .replace_replica(&mut sim, victim, share)
        .expect("replacement adopted under load");
    match then {
        Then::Follows => {}
        Then::Promoted => assert!(handle.promote(&mut sim, added, share)),
        Then::Alone => assert!(handle.remove_replica(&mut sim, d.groups[0].replicas[0], share)),
    }
    if then != Then::Follows {
        let rep = handle.query_config(&mut sim, share).expect("a report");
        assert_eq!(rep.config.primary(), added, "the joiner leads: {rep:?}");
    }
    assert!(
        d.committed() < 2 * per_client,
        "the membership changes must overlap the workload"
    );
    let deadline = sim.now() + Duration::from_secs(300);
    while d.committed() < 2 * per_client && sim.now() < deadline {
        run_for(&mut sim, Duration::from_millis(50));
    }
    run_for(&mut sim, Duration::from_secs(2)); // let the last decisions land
    assert_eq!(d.committed(), 2 * per_client, "every transaction answered");
    assert!(handle.replicas().contains(&added));

    let events = probe.events();
    assert!(
        events.iter().any(|e| matches!(e, Event::TwoPc(_))),
        "cross-shard transfers must appear"
    );
    check_two_pc_atomicity(&events).expect("atomic cross-shard histories");
    let mut observations = Vec::new();
    for (i, s) in d.stats.iter().enumerate() {
        observations.extend(s.lock().observations(&scripts[i]));
    }
    check_bank_history_concurrent(&observations, 1_000).expect("strictly serializable");
    // The joiner holds exactly the group's state: it resolved every
    // transaction that was prepared before it joined.
    let (group0, group1) = (by_shard[0].lock(), by_shard[1].lock());
    let joiner = group0.last().expect("joiner database");
    if then == Then::Alone {
        // Its donors stopped executing when the chain left them behind;
        // the bank itself is the witness. Everything committed and
        // transfers conserve money, so the joiner and shard 1 together
        // hold the initial total plus every scripted deposit.
        let deposited: i64 = scripts
            .iter()
            .flatten()
            .map(|t| match t {
                TxnRequest::BankDeposit { amount, .. } => *amount,
                _ => 0,
            })
            .sum();
        let held = total(joiner) + total(&group1[0]);
        assert_eq!(held, ROWS as i64 * 1_000 + deposited);
    } else {
        assert_eq!(accounts(joiner), accounts(&group0[0]));
    }
}

/// The failure-detection cadence and cache of the sharded PBR legs.
fn sharded_pbr_options() -> PbrOptions {
    PbrOptions {
        detect_after: Duration::from_millis(500),
        heartbeat_every: Duration::from_millis(100),
        cache_limit: 4, // joiners take the snapshot path
        ..PbrOptions::default()
    }
}

#[test]
fn sharded_pbr_reconfig_group_replaces_replica_under_cross_shard_load() {
    replace_in_shard_under_cross_shard_load(Some(sharded_pbr_options()), 71, 90, Then::Follows);
}

#[test]
fn sharded_smr_reconfig_group_replaces_replica_under_cross_shard_load() {
    replace_in_shard_under_cross_shard_load(None, 72, 90, Then::Follows);
}

/// Sharding × reconfiguration, the half the replacement legs never
/// reached: once the joiner *leads* shard 0 — alone, every deploy-time
/// member removed — shard 1 must learn where shard 0's primary is from the
/// NACKs of the replicas it still addresses, or its votes never arrive and
/// every cross-shard commit stalls behind the first one.
#[test]
fn sharded_pbr_joiner_that_becomes_primary_keeps_cross_shard_commits_flowing() {
    replace_in_shard_under_cross_shard_load(Some(sharded_pbr_options()), 71, 400, Then::Alone);
}

/// The same with the old members still present: the NACKs come from live
/// backups of the current configuration.
#[test]
fn sharded_pbr_promoted_joiner_keeps_cross_shard_commits_flowing() {
    replace_in_shard_under_cross_shard_load(Some(sharded_pbr_options()), 71, 400, Then::Promoted);
}

/// A joiner rebuilt from a TPC-C image has the donors' secondary indexes,
/// so its customer-order reads walk `idx_orders_cust` instead of
/// scanning `orders`.
#[test]
fn a_tpcc_image_joiner_has_the_secondary_indexes() {
    let scale = TpccScale::small();
    let dbs: Dbs = Arc::default();
    let captured = dbs.clone();
    let probe = Probe::default();
    let mut options = DeployOptions::new(
        2,
        move |client| {
            let mut g = TpccGen::new(client as u64, scale, client as u64 + 1);
            (0..40).map(|_| TxnRequest::Tpcc(g.next_txn())).collect()
        },
        move |db| {
            tpcc::load(db, &scale, 9).expect("loads");
            captured.lock().push(db.clone());
        },
    );
    options.probe = Some(probe.clone());
    let mut sim = shadowdb_simnet::testing::default_net(21);
    let d = SmrDeployment::build(&mut sim, &options);
    run_for(&mut sim, Duration::from_millis(200));
    let mut handle = d.reconfig(&mut sim);
    let joiner = handle.add_replica(&mut sim, Duration::from_secs(10));
    let joiner = joiner.expect("smr adds unconditionally");
    sim.run_until_quiescent(VTime::from_secs(3_600));
    let image = Event::Transfer {
        to: joiner,
        kind: TransferKind::Snapshot,
    };
    assert!(probe.events().contains(&image), "the join is an image");

    let dbs = dbs.lock();
    let joined = dbs.last().expect("the joiner's database");
    let snapshot = joined.snapshot();
    let mut indexes = snapshot.tables().iter().flat_map(|t| &t.indexes);
    assert!(indexes.any(|(name, _)| name == "idx_orders_cust"));
    let read = "SELECT o_id FROM orders WHERE o_w_id = 1 AND o_d_id = 1 AND o_c_id = 1";
    joined.execute(read).expect("reads");
    let shape = "SELECT o_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ?";
    let plans = joined.cached_plans();
    let plan = plans
        .iter()
        .find(|(s, _)| s == shape)
        .and_then(|(_, p)| p.as_deref());
    assert_eq!(plan, Some("idx_orders_cust(=,=,=)"), "{plans:?}");
}
