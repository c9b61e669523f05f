//! A PBR election is a function of the broadcast stream.
//!
//! When a member adopts a configuration it broadcasts its report `(seq,
//! member, executed)` through the group's TOB, so every report reaches
//! every member in one order, behind the command that opened the
//! election. The report that completes the set elects the primary — the
//! `Promote` target if the command named one, else the highest report —
//! at the same stream position everywhere. The new primary's catch-up is
//! stamped with that position, and a member holds it until its own stream
//! has got there.
//!
//! The ordering tests step one replica by hand through every order of the
//! reports, with the catch-up arriving at every point. The other members'
//! messages are written out as they would send them, and the command
//! lists a member other than the winner first, so a replica that did not
//! elect would follow the wrong one. A report cannot arrive before its
//! command: it is broadcast only once its sender has delivered that
//! command. The other tests run whole groups: one by hand through a
//! `Promote` of a member that is behind, one on the simulator with a
//! member silenced while it adopts.

use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::msgs::{
    config_query_msg, parse_config_reply, parse_reply, submit_msg, ConfigCommand, ConfigReport,
    ReplicaConfig, TxnEnvelope, CATCHUP_HEADER, FORWARD_HEADER, RECOVERY_ACK_HEADER,
};
use shadowdb::pbr::{PbrOptions, PbrReplica};
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{FaultPlan, LinkFault, LinkSel, Runtime};
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_tob::{BROADCAST_HEADER, DELIVER_HEADER};
use shadowdb_workloads::{bank, TxnRequest};
use std::collections::{BTreeMap, VecDeque};
use std::hash::{DefaultHasher, Hasher};
use std::time::Duration;

const TOB: Loc = Loc::new(20);
const DRIVER: Loc = Loc::new(30);
const FIRST: Loc = Loc::new(13);
const SECOND: Loc = Loc::new(14);
const LAST: Loc = Loc::new(34);
/// The configuration before the command.
const SEQ: i64 = 3;
const ROWS: usize = 8;

fn members() -> Vec<Loc> {
    vec![FIRST, SECOND, LAST]
}

/// A bank database of `ROWS` accounts.
fn bank_db() -> Database {
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, ROWS).expect("bank loads");
    db
}

/// A member of configuration `SEQ`, in normal operation, nothing executed.
fn replica() -> PbrReplica {
    let config = ReplicaConfig {
        seq: SEQ,
        members: members(),
    };
    PbrReplica::new(
        bank_db(),
        config,
        Vec::new(),
        vec![TOB],
        PbrOptions::default(),
    )
}

/// The stream's delivery `seq`: `payload`, broadcast by `client` as its
/// message `msgid`.
fn deliver(seq: i64, client: Loc, msgid: &Value, payload: &Value) -> Msg {
    let body = Value::pair(
        Value::Int(seq),
        Value::pair(
            Value::Loc(client),
            Value::pair(msgid.clone(), payload.clone()),
        ),
    );
    Msg::new(DELIVER_HEADER, body)
}

/// The command opening configuration `SEQ + 1`, first in the stream.
fn command(cmd: &ConfigCommand) -> Msg {
    deliver(0, DRIVER, &Value::Int(0), &cmd.to_payload(SEQ))
}

/// `from`'s report for configuration `SEQ + 1`, its message 0, delivered
/// at stream seq `at`: `<"report", <seq, <member, executed>>>`.
fn report(at: i64, from: Loc, executed: i64) -> Msg {
    let report = Value::pair(Value::Loc(from), Value::Int(executed));
    let payload = Value::pair(
        Value::str("report"),
        Value::pair(Value::Int(SEQ + 1), report),
    );
    deliver(at, from, &Value::Int(0), &payload)
}

/// A deposit of `amount` into account 1, as client `DRIVER`'s `cseq`.
fn deposit(cseq: i64, amount: i64) -> TxnEnvelope {
    let txn = TxnRequest::BankDeposit { account: 1, amount };
    TxnEnvelope::new(DRIVER, cseq, txn)
}

/// The new primary's catch-up from an empty replica, stamped with the
/// election's stream seq `at`: `<config, <at, <start, txns>>>`.
fn catch_up(at: i64, txns: &[TxnEnvelope]) -> Msg {
    let txns = Value::list(txns.iter().map(TxnEnvelope::to_value));
    let body = Value::pair(
        Value::Int(SEQ + 1),
        Value::pair(Value::Int(at), Value::pair(Value::Int(0), txns)),
    );
    Msg::new(CATCHUP_HEADER, body)
}

/// `r`'s answer to a configuration query.
fn query(r: &mut PbrReplica, slf: Loc) -> ConfigReport {
    let answer = r.step(
        &Ctx::new(slf, VTime::from_secs(1)),
        &config_query_msg(DRIVER),
    );
    answer
        .iter()
        .find_map(|s| parse_config_reply(&s.msg))
        .expect("a configuration report")
}

/// Steps a fresh replica at `slf` through `msgs` in order; returns where
/// each recovery acknowledgment went and the configuration it then
/// reports.
fn run(slf: Loc, msgs: &[Msg]) -> (Vec<Loc>, ConfigReport) {
    let mut r = replica();
    let mut out: Vec<SendInstr> = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        let ctx = Ctx::new(slf, VTime::from_micros(i as u64));
        r.step_into(&ctx, m, &mut out);
    }
    let acked = out
        .iter()
        .filter(|s| s.msg.header.name() == RECOVERY_ACK_HEADER)
        .map(|s| s.dest)
        .collect();
    (acked, query(&mut r, slf))
}

/// Runs `slf` through the command, then the reports in every stream
/// order, with `state` inserted at every point; each run must acknowledge
/// `primary` once, follow it, and end having executed `executed`.
fn every_order_follows(
    slf: Loc,
    cmd: &ConfigCommand,
    reports: [(Loc, i64); 3],
    state: &Msg,
    primary: Loc,
    executed: i64,
) {
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let mut stream = vec![command(cmd)];
        for (i, k) in order.into_iter().enumerate() {
            let (member, e) = reports[k];
            stream.push(report(i as i64 + 1, member, e));
        }
        for at in 0..=stream.len() {
            let mut msgs = stream.clone();
            msgs.insert(at, state.clone());
            let (acked, rep) = run(slf, &msgs);
            let ctx = format!("replica {slf:?}, reports {order:?}, catch-up at {at}: {rep:?}");
            assert_eq!(acked, [primary], "{ctx}");
            assert_eq!(rep.config.seq, SEQ + 1, "{ctx}");
            assert_eq!(rep.config.primary(), primary, "{ctx}");
            assert!(rep.normal, "{ctx}");
            assert_eq!(rep.executed, executed, "{ctx}");
        }
    }
}

/// A `Promote` of the member listed last: every member that is not the
/// target follows it, whatever the order of the reports and wherever the
/// target's catch-up falls.
#[test]
fn every_delivery_order_follows_the_promoted_member() {
    let cmd = ConfigCommand::promote(&members(), LAST).expect("a member");
    for slf in [FIRST, SECOND] {
        let reports = [(FIRST, 0), (SECOND, 0), (LAST, 0)];
        every_order_follows(slf, &cmd, reports, &catch_up(3, &[]), LAST, 0);
    }
}

/// A `NewConfig` listing `LAST` first, where `SECOND` and `LAST` have
/// executed two transactions the replica has not: the highest report
/// wins, ties to the smallest id, and the replica takes the missing two
/// from `SECOND`'s catch-up in every order.
#[test]
fn every_delivery_order_follows_the_highest_report() {
    let cmd = ConfigCommand::NewConfig {
        members: vec![LAST, SECOND, FIRST],
    };
    let missing = [deposit(0, 5), deposit(1, 7)];
    let reports = [(FIRST, 0), (SECOND, 2), (LAST, 2)];
    every_order_follows(FIRST, &cmd, reports, &catch_up(3, &missing), SECOND, 2);
}

/// Two replicas that differ only in which report the stream delivered
/// second are different states to a model checker: their futures differ
/// (one still waits for `LAST`, the other for `SECOND`).
#[test]
fn a_delivered_report_changes_the_digest() {
    let cmd = ConfigCommand::promote(&members(), LAST).expect("a member");
    let digest = |msgs: &[Msg]| {
        let mut r = replica();
        for m in msgs {
            r.step(&Ctx::new(FIRST, VTime::ZERO), m);
        }
        let mut h = DefaultHasher::new();
        r.digest(&mut h);
        h.finish()
    };
    let heard = |other: Loc| digest(&[command(&cmd), report(1, FIRST, 0), report(2, other, 0)]);
    assert_eq!(heard(SECOND), heard(SECOND));
    assert_ne!(heard(SECOND), heard(LAST));
    let one = digest(&[command(&cmd), report(1, FIRST, 0)]);
    assert_ne!(one, heard(SECOND));
}

/// A hand-stepped group over a hand-written broadcast service: one
/// stream, every broadcast delivered once, in order, to every member.
/// Timers are not run; messages go first in, first out.
struct Group {
    replicas: BTreeMap<Loc, PbrReplica>,
    stream: i64,
    now: u64,
}

impl Group {
    fn new(members: &[Loc]) -> Group {
        let config = ReplicaConfig::initial(members.to_vec());
        let replicas = members
            .iter()
            .map(|m| {
                let r = PbrReplica::new(
                    bank_db(),
                    config.clone(),
                    Vec::new(),
                    vec![TOB],
                    PbrOptions::default(),
                );
                (*m, r)
            })
            .collect();
        Group {
            replicas,
            stream: 0,
            now: 0,
        }
    }

    /// Delivers `msgs` and everything they cause, except what `drop`
    /// selects, until the group is quiet; returns what left it.
    fn run(&mut self, msgs: Vec<(Loc, Msg)>, drop: impl Fn(Loc, &Msg) -> bool) -> Vec<(Loc, Msg)> {
        let mut queue: VecDeque<(Loc, Msg)> = msgs.into();
        let mut left = Vec::new();
        while let Some((dest, msg)) = queue.pop_front() {
            if dest == TOB && msg.header.name() == BROADCAST_HEADER {
                // <client, <msgid, payload>>
                let (client, rest) = msg.body.unpair();
                let (msgid, payload) = rest.unpair();
                for m in self.replicas.keys() {
                    let d = deliver(self.stream, client.loc(), msgid, payload);
                    queue.push_back((*m, d));
                }
                self.stream += 1;
                continue;
            }
            let Some(r) = self.replicas.get_mut(&dest) else {
                left.push((dest, msg));
                continue;
            };
            self.now += 1;
            for s in r.step(&Ctx::new(dest, VTime::from_micros(self.now)), &msg) {
                if s.delay.is_zero() && !drop(s.dest, &s.msg) {
                    queue.push_back((s.dest, s.msg));
                }
            }
        }
        left
    }

    fn query(&mut self, loc: Loc) -> ConfigReport {
        query(self.replicas.get_mut(&loc).expect("a member"), loc)
    }
}

/// `Promote` of a member one transaction behind: the member with the
/// highest report brings it up first, and it leads holding every
/// transaction the others executed — including one no client was told
/// about, since its forward to the target was lost.
#[test]
fn a_promoted_member_one_transaction_behind_leads_with_every_transaction() {
    let [a, b, target] = [FIRST, SECOND, LAST];
    let mut g = Group::new(&[a, b, target]);
    let start: Vec<(Loc, Msg)> = [a, b, target].map(|m| (m, PbrReplica::start_msg())).into();
    g.run(start, |_, _| false);
    let left = g.run(vec![(a, submit_msg(&deposit(0, 5)))], |_, _| false);
    assert_eq!(left.iter().filter_map(|(_, m)| parse_reply(m)).count(), 1);
    // The second deposit's forward to the target is lost.
    let lost = |to: Loc, m: &Msg| to == target && m.header.name() == FORWARD_HEADER;
    let left = g.run(vec![(a, submit_msg(&deposit(1, 7)))], lost);
    assert!(left.iter().all(|(_, m)| parse_reply(m).is_none()));
    let executed: Vec<i64> = [a, b, target].map(|m| g.query(m).executed).into();
    assert_eq!(executed, [2, 2, 1]);

    let promote = ConfigCommand::promote(&[a, b, target], target).expect("a member");
    let bcast = shadowdb_tob::broadcast_msg(DRIVER, 0, promote.to_payload(0));
    g.run(vec![(TOB, bcast)], |_, _| false);
    for m in [a, b, target] {
        let rep = g.query(m);
        assert_eq!(rep.config.seq, 1, "{m:?}: {rep:?}");
        assert_eq!(rep.config.primary(), target, "{m:?}: {rep:?}");
        assert!(rep.normal, "{m:?}: {rep:?}");
        assert_eq!(rep.executed, 2, "{m:?}: {rep:?}");
    }
    let balance = |g: &Group, m: Loc| {
        let db = g.replicas[&m].database();
        db.execute("SELECT balance FROM accounts WHERE id = 1")
            .expect("selects")
            .rows
    };
    assert_eq!(balance(&g, target), balance(&g, a));

    // And it serves: a third deposit commits through it.
    let left = g.run(vec![(target, submit_msg(&deposit(2, 1)))], |_, _| false);
    let replies: Vec<_> = left.iter().filter_map(|(_, m)| parse_reply(m)).collect();
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(replies[0].from == target && replies[0].committed);
}

/// A member whose sends are all lost while it adopts a configuration —
/// for less than the failure detector's threshold, so nobody suspects it
/// — still gets its report into the stream: it re-sends it on its next
/// heartbeat once it is heard again, and the group recovers.
#[test]
fn a_member_silent_while_it_adopts_reports_once_it_is_heard_again() {
    let mut sim = shadowdb_simnet::testing::default_net(71);
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(100),
        detect_after: Duration::from_secs(2),
        ..PbrOptions::default()
    };
    let mut options = DeployOptions::new(
        1,
        |_| (0..20).map(|_| deposit(0, 1).txn).collect(),
        |db| bank::load(db, ROWS).expect("bank loads"),
    );
    options.active_replicas = 3;
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    let members = &d.replicas[..3]; // the fourth is a spare
    sim.run_until(VTime::from_secs(2));
    assert_eq!(d.committed(), 20);

    let (from, until) = (sim.now(), sim.now() + Duration::from_secs(1));
    let silent = LinkSel::From(members[2]);
    let plan = FaultPlan::new(7).with_rule(silent, from, until, LinkFault::partition());
    sim.install_fault_plan(plan);
    let mut handle = d.reconfig(&mut sim);
    assert!(handle.promote(&mut sim, members[1], Duration::from_millis(500)));
    assert!(sim.now() < until, "the command landed after the window");

    for r in members {
        let recovered = handle.await_member(&mut sim, *r, Duration::from_secs(5));
        assert!(recovered, "{r:?} never recovered");
    }
    let rep = handle.query_config(&mut sim, Duration::from_secs(1));
    assert_eq!(rep.expect("a report").config.primary(), members[1]);
    let (port, rx) = Runtime::port(&mut sim);
    let env = TxnEnvelope::new(port, 0, deposit(0, 1).txn);
    let now = sim.now();
    sim.send_at(now, members[1], submit_msg(&env));
    sim.run_until(now + Duration::from_secs(1));
    let replies: Vec<_> = rx.drain().iter().filter_map(parse_reply).collect();
    assert!(replies.len() == 1 && replies[0].committed, "{replies:?}");
}
