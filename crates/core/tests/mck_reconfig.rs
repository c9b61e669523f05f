//! Model checking online reconfiguration.
//!
//! The shipping deployment builders assemble into `shadowdb_mck`'s
//! `WorldBuilder`, a joiner replica is grafted on exactly the way
//! `ReconfigHandle` grafts one (subscribe to the broadcast service, then
//! race a configuration command through it), and the checker explores
//! the delivery interleavings. Three bounded claims:
//!
//! * **Configuration agreement** — any two replicas reporting the same
//!   configuration sequence number report the same membership, and two
//!   *settled* reports of the same sequence agree on the primary
//!   (`members[0]`). No interleaving of the add, the client submission,
//!   the heartbeats, and the service traffic produces two primaries in
//!   one configuration.
//! * **First proposal per configuration wins** — a racing `AddReplica`
//!   and `RemoveReplica`, both CAS-guarded on sequence 0, resolve to
//!   exactly one of the two successor memberships, never a merge.
//! * **Joiner state equals donor state** — under SMR a snapshot-joining
//!   replica's answers are indistinguishable from the incumbents': the
//!   handoff (snapshot at the subscription point, replay after) puts it
//!   in the same deterministic state, so replicas never disagree on an
//!   answer.
//!
//! TwoThird keeps the broadcast service bounded; `machines: 2` and depth
//! bounds keep the space explorable (a smoke check, not a proof — the
//! full election+transfer handshake is deeper than the bound, but every
//! partial-adoption state on the way is checked).

use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment, SmrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::msgs::{
    config_query_msg, parse_config_reply, parse_reply, submit_msg, ConfigCommand, TxnEnvelope,
    SYNCED_HEADER,
};
use shadowdb::pbr::{PbrOptions, PbrReplica};
use shadowdb::smr::SmrReplica;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_mck::{Options, WorldBuilder};
use shadowdb_runtime::{PortRx, Runtime};
use shadowdb_sqldb::SqlValue;
use shadowdb_tob::deploy::BackendKind;
use shadowdb_tob::{broadcast_msg, subscribe_msg};
use shadowdb_workloads::{bank, TxnRequest};
use std::collections::BTreeMap;
use std::time::Duration;

const ACCOUNTS: usize = 4;

fn checker_options() -> DeployOptions {
    let mut options = DeployOptions::new(
        0, // clients are environment ports, not deployed processes
        |_| Vec::new(),
        |db| bank::load(db, ACCOUNTS).expect("bank loads"),
    );
    options.machines = 2;
    options.backend = BackendKind::TwoThird;
    options
}

fn sorted(members: &[Loc]) -> Vec<Loc> {
    let mut v = members.to_vec();
    v.sort_unstable();
    v
}

/// Grafts a PBR joiner onto a built deployment the way the reconfig
/// handle does: fresh loaded database, joiner process, subscriptions at
/// every broadcast server.
fn graft_pbr_joiner(world: &mut WorldBuilder, d: &PbrDeployment) -> Loc {
    let db = DiversityPolicy::Uniform.database(d.replicas.len());
    bank::load(&db, ACCOUNTS).expect("bank loads");
    let joiner = world.add_node(Box::new(PbrReplica::joiner(
        db,
        d.tob.servers.clone(),
        PbrOptions::default(),
    )));
    for s in &d.tob.servers {
        world.send_at(VTime::ZERO, *s, subscribe_msg(joiner));
    }
    joiner
}

/// A deposit, an `AddReplica`, and configuration queries race through
/// the deployment: in every reachable state, same-sequence configuration
/// reports agree on membership (and settled ones on the primary), and
/// the only sequence-1 membership is the add applied to sequence 0.
#[test]
fn mck_pbr_add_replica_config_agreement() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let options = checker_options();
    let d = PbrDeployment::build(&mut world, &options, PbrOptions::default());
    // The initial configuration is the active members; the deployment's
    // remaining replica is a spare outside it.
    let members = d.replicas[..options.active_replicas].to_vec();
    let joiner = graft_pbr_joiner(&mut world, &d);

    let env = TxnEnvelope::new(
        client,
        0,
        TxnRequest::BankDeposit {
            account: 0,
            amount: 5,
        },
    );
    world.send_at(VTime::ZERO, d.replicas[0], submit_msg(&env));
    let cmd = ConfigCommand::add(&members, joiner).expect("joiner is not a member");
    world.send_at(
        VTime::ZERO,
        d.tob.servers[0],
        broadcast_msg(client, 100, cmd.to_payload(0)),
    );
    for r in d.replicas.iter().chain([&joiner]) {
        world.send_at(VTime::ZERO, *r, config_query_msg(client));
    }

    let mut grown = sorted(&members);
    grown.push(joiner);
    grown.sort_unstable();
    let initial = sorted(&members);

    let outcome = world.explore(
        Options {
            max_depth: 14,
            max_states: 20_000,
            ..Options::default()
        },
        |w| {
            // seq → (membership set, settled primary if any)
            let mut by_seq: BTreeMap<i64, (Vec<Loc>, Option<Loc>)> = BTreeMap::new();
            for (_, _, msg) in &w.observations {
                if let Some(reply) = parse_reply(msg) {
                    if reply.cseq != 0 || !reply.committed {
                        return Err(format!(
                            "unexpected answer: cseq {} committed {}",
                            reply.cseq, reply.committed
                        ));
                    }
                }
                let Some(rep) = parse_config_reply(msg) else {
                    continue;
                };
                if rep.config.seq < 0 {
                    continue; // the joiner before it anchors
                }
                let set = sorted(&rep.config.members);
                let primary = rep.normal.then(|| rep.config.primary());
                match by_seq.get_mut(&rep.config.seq) {
                    Some((prev_set, prev_primary)) => {
                        if *prev_set != set {
                            return Err(format!(
                                "config {} has two memberships: {prev_set:?} vs {set:?}",
                                rep.config.seq
                            ));
                        }
                        match (&prev_primary, primary) {
                            (Some(a), Some(b)) if *a != b => {
                                return Err(format!(
                                    "two primaries in config {}: {a:?} vs {b:?}",
                                    rep.config.seq
                                ));
                            }
                            (None, Some(b)) => *prev_primary = Some(b),
                            _ => {}
                        }
                    }
                    None => {
                        by_seq.insert(rep.config.seq, (set, primary));
                    }
                }
            }
            // The only configurations expressible here are the initial one
            // and the add applied to it.
            for (seq, (set, _)) in &by_seq {
                let ok = match seq {
                    0 => *set == initial,
                    1 => *set == grown,
                    _ => false,
                };
                if !ok {
                    return Err(format!("config {seq} has unexplainable membership {set:?}"));
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(
        outcome.states_visited > 100,
        "the interleaving space should be non-trivial: {}",
        outcome.states_visited
    );
    eprintln!(
        "PBR add-replica: explored {} states (truncated: {})",
        outcome.states_visited, outcome.truncated
    );
}

/// Two configuration commands race for sequence 0's successor: an
/// `AddReplica` through one broadcast server and a `RemoveReplica`
/// through the other. In every interleaving exactly one wins — every
/// sequence-1 report is either the grown or the shrunk membership, all
/// of them the same one, never a merge of the two.
#[test]
fn mck_pbr_racing_config_commands_first_wins() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let options = checker_options();
    let d = PbrDeployment::build(&mut world, &options, PbrOptions::default());
    let members = d.replicas[..options.active_replicas].to_vec();
    let joiner = graft_pbr_joiner(&mut world, &d);

    let add = ConfigCommand::add(&members, joiner).expect("joiner is not a member");
    let remove =
        ConfigCommand::remove(&members, *members.last().expect("members")).expect("is a member");
    world.send_at(
        VTime::ZERO,
        d.tob.servers[0],
        broadcast_msg(client, 100, add.to_payload(0)),
    );
    world.send_at(
        VTime::ZERO,
        d.tob.servers[1 % d.tob.servers.len()],
        broadcast_msg(client, 101, remove.to_payload(0)),
    );
    for r in d.replicas.iter().chain([&joiner]) {
        world.send_at(VTime::ZERO, *r, config_query_msg(client));
    }

    let mut grown = sorted(&members);
    grown.push(joiner);
    grown.sort_unstable();
    let shrunk = sorted(&members[..members.len() - 1]);

    let outcome = world.explore(
        Options {
            max_depth: 14,
            max_states: 20_000,
            ..Options::default()
        },
        |w| {
            let mut winner: Option<Vec<Loc>> = None;
            for (_, _, msg) in &w.observations {
                let Some(rep) = parse_config_reply(msg) else {
                    continue;
                };
                if rep.config.seq != 1 {
                    continue;
                }
                let set = sorted(&rep.config.members);
                if set != grown && set != shrunk {
                    return Err(format!("config 1 is neither command's result: {set:?}"));
                }
                match &winner {
                    Some(prev) if *prev != set => {
                        return Err(format!(
                            "both commands won sequence 0: {prev:?} and {set:?}"
                        ));
                    }
                    Some(_) => {}
                    None => winner = Some(set),
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    eprintln!(
        "PBR racing commands: explored {} states (truncated: {})",
        outcome.states_visited, outcome.truncated
    );
}

/// An SMR joiner grafted mid-race: its snapshot handoff anchors at the
/// subscription point and replays from there, so its answers — the
/// observable projection of its state — never disagree with the
/// incumbents'. A deposit and a read race through the service; every
/// reply for a given client sequence is identical across replicas
/// including the joiner, and the read admits a serial explanation.
#[test]
fn mck_smr_joiner_state_matches_donors() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let d = SmrDeployment::build(&mut world, &checker_options());
    let db = DiversityPolicy::Uniform.database(d.replicas.len());
    bank::load(&db, ACCOUNTS).expect("bank loads");
    let joiner = world.add_node(Box::new(SmrReplica::joining_from(db, d.replicas.clone())));
    for s in &d.tob.servers {
        world.send_at(VTime::ZERO, *s, subscribe_msg(joiner));
    }

    let txns = [
        TxnRequest::BankDeposit {
            account: 0,
            amount: 5,
        },
        TxnRequest::BankRead { account: 0 },
    ];
    for (cseq, txn) in txns.iter().enumerate() {
        let env = TxnEnvelope::new(client, cseq as i64, txn.clone());
        world.send_at(
            VTime::ZERO,
            d.tob.servers[cseq % d.tob.servers.len()],
            broadcast_msg(client, cseq as i64, env.to_value()),
        );
    }

    let outcome = world.explore(
        Options {
            max_depth: 16,
            max_states: 20_000,
            ..Options::default()
        },
        |w| {
            let mut answers: BTreeMap<i64, (bool, Vec<SqlValue>)> = BTreeMap::new();
            for (_, _, msg) in &w.observations {
                let Some(reply) = parse_reply(msg) else {
                    continue;
                };
                let this = (reply.committed, reply.results.clone());
                if let Some(prev) = answers.get(&reply.cseq) {
                    if *prev != this {
                        return Err(format!(
                            "replicas disagree on cseq {}: {prev:?} vs {this:?}",
                            reply.cseq
                        ));
                    }
                } else {
                    answers.insert(reply.cseq, this);
                }
                if reply.cseq == 1 && reply.committed {
                    match reply.results.first() {
                        Some(SqlValue::Int(b)) if *b == 1_000 || *b == 1_005 => {}
                        other => return Err(format!("unexplainable read result {other:?}")),
                    }
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(
        outcome.states_visited > 100,
        "the interleaving space should be non-trivial: {}",
        outcome.states_visited
    );
    eprintln!(
        "SMR joiner: explored {} states (truncated: {})",
        outcome.states_visited, outcome.truncated
    );
}

/// Configuration agreement over every observation in `w`: reports of one
/// sequence name one membership, settled ones one primary, and the
/// membership of each sequence is the one `expected` names.
fn configs_agree(
    w: &shadowdb_mck::World,
    expected: &BTreeMap<i64, Vec<Loc>>,
) -> Result<(), String> {
    let mut by_seq: BTreeMap<i64, Option<Loc>> = BTreeMap::new();
    for (_, _, msg) in &w.observations {
        let Some(rep) = parse_config_reply(msg) else {
            continue;
        };
        let seq = rep.config.seq;
        if expected.get(&seq) != Some(&sorted(&rep.config.members)) {
            return Err(format!(
                "config {seq} has membership {:?}",
                rep.config.members
            ));
        }
        let primary = rep.normal.then(|| rep.config.primary());
        match (by_seq.entry(seq).or_insert(primary), primary) {
            (Some(a), Some(b)) if *a != b => {
                return Err(format!("two primaries in config {seq}: {a:?} vs {b:?}"));
            }
            (settled, b) => *settled = settled.or(b),
        }
    }
    Ok(())
}

/// The first world with a reboot: a durable group's backup comes back as
/// a replica rebooted from its disk — the deployment's own reboot, swapped
/// in before exploration — whose disk holds the deployed configuration,
/// while a `Promote` that moves the group past it is in flight. Whether
/// the command is delivered before or after the rebooted member's
/// subscription starts, and whichever answer reaches it first, every
/// reachable state keeps configuration agreement: the rebooted member
/// reports only configurations the group holds, in the group's order once
/// settled.
#[test]
fn mck_pbr_rebooted_member_config_agreement() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let mut options = checker_options();
    options.durability = Some(DurabilityOptions::default());
    let d = PbrDeployment::build(&mut world, &options, PbrOptions::default());
    let members = d.replicas[..options.active_replicas].to_vec();
    let rebooted = members[1];
    d.reboot(&mut world, rebooted, VTime::ZERO, 7);
    let cmd = ConfigCommand::promote(&members, rebooted).expect("a member");
    world.send_at(
        VTime::ZERO,
        d.tob.servers[0],
        broadcast_msg(client, 100, cmd.to_payload(0)),
    );
    for r in &d.replicas {
        world.send_at(VTime::ZERO, *r, config_query_msg(client));
    }
    // Both sequences hold the deployed membership; only the order moves.
    let expected = BTreeMap::from([(0, sorted(&members)), (1, sorted(&members))]);

    // Non-vacuity: some explored state has the rebooted member settled
    // again, which it is only once an answer to its fetch placed it.
    let rejoined = std::cell::Cell::new(false);
    let outcome = world.explore(
        Options {
            max_depth: 14,
            max_states: 20_000,
            ..Options::default()
        },
        |w| {
            let settled = |m: &shadowdb_eventml::Msg| {
                parse_config_reply(m).is_some_and(|r| r.from == rebooted && r.normal)
            };
            rejoined.set(rejoined.get() || w.observations.iter().any(|(_, _, m)| settled(m)));
            configs_agree(w, &expected)
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(
        rejoined.get(),
        "no explored state has the rebooted member rejoined"
    );
    assert!(
        outcome.states_visited > 100,
        "the interleaving space should be non-trivial: {}",
        outcome.states_visited
    );
    eprintln!(
        "PBR rebooted member: explored {} states (truncated: {})",
        outcome.states_visited, outcome.truncated
    );
}

/// Hosts every replica of a deployment behind a [`Probe`]: a step on
/// `sdb/synced` that sends anything — the sends the completed sync
/// released — also tells `port`, so the explored states that follow such
/// a release are those whose observations hold a `probe/released`.
struct Probed<'w> {
    world: &'w mut WorldBuilder,
    port: Loc,
}

#[derive(Clone)]
struct Probe {
    inner: Box<dyn Process>,
    port: Loc,
}

const RELEASED: &str = "probe/released";

impl Process for Probe {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        let first = out.len();
        self.inner.step_into(ctx, msg, out);
        let released = out[first..].iter().any(|s| s.dest != ctx.slf);
        if msg.header.name() == SYNCED_HEADER && released {
            out.push(SendInstr::now(self.port, Msg::new(RELEASED, Value::Unit)));
        }
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn take_step_cost(&mut self) -> Duration {
        self.inner.take_step_cost()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn digest(&self, hasher: &mut dyn std::hash::Hasher) {
        self.inner.digest(hasher);
    }
}

impl Probed<'_> {
    fn probe(&self, inner: Box<dyn Process>) -> Box<dyn Process> {
        Box::new(Probe {
            inner,
            port: self.port,
        })
    }
}

impl Runtime for Probed<'_> {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        let process = self.probe(process);
        self.world.add_node(process)
    }

    fn node_count(&self) -> u32 {
        self.world.node_count()
    }

    fn now(&self) -> VTime {
        self.world.now()
    }

    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg) {
        self.world.send_at(at, dest, msg);
    }

    fn crash_at(&mut self, at: VTime, loc: Loc) {
        self.world.crash_at(at, loc);
    }

    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        let process = self.probe(process);
        self.world.restart_at(at, loc, process);
    }

    fn port(&mut self) -> (Loc, PortRx) {
        self.world.port()
    }

    fn run_for(&mut self, duration: Duration) {
        self.world.run_for(duration);
    }
}

/// A deposit through a durable PBR group, at the rebooted-member world's
/// budget and depth. Each member logs the deposit, and what it sends
/// after logging waits for the `sdb/synced` that reports the log
/// durable. In every reachable state each answer the client got is the
/// deposit's, committed, and came after such a release. Non-vacuity:
/// explored states follow a release, and some hold the answer.
#[test]
fn mck_pbr_durable_acknowledgments_wait_for_sdb_synced() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let mut options = checker_options();
    options.durability = Some(DurabilityOptions::default());
    let d = PbrDeployment::build(
        &mut Probed {
            world: &mut world,
            port: client,
        },
        &options,
        PbrOptions::default(),
    );
    let env = TxnEnvelope::new(
        client,
        0,
        TxnRequest::BankDeposit {
            account: 0,
            amount: 5,
        },
    );
    world.send_at(VTime::ZERO, d.replicas[0], submit_msg(&env));

    let (after_release, answered) = (std::cell::Cell::new(0usize), std::cell::Cell::new(0usize));
    let outcome = world.explore(
        Options {
            max_depth: 14,
            max_states: 20_000,
            ..Options::default()
        },
        |w| {
            let released = w
                .observations
                .iter()
                .any(|(_, _, m)| m.header.name() == RELEASED);
            after_release.set(after_release.get() + usize::from(released));
            for (_, _, msg) in &w.observations {
                if let Some(reply) = parse_reply(msg) {
                    if reply.cseq != 0 || !reply.committed {
                        return Err(format!(
                            "unexpected answer: cseq {} committed {}",
                            reply.cseq, reply.committed
                        ));
                    }
                    if !released {
                        return Err("an answer before any sync released a send".into());
                    }
                    answered.set(answered.get() + 1);
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(
        after_release.get() > 0,
        "no explored state follows an sdb/synced that released a send"
    );
    assert!(answered.get() > 0, "no explored state holds the answer");
    eprintln!(
        "PBR durable deposit: explored {} states (truncated: {}), {} after a release, {} answered",
        outcome.states_visited,
        outcome.truncated,
        after_release.get(),
        answered.get()
    );
}
