//! Model checking cross-shard atomic commitment.
//!
//! The *shipping* sharded builder — `ShardedDeployment::build_smr`, the
//! same function that assembles the multi-group deployment under the
//! simulator — here builds a 2-shard, window-2 instance into
//! `shadowdb_mck::WorldBuilder`, and the checker explores delivery
//! interleavings of the full graph: two TwoThird broadcast services, four
//! replicas, and every 2PC record (Prepare, Vote, Decision, Done) as an
//! ordinary in-flight message the adversary may reorder.
//!
//! No `Probe` is installed: the deployment's event log is shared memory,
//! *unsound* under the checker (forked branches would all append to one
//! log), so `probe::check_two_pc_atomicity` cannot judge a path here.
//! Atomicity is stated over what the environment observes instead:
//! replies to the client port. The abort test is the
//! sharp one — a Prepare whose participant list names a shard the
//! transaction never touches makes that shard vote no, so the decision
//! must be abort *everywhere*; a racing read on the yes-voting shard must
//! then never observe the part applied. A schedule in which one shard
//! commits while the other aborts would surface as exactly that read.
//!
//! TwoThird keeps the service state space bounded (Paxos leader timers
//! re-arm forever); `machines: 2` keeps each group small. The bounds
//! truncate the space — this is bounded checking, not a proof — but the
//! non-vacuity asserts guarantee the explored prefix contains complete
//! protocol runs, not just stalled ones.

use shadowdb::deploy::{DeployOptions, ShardedDeployment};
use shadowdb::msgs::{parse_reply, TxnEnvelope};
use shadowdb_loe::VTime;
use shadowdb_mck::{Options, WorldBuilder};
use shadowdb_runtime::Runtime;
use shadowdb_sqldb::SqlValue;
use shadowdb_tob::broadcast_msg;
use shadowdb_tob::deploy::BackendKind;
use shadowdb_workloads::{bank, TwoPcRecord, TxnRequest};
use std::cell::Cell;

const ACCOUNTS: usize = 4;
const SHARDS: usize = 2;

fn checker_options() -> DeployOptions {
    let mut options = DeployOptions::sharded(
        SHARDS,
        0, // clients are environment ports, not deployed processes
        |_| Vec::new(),
        |shard, db| bank::load_shard(db, ACCOUNTS, SHARDS, shard).expect("bank loads"),
    );
    options.machines = 2;
    options.backend = BackendKind::TwoThird;
    options.window = Some(2);
    options
}

/// Broadcasts `env` into shard `p`'s group, the way the sharded client
/// router does for SMR groups.
fn submit(
    world: &mut WorldBuilder,
    d: &ShardedDeployment,
    p: usize,
    server: usize,
    msgid: i64,
    env: &TxnEnvelope,
) {
    let servers = &d.groups[p].tob.servers;
    world.send_at(
        VTime::ZERO,
        servers[server % servers.len()],
        broadcast_msg(env.client, msgid, env.to_value()),
    );
}

/// A genuine cross-shard transfer (account 0 on shard 0, account 1 on
/// shard 1): in every explored interleaving of the two groups' services,
/// replicas, and 2PC records, the replicas of the coordinator group agree
/// on the answer and the answer is commit — bank transfers always vote
/// yes, so any abort would mean a vote or decision was corrupted in
/// flight.
#[test]
fn mck_sharded_cross_shard_commit_replies_agree_in_all_interleavings() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = Runtime::port(&mut world);
    let d = ShardedDeployment::build_smr(&mut world, &checker_options());

    let txn = TxnRequest::BankTransfer {
        from: 0,
        to: 1,
        amount: 100,
    };
    let participants = d.map.participants(&txn);
    assert_eq!(
        participants,
        vec![0, 1],
        "the transfer must span both shards"
    );
    let env = TxnEnvelope::new(
        client,
        0,
        TxnRequest::TwoPc(TwoPcRecord::Prepare {
            txnid: (client, 0),
            participants: participants.clone(),
            txn: Box::new(txn),
        }),
    );
    for (i, p) in participants.iter().enumerate() {
        submit(&mut world, &d, *p, 0, i as i64, &env);
    }

    let replied = Cell::new(false);
    let outcome = world.explore(
        Options {
            max_depth: 150,
            max_states: 10_000,
            ..Options::default()
        },
        |w| {
            let mut answer: Option<(bool, Vec<SqlValue>)> = None;
            for (_, _, msg) in &w.observations {
                let Some(reply) = parse_reply(msg) else {
                    continue;
                };
                if reply.cseq != 0 {
                    return Err(format!("reply for unknown cseq {}", reply.cseq));
                }
                if !reply.committed {
                    return Err("cross-shard transfer aborted".into());
                }
                replied.set(true);
                let this = (reply.committed, reply.results.clone());
                match &answer {
                    Some(prev) if *prev != this => {
                        return Err(format!("replicas disagree: {prev:?} vs {this:?}"));
                    }
                    _ => answer = Some(this),
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(
        replied.get(),
        "vacuous exploration: no schedule completed the 2PC within bounds"
    );
    assert!(
        outcome.states_visited > 100,
        "the interleaving space should be non-trivial: {}",
        outcome.states_visited
    );
    eprintln!(
        "sharded commit: explored {} states (depth {}, truncated: {})",
        outcome.states_visited, outcome.max_depth_reached, outcome.truncated
    );
}

/// The partial-commit detector. A Prepare whose participant list names
/// shard 1 for a deposit that only touches shard 0 makes shard 1's part
/// `None`, so shard 1 votes no and the decision must be abort — on *both*
/// shards. Shard 0 voted yes (its part is a perfectly committable
/// deposit), so a protocol that ever let one shard commit while the other
/// aborts would apply the deposit on shard 0 in some interleaving; the
/// racing read of the account would then observe 1050. The invariant
/// demands the 2PC answer is always abort and the read only ever sees the
/// untouched balance, in every explored schedule.
#[test]
fn mck_sharded_abort_never_applies_on_any_shard() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = Runtime::port(&mut world);
    let d = ShardedDeployment::build_smr(&mut world, &checker_options());

    let env = TxnEnvelope::new(
        client,
        0,
        TxnRequest::TwoPc(TwoPcRecord::Prepare {
            txnid: (client, 0),
            participants: vec![0, 1],
            txn: Box::new(TxnRequest::BankDeposit {
                account: 0,
                amount: 50,
            }),
        }),
    );
    submit(&mut world, &d, 0, 0, 0, &env);
    submit(&mut world, &d, 1, 0, 1, &env);
    // The read races the whole 2PC on shard 0 — entering through the
    // *other* server so its slot contends with the Prepare's.
    let read = TxnEnvelope::new(client, 1, TxnRequest::BankRead { account: 0 });
    submit(&mut world, &d, 0, 1, 2, &read);

    let (aborted, read_done) = (Cell::new(false), Cell::new(false));
    let outcome = world.explore(
        Options {
            max_depth: 150,
            max_states: 10_000,
            ..Options::default()
        },
        |w| {
            for (_, _, msg) in &w.observations {
                let Some(reply) = parse_reply(msg) else {
                    continue;
                };
                match reply.cseq {
                    0 => {
                        if reply.committed {
                            return Err("forged-participant 2PC must abort".into());
                        }
                        aborted.set(true);
                    }
                    1 => {
                        // Before the Prepare, between Prepare and abort
                        // (the vote's tentative execution rolls back), or
                        // after the abort applied: always 1000. 1050 is a
                        // partial commit.
                        match reply.results.first() {
                            Some(SqlValue::Int(1_000)) => read_done.set(true),
                            other => {
                                return Err(format!(
                                    "aborted deposit leaked into a read: {other:?}"
                                ));
                            }
                        }
                    }
                    c => return Err(format!("reply for unknown cseq {c}")),
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(
        aborted.get() && read_done.get(),
        "vacuous exploration: abort replied {}, read replied {}",
        aborted.get(),
        read_done.get()
    );
    assert!(
        outcome.states_visited > 100,
        "the interleaving space should be non-trivial: {}",
        outcome.states_visited
    );
    // Agreement across the coordinator group's replicas is covered by the
    // commit test; here the checked surface is outcome stability: once any
    // replica answered abort, no schedule extension may flip it.
    eprintln!(
        "sharded abort: explored {} states (depth {}, truncated: {})",
        outcome.states_visited, outcome.max_depth_reached, outcome.truncated
    );
}
