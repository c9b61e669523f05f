//! Deterministic two-phase commit over totally ordered groups.
//!
//! A sharded deployment runs N independent replica groups (PBR or SMR),
//! each owning one shard of the database per the workload-level
//! [`ShardMap`]. Cross-shard transactions commit through a 2PC whose
//! records are ordinary [`TxnRequest::TwoPc`] transactions: each record is
//! ordered *inside* a participant group exactly like a client request, so
//! every vote, decision, and completion mark is replicated state — a shard
//! that loses its primary mid-commit recovers the protocol position from
//! its own log, and there is no unreplicated coordinator to lose.
//!
//! The engine here is the per-replica protocol state machine:
//!
//! * **Prepare** (from the client, fanned to every participant group):
//!   compute this shard's part ([`ShardMap::part_for`]), tentatively
//!   execute it to obtain a vote (rolled back — votes depend only on
//!   replicated reference data, so re-execution at decision time reaches
//!   the same outcome), park the part, and — at the coordinator shard,
//!   the smallest participant — open the voting ledger.
//! * **Vote** (participant → coordinator group): recorded in the ledger;
//!   once every participant voted, the decision is commit iff all granted.
//! * **Decision** (coordinator → participant groups): apply the parked
//!   part (commit) or discard it (abort), then report **Done**.
//! * **Done** (participant → coordinator group): the coordinator replies
//!   to the client only after every participant is done, so a commit
//!   reply implies every shard durably applied its part.
//!
//! Every step is idempotent and [`TwoPcEngine::emissions`] is pure: a
//! re-delivered Prepare re-emits whatever the group currently owes (vote,
//! decisions, done, or the final reply) without mutating anything.
//! Liveness is driven entirely by client retransmission of the Prepare.

use crate::msgs::{reply_msg, sql_to_value, value_to_sql, TxnEnvelope};
use crate::probe::{Event, Probe};
use crate::route::Routes;
use shadowdb_eventml::{SendInstr, Value};
use shadowdb_loe::Loc;
use shadowdb_sqldb::{Database, SqlValue};
use shadowdb_workloads::{
    txnid_from_value, txnid_to_value, ShardMap, TwoPcRecord, TxnId, TxnRequest,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// A replica's view of the sharded deployment: which shard it serves and
/// how to reach every group.
#[derive(Clone, Debug)]
pub struct ShardRole {
    /// The shard this replica's group owns.
    pub shard: usize,
    /// The keyspace partitioning and the route to each shard's group.
    /// Learned state, like a client's: a peer that NACKs a record with its
    /// configuration moves the route to its group.
    pub routes: Routes,
}

impl ShardRole {
    /// The keyspace partitioning.
    pub fn map(&self) -> ShardMap {
        self.routes.map
    }

    /// Renders engine actions into wire sends. `seqs` are this replica's
    /// per-target-shard emission counters: every member of a group advances
    /// them in lockstep (backups render and drop), so a promoted primary
    /// continues the sequence monotonically and the receiving group's
    /// per-client duplicate suppression stays sound. A record fans out —
    /// to every known replica of a PBR group (the sender cannot wait out a
    /// wrong guess at its primary), or through this replica's TOB server
    /// of an SMR group under the emission counter as msgid.
    pub fn render(
        &mut self,
        slf: Loc,
        actions: &[TwoPcAction],
        seqs: &mut [i64],
    ) -> Vec<SendInstr> {
        let mut outs = Vec::new();
        for a in actions {
            match a {
                TwoPcAction::SendRecord { to_shard, record } => {
                    let cseq = seqs[*to_shard];
                    seqs[*to_shard] += 1;
                    let env = TxnEnvelope::new(slf, cseq, TxnRequest::TwoPc(record.clone()));
                    let rotation = slf.index() as usize;
                    self.routes.groups[*to_shard]
                        .submit(slf, &env, true, cseq, rotation, &mut outs);
                }
                TwoPcAction::Reply {
                    client,
                    cseq,
                    committed,
                    results,
                } => {
                    outs.push(SendInstr::now(
                        *client,
                        reply_msg(slf, *cseq, *committed, results),
                    ));
                }
            }
        }
        outs
    }
}

/// An output of the protocol state machine, to be rendered into sends by
/// the hosting replica (and, under PBR, released only after backup acks).
#[derive(Clone, Debug, PartialEq)]
pub enum TwoPcAction {
    /// Order `record` inside `to_shard`'s group.
    SendRecord {
        /// Destination shard.
        to_shard: usize,
        /// The record to order there.
        record: TwoPcRecord,
    },
    /// The coordinator's final answer to the submitting client.
    Reply {
        /// The client that submitted the Prepare.
        client: Loc,
        /// Its sequence number.
        cseq: i64,
        /// Whether the transaction committed on every shard.
        committed: bool,
        /// The coordinator part's result values.
        results: Vec<SqlValue>,
    },
}

/// A 2PC step at one replica, as the deployment's [`Probe`] records it
/// ([`crate::probe::check_two_pc_atomicity`] reads these).
#[derive(Clone, Debug, PartialEq)]
pub enum TwoPcEvent {
    /// A shard voted on a transaction.
    Prepared {
        /// Transaction identity.
        txnid: TxnId,
        /// The shard that prepared.
        shard: usize,
        /// The transaction's participant set.
        participants: Vec<usize>,
    },
    /// A shard learned the decision.
    Decided {
        /// Transaction identity.
        txnid: TxnId,
        /// The shard that learned it.
        shard: usize,
        /// Commit or abort.
        commit: bool,
    },
    /// A shard resolved its parked part.
    Applied {
        /// Transaction identity.
        txnid: TxnId,
        /// The shard that applied.
        shard: usize,
        /// Whether the part committed locally.
        committed: bool,
    },
}

/// The coordinator's replicated voting ledger for one transaction.
#[derive(Clone, Debug, PartialEq)]
struct CoordState {
    participants: Vec<usize>,
    votes: BTreeMap<usize, bool>,
    decision: Option<bool>,
    done: BTreeSet<usize>,
}

/// The per-replica 2PC protocol state machine. Driven exclusively by the
/// group's totally ordered transaction stream, so every member of a group
/// holds identical engine state at identical log positions.
#[derive(Clone)]
pub struct TwoPcEngine {
    map: ShardMap,
    shard: usize,
    /// Parts awaiting a decision (removed once resolved).
    parked: BTreeMap<TxnId, TxnRequest>,
    /// This shard's vote per transaction.
    voted: BTreeMap<TxnId, bool>,
    /// Votes that arrived before the Prepare opened the ledger (a vote
    /// from a participant group can be ordered here first).
    early_votes: BTreeMap<TxnId, BTreeMap<usize, bool>>,
    /// The decision this shard has learned.
    decided: BTreeMap<TxnId, bool>,
    /// The resolved local outcome: `(committed, results)`.
    applied: BTreeMap<TxnId, (bool, Vec<SqlValue>)>,
    /// Coordinator ledgers (only for transactions this shard coordinates).
    coord: BTreeMap<TxnId, CoordState>,
    /// The coordinator shard of each transaction seen (for addressing).
    coord_of: BTreeMap<TxnId, usize>,
}

impl TwoPcEngine {
    /// A fresh engine for `shard` under `map`.
    pub fn new(map: ShardMap, shard: usize) -> TwoPcEngine {
        TwoPcEngine {
            map,
            shard,
            parked: BTreeMap::new(),
            voted: BTreeMap::new(),
            early_votes: BTreeMap::new(),
            decided: BTreeMap::new(),
            applied: BTreeMap::new(),
            coord: BTreeMap::new(),
            coord_of: BTreeMap::new(),
        }
    }

    /// Number of transactions with unresolved parked parts (tests).
    pub fn in_flight(&self) -> usize {
        self.parked.len()
    }

    /// Processes one ordered record and returns the actions the group now
    /// owes, plus the virtual CPU cost incurred; the hosting replica's
    /// `probe`, if any, records each step. Idempotent: re-processing any
    /// record mutates nothing and re-returns the owed actions.
    pub fn step(
        &mut self,
        record: &TwoPcRecord,
        db: &Database,
        probe: Option<&Probe>,
    ) -> (Vec<TwoPcAction>, Duration) {
        let txnid = record.txnid();
        let mut cost = Duration::ZERO;
        match record {
            TwoPcRecord::Prepare {
                txnid,
                participants,
                txn,
            } => {
                if !self.voted.contains_key(txnid) {
                    let part = self.map.part_for(txn, self.shard);
                    let granted = match &part {
                        Some(p) => {
                            let (g, c) = tentative_outcome(p, db);
                            cost += c;
                            g
                        }
                        // Not actually a participant: refuse, so a
                        // malformed participant list aborts cleanly.
                        None => false,
                    };
                    self.voted.insert(*txnid, granted);
                    if let Some(p) = part {
                        self.parked.insert(*txnid, p);
                    }
                    let coord = participants.first().copied().unwrap_or(0);
                    self.coord_of.insert(*txnid, coord);
                    if let Some(p) = probe {
                        p.record(Event::TwoPc(TwoPcEvent::Prepared {
                            txnid: *txnid,
                            shard: self.shard,
                            participants: participants.clone(),
                        }));
                    }
                    if coord == self.shard {
                        let early = self.early_votes.remove(txnid).unwrap_or_default();
                        let cs = self.coord.entry(*txnid).or_insert_with(|| CoordState {
                            participants: participants.clone(),
                            votes: BTreeMap::new(),
                            decision: None,
                            done: BTreeSet::new(),
                        });
                        cs.votes.insert(self.shard, granted);
                        for (s, g) in early {
                            if cs.participants.contains(&s) {
                                cs.votes.entry(s).or_insert(g);
                            }
                        }
                        cost += self.try_decide(*txnid, db, probe);
                    }
                }
            }
            TwoPcRecord::Vote {
                txnid,
                shard,
                granted,
            } => {
                if let Some(cs) = self.coord.get_mut(txnid) {
                    if cs.participants.contains(shard) {
                        cs.votes.entry(*shard).or_insert(*granted);
                    }
                    cost += self.try_decide(*txnid, db, probe);
                } else {
                    // The Prepare has not been ordered here yet: buffer.
                    self.early_votes
                        .entry(*txnid)
                        .or_default()
                        .entry(*shard)
                        .or_insert(*granted);
                }
            }
            TwoPcRecord::Decision { txnid, commit } => {
                if !self.decided.contains_key(txnid) {
                    self.decided.insert(*txnid, *commit);
                    if let Some(p) = probe {
                        p.record(Event::TwoPc(TwoPcEvent::Decided {
                            txnid: *txnid,
                            shard: self.shard,
                            commit: *commit,
                        }));
                    }
                }
                cost += self.ensure_applied(*txnid, db, probe);
            }
            TwoPcRecord::Done { txnid, shard } => {
                if let Some(cs) = self.coord.get_mut(txnid) {
                    cs.done.insert(*shard);
                }
            }
        }
        (self.emissions(txnid), cost)
    }

    /// Declares the decision once every participant voted.
    fn try_decide(&mut self, txnid: TxnId, db: &Database, probe: Option<&Probe>) -> Duration {
        let Some(cs) = self.coord.get_mut(&txnid) else {
            return Duration::ZERO;
        };
        if cs.decision.is_none() && cs.votes.len() >= cs.participants.len() {
            let commit = cs.votes.values().all(|g| *g);
            cs.decision = Some(commit);
            let newly = match self.decided.entry(txnid) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(commit);
                    true
                }
                std::collections::btree_map::Entry::Occupied(_) => false,
            };
            if let (true, Some(p)) = (newly, probe) {
                p.record(Event::TwoPc(TwoPcEvent::Decided {
                    txnid,
                    shard: self.shard,
                    commit,
                }));
            }
        }
        self.ensure_applied(txnid, db, probe)
    }

    /// Resolves the parked part once a decision is known.
    fn ensure_applied(&mut self, txnid: TxnId, db: &Database, probe: Option<&Probe>) -> Duration {
        let Some(&commit) = self.decided.get(&txnid) else {
            return Duration::ZERO;
        };
        if self.applied.contains_key(&txnid) {
            return Duration::ZERO;
        }
        let mut cost = Duration::ZERO;
        let part = self.parked.remove(&txnid);
        let outcome = if commit {
            match part.map(|p| p.apply(db)) {
                Some(Ok(o)) => {
                    cost += o.cost;
                    (o.committed, o.result)
                }
                Some(Err(e)) => (false, vec![SqlValue::Text(e.to_string())]),
                None => (false, Vec::new()),
            }
        } else {
            (false, Vec::new())
        };
        if let Some(p) = probe {
            p.record(Event::TwoPc(TwoPcEvent::Applied {
                txnid,
                shard: self.shard,
                committed: outcome.0,
            }));
        }
        self.applied.insert(txnid, outcome);
        if let Some(cs) = self.coord.get_mut(&txnid) {
            cs.done.insert(self.shard);
        }
        cost
    }

    /// The actions this group currently owes for `txnid`, derived purely
    /// from replicated state: safe to re-emit any number of times.
    pub fn emissions(&self, txnid: TxnId) -> Vec<TwoPcAction> {
        let mut acts = Vec::new();
        if let Some(cs) = self.coord.get(&txnid) {
            if let Some(commit) = cs.decision {
                for p in &cs.participants {
                    if *p != self.shard && !cs.done.contains(p) {
                        acts.push(TwoPcAction::SendRecord {
                            to_shard: *p,
                            record: TwoPcRecord::Decision { txnid, commit },
                        });
                    }
                }
                if cs.participants.iter().all(|p| cs.done.contains(p)) {
                    if let Some((committed, results)) = self.applied.get(&txnid) {
                        acts.push(TwoPcAction::Reply {
                            client: txnid.0,
                            cseq: txnid.1,
                            committed: commit && *committed,
                            results: results.clone(),
                        });
                    }
                }
            }
        } else if let Some(&coord) = self.coord_of.get(&txnid) {
            if self.applied.contains_key(&txnid) {
                acts.push(TwoPcAction::SendRecord {
                    to_shard: coord,
                    record: TwoPcRecord::Done {
                        txnid,
                        shard: self.shard,
                    },
                });
            } else if let Some(&granted) = self.voted.get(&txnid) {
                acts.push(TwoPcAction::SendRecord {
                    to_shard: coord,
                    record: TwoPcRecord::Vote {
                        txnid,
                        shard: self.shard,
                        granted,
                    },
                });
            }
        }
        acts
    }

    /// Serializes the protocol state for snapshot-based state transfer
    /// (the row snapshot alone would lose in-flight transactions).
    pub fn to_value(&self) -> Value {
        let txnmap = |m: &BTreeMap<TxnId, Value>| -> Value {
            Value::list(
                m.iter()
                    .map(|(id, v)| Value::pair(txnid_to_value(id), v.clone())),
            )
        };
        let parked: BTreeMap<TxnId, Value> = self
            .parked
            .iter()
            .map(|(id, t)| (*id, t.to_value()))
            .collect();
        let voted: BTreeMap<TxnId, Value> = self
            .voted
            .iter()
            .map(|(id, g)| (*id, Value::Int(i64::from(*g))))
            .collect();
        let early: BTreeMap<TxnId, Value> = self
            .early_votes
            .iter()
            .map(|(id, vs)| (*id, shard_bool_list(vs)))
            .collect();
        let decided: BTreeMap<TxnId, Value> = self
            .decided
            .iter()
            .map(|(id, c)| (*id, Value::Int(i64::from(*c))))
            .collect();
        let applied: BTreeMap<TxnId, Value> = self
            .applied
            .iter()
            .map(|(id, (c, rs))| {
                (
                    *id,
                    Value::pair(
                        Value::Int(i64::from(*c)),
                        Value::list(rs.iter().map(sql_to_value)),
                    ),
                )
            })
            .collect();
        let coord: BTreeMap<TxnId, Value> = self
            .coord
            .iter()
            .map(|(id, cs)| {
                (
                    *id,
                    Value::pair(
                        Value::list(cs.participants.iter().map(|p| Value::Int(*p as i64))),
                        Value::pair(
                            shard_bool_list(&cs.votes),
                            Value::pair(
                                Value::Int(cs.decision.map_or(-1, i64::from)),
                                Value::list(cs.done.iter().map(|d| Value::Int(*d as i64))),
                            ),
                        ),
                    ),
                )
            })
            .collect();
        let coord_of: BTreeMap<TxnId, Value> = self
            .coord_of
            .iter()
            .map(|(id, c)| (*id, Value::Int(*c as i64)))
            .collect();
        let mut v = txnmap(&coord_of);
        for m in [&coord, &applied, &decided, &early, &voted, &parked] {
            v = Value::pair(txnmap(m), v);
        }
        v
    }

    /// Restores engine state serialized by [`TwoPcEngine::to_value`].
    pub fn from_value(v: &Value, map: ShardMap, shard: usize) -> Option<TwoPcEngine> {
        let (parked_v, rest) = (v.fst()?, v.snd()?);
        let (voted_v, rest) = (rest.fst()?, rest.snd()?);
        let (early_v, rest) = (rest.fst()?, rest.snd()?);
        let (decided_v, rest) = (rest.fst()?, rest.snd()?);
        let (applied_v, rest) = (rest.fst()?, rest.snd()?);
        let (coord_v, coord_of_v) = (rest.fst()?, rest.snd()?);
        let mut e = TwoPcEngine::new(map, shard);
        for (id, t) in txn_entries(parked_v)? {
            e.parked.insert(id, TxnRequest::from_value(t)?);
        }
        for (id, g) in txn_entries(voted_v)? {
            e.voted.insert(id, g.as_int()? != 0);
        }
        for (id, vs) in txn_entries(early_v)? {
            e.early_votes.insert(id, shard_bools(vs)?);
        }
        for (id, c) in txn_entries(decided_v)? {
            e.decided.insert(id, c.as_int()? != 0);
        }
        for (id, o) in txn_entries(applied_v)? {
            let committed = o.fst()?.as_int()? != 0;
            let results: Option<Vec<SqlValue>> =
                o.snd()?.as_list()?.iter().map(value_to_sql).collect();
            e.applied.insert(id, (committed, results?));
        }
        for (id, c) in txn_entries(coord_v)? {
            let participants: Option<Vec<usize>> = c
                .fst()?
                .as_list()?
                .iter()
                .map(|p| p.as_int().map(|i| i as usize))
                .collect();
            let rest = c.snd()?;
            let votes = shard_bools(rest.fst()?)?;
            let rest = rest.snd()?;
            let decision = match rest.fst()?.as_int()? {
                -1 => None,
                d => Some(d != 0),
            };
            let done: Option<BTreeSet<usize>> = rest
                .snd()?
                .as_list()?
                .iter()
                .map(|d| d.as_int().map(|i| i as usize))
                .collect();
            e.coord.insert(
                id,
                CoordState {
                    participants: participants?,
                    votes,
                    decision,
                    done: done?,
                },
            );
        }
        for (id, c) in txn_entries(coord_of_v)? {
            e.coord_of.insert(id, c.as_int()? as usize);
        }
        Some(e)
    }
}

fn txn_entries(v: &Value) -> Option<Vec<(TxnId, &Value)>> {
    v.as_list()?
        .iter()
        .map(|e| Some((txnid_from_value(e.fst()?)?, e.snd()?)))
        .collect()
}

fn shard_bool_list(m: &BTreeMap<usize, bool>) -> Value {
    Value::list(
        m.iter()
            .map(|(s, g)| Value::pair(Value::Int(*s as i64), Value::Int(i64::from(*g)))),
    )
}

fn shard_bools(v: &Value) -> Option<BTreeMap<usize, bool>> {
    v.as_list()?
        .iter()
        .map(|e| Some((e.fst()?.as_int()? as usize, e.snd()?.as_int()? != 0)))
        .collect()
}

/// Executes `part` tentatively and rolls it back (the transaction is
/// dropped uncommitted), returning whether it would commit and the cost.
/// Votes stay stable because semantic aborts depend only on replicated
/// reference data (the TPC-C item catalog is identical on every shard;
/// bank transfers allow overdrafts and always commit).
fn tentative_outcome(part: &TxnRequest, db: &Database) -> (bool, Duration) {
    let Ok(mut txn) = db.begin() else {
        return (false, Duration::ZERO);
    };
    match part.apply_in(&mut txn) {
        Ok(o) => (o.committed, o.cost),
        Err(_) => (false, Duration::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::check_two_pc_atomicity;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_workloads::bank;

    fn shard_db(shards: usize, shard: usize) -> Database {
        let db = Database::new(EngineProfile::h2());
        bank::load_shard(&db, 20, shards, shard).unwrap();
        db
    }

    fn balance(db: &Database, id: i64) -> SqlValue {
        bank::read_balance(db, id).unwrap().result.remove(0)
    }

    /// Drives two engines to completion by hand-routing their actions,
    /// recording into `probe`, and returns the final client reply.
    fn drive(
        engines: &mut [TwoPcEngine],
        dbs: &[Database],
        prepare: &TwoPcRecord,
        probe: &Probe,
    ) -> Option<(bool, Vec<SqlValue>)> {
        let TwoPcRecord::Prepare { participants, .. } = prepare else {
            panic!("drive starts from a Prepare");
        };
        let mut queue: Vec<(usize, TwoPcRecord)> =
            participants.iter().map(|p| (*p, prepare.clone())).collect();
        let mut reply = None;
        let mut steps = 0;
        while let Some((shard, rec)) = queue.pop() {
            steps += 1;
            assert!(steps < 100, "protocol must terminate");
            let (actions, _) = engines[shard].step(&rec, &dbs[shard], Some(probe));
            for a in actions {
                match a {
                    TwoPcAction::SendRecord { to_shard, record } => {
                        queue.push((to_shard, record));
                    }
                    TwoPcAction::Reply {
                        committed, results, ..
                    } => reply = Some((committed, results)),
                }
            }
        }
        reply
    }

    #[test]
    fn cross_shard_transfer_commits_atomically() {
        let map = ShardMap::new(2);
        let dbs = [shard_db(2, 0), shard_db(2, 1)];
        let probe = Probe::default();
        let mut engines = [TwoPcEngine::new(map, 0), TwoPcEngine::new(map, 1)];
        let txn = TxnRequest::BankTransfer {
            from: 2,
            to: 5,
            amount: 300,
        };
        let prep = TwoPcRecord::Prepare {
            txnid: (Loc::new(9), 0),
            participants: map.participants(&txn),
            txn: Box::new(txn),
        };
        let (committed, _) = drive(&mut engines, &dbs, &prep, &probe).expect("a reply");
        assert!(committed);
        assert_eq!(balance(&dbs[0], 2), SqlValue::Int(700));
        assert_eq!(balance(&dbs[1], 5), SqlValue::Int(1_300));
        assert_eq!(engines[0].in_flight() + engines[1].in_flight(), 0);
        check_two_pc_atomicity(&probe.events()).unwrap();
    }

    #[test]
    fn refused_vote_aborts_everywhere() {
        let map = ShardMap::new(2);
        let dbs = [shard_db(2, 0), shard_db(2, 1)];
        let probe = Probe::default();
        let mut engines = [TwoPcEngine::new(map, 0), TwoPcEngine::new(map, 1)];
        // A participant list naming a shard the transaction does not
        // actually touch: that shard's part is None, so it votes no.
        let txn = TxnRequest::BankDeposit {
            account: 2,
            amount: 50,
        };
        let prep = TwoPcRecord::Prepare {
            txnid: (Loc::new(9), 0),
            participants: vec![0, 1],
            txn: Box::new(txn),
        };
        let (committed, _) = drive(&mut engines, &dbs, &prep, &probe).expect("a reply");
        assert!(!committed);
        assert_eq!(
            balance(&dbs[0], 2),
            SqlValue::Int(1_000),
            "abort rolled back"
        );
        check_two_pc_atomicity(&probe.events()).unwrap();
    }

    #[test]
    fn steps_are_idempotent_and_emissions_pure() {
        let map = ShardMap::new(2);
        let dbs = [shard_db(2, 0), shard_db(2, 1)];
        let mut engines = [TwoPcEngine::new(map, 0), TwoPcEngine::new(map, 1)];
        let txn = TxnRequest::BankTransfer {
            from: 0,
            to: 1,
            amount: 10,
        };
        let id = (Loc::new(3), 4);
        let prep = TwoPcRecord::Prepare {
            txnid: id,
            participants: map.participants(&txn),
            txn: Box::new(txn),
        };
        drive(&mut engines, &dbs, &prep, &Probe::default()).expect("a reply");
        // Re-delivering the Prepare re-emits the reply without touching
        // the database (the part is no longer parked).
        let (acts, _) = engines[0].step(&prep, &dbs[0], None);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                TwoPcAction::Reply {
                    committed: true,
                    ..
                }
            )),
            "duplicate Prepare re-drives the final reply: {acts:?}"
        );
        assert_eq!(balance(&dbs[0], 0), SqlValue::Int(990), "no double debit");
        // And at the non-coordinator it re-emits Done.
        let (acts, _) = engines[1].step(&prep, &dbs[1], None);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                TwoPcAction::SendRecord {
                    record: TwoPcRecord::Done { .. },
                    ..
                }
            )),
            "duplicate Prepare re-drives Done: {acts:?}"
        );
    }

    #[test]
    fn early_vote_before_prepare_is_buffered() {
        let map = ShardMap::new(2);
        let db = shard_db(2, 0);
        let mut e = TwoPcEngine::new(map, 0);
        let id = (Loc::new(1), 7);
        let txn = TxnRequest::BankTransfer {
            from: 0,
            to: 1,
            amount: 5,
        };
        // The participant's vote is ordered before the client's Prepare.
        let (acts, _) = e.step(
            &TwoPcRecord::Vote {
                txnid: id,
                shard: 1,
                granted: true,
            },
            &db,
            None,
        );
        assert!(acts.is_empty(), "nothing owed before the Prepare");
        let (acts, _) = e.step(
            &TwoPcRecord::Prepare {
                txnid: id,
                participants: vec![0, 1],
                txn: Box::new(txn),
            },
            &db,
            None,
        );
        // Both votes present: the decision goes straight out.
        assert!(
            acts.iter().any(|a| matches!(
                a,
                TwoPcAction::SendRecord {
                    to_shard: 1,
                    record: TwoPcRecord::Decision { commit: true, .. },
                }
            )),
            "buffered vote completes the ledger: {acts:?}"
        );
    }

    #[test]
    fn engine_state_roundtrips_the_wire() {
        let map = ShardMap::new(2);
        let dbs = [shard_db(2, 0), shard_db(2, 1)];
        let mut e0 = TwoPcEngine::new(map, 0);
        let mut e1 = TwoPcEngine::new(map, 1);
        let txn = TxnRequest::BankTransfer {
            from: 2,
            to: 5,
            amount: 40,
        };
        let id = (Loc::new(8), 3);
        let prep = TwoPcRecord::Prepare {
            txnid: id,
            participants: vec![0, 1],
            txn: Box::new(txn),
        };
        // Freeze mid-protocol: both prepared, no votes exchanged yet.
        e0.step(&prep, &dbs[0], None);
        e1.step(&prep, &dbs[1], None);
        let restored = TwoPcEngine::from_value(&e0.to_value(), map, 0).unwrap();
        assert_eq!(restored.parked, e0.parked);
        assert_eq!(restored.voted, e0.voted);
        assert_eq!(restored.coord, e0.coord);
        assert_eq!(restored.coord_of, e0.coord_of);
        // The restored engine finishes the protocol identically.
        let (acts_r, _) = restored.clone().step(
            &TwoPcRecord::Vote {
                txnid: id,
                shard: 1,
                granted: true,
            },
            &dbs[0],
            None,
        );
        let (acts_o, _) = e0.step(
            &TwoPcRecord::Vote {
                txnid: id,
                shard: 1,
                granted: true,
            },
            &dbs[0],
            None,
        );
        assert_eq!(acts_r, acts_o);
    }
}
