//! TwoThird Consensus: a leaderless round-based consensus protocol.
//!
//! Based on the One-Third Rule algorithm of the Heard-Of model
//! (Charron-Bost & Schiper, reference \[18\] of the paper): fully symmetric,
//! no leader, no failure detector. Each process repeatedly broadcasts its
//! current estimate for the round; once it has heard from more than `2n/3`
//! of the processes it either decides (if more than `2n/3` of *all*
//! processes sent the same value) or adopts the smallest most-frequent
//! received value and moves to the next round.
//!
//! Safety sketch (the property checked exhaustively in `tests/safety.rs`):
//! two decisions each rest on `> 2n/3` identical votes in some round; two
//! such vote sets overlap in `> n/3` processes, and a process votes one
//! value per round, so decisions in the same round agree; and once `> 2n/3`
//! of the processes estimate `v` at a round start, every quorum a process
//! hears from has `v` as its strict majority, so every later estimate — and
//! hence every later decision — is `v`.
//!
//! The protocol is multi-instance: every message carries an instance number
//! and per-instance state is multiplexed in one specification.

use crate::vmap;
use crate::{decide_body, DECIDE_HEADER};
use shadowdb_eventml::patterns::Mealy;
use shadowdb_eventml::{cached_header, ClassExpr, Header, Msg, SendInstr, Spec, Value};
use shadowdb_loe::Loc;

/// Header of a proposal submission: body `<instance, value>`.
pub const PROPOSE_HEADER: &str = "tt/propose";
/// Header of a round vote: body `<instance, <round, <sender, value>>>`.
pub const VOTE_HEADER: &str = "tt/vote";
/// Header of an internal decision broadcast: body `<instance, value>`.
pub const INTERNAL_DECIDE_HEADER: &str = "tt/decide";

/// Configuration of a TwoThird deployment.
#[derive(Clone, Debug)]
pub struct TwoThirdConfig {
    /// The consensus members (all propose, all vote). Tolerates
    /// `f < members.len() / 3` crashes.
    pub members: Vec<Loc>,
    /// Locations notified with [`DECIDE_HEADER`] messages upon decision.
    pub learners: Vec<Loc>,
    /// When true, a member that receives a vote for an instance it has not
    /// proposed in adopts the vote's value as its own proposal. Every
    /// instance then eventually has all members voting, which is what the
    /// round structure needs to make progress when only one member has real
    /// input (the broadcast service runs in this mode). Validity is
    /// preserved: the adopted value was proposed by the vote's sender.
    pub auto_adopt: bool,
}

impl TwoThirdConfig {
    /// Creates a configuration (without auto-adoption).
    pub fn new(members: Vec<Loc>, learners: Vec<Loc>) -> TwoThirdConfig {
        TwoThirdConfig {
            members,
            learners,
            auto_adopt: false,
        }
    }

    /// Enables auto-adoption (see [`TwoThirdConfig::auto_adopt`]).
    pub fn with_auto_adopt(mut self) -> TwoThirdConfig {
        self.auto_adopt = true;
        self
    }
}

/// Builds a proposal message for `instance` carrying `value`.
pub fn propose_msg(instance: i64, value: Value) -> Msg {
    Msg::new(
        cached_header!(PROPOSE_HEADER),
        Value::pair(Value::Int(instance), value),
    )
}

/// Per-instance protocol state (decoded form of the `Value` the spec keeps).
#[derive(Clone, Debug, Default)]
struct Inst {
    proposed: bool,
    round: i64,
    est: Value,
    decided: Option<Value>,
    /// round -> (voter -> value)
    votes: Value,
}

impl Inst {
    fn to_value(&self) -> Value {
        // Flat 6-element list: one Vec + one Arc per encode, instead of the
        // five nested pair Arcs of the obvious `Value::pair` chain. The state
        // is re-encoded on every transition, so this is hot.
        let (has, dv) = match &self.decided {
            Some(v) => (Value::Bool(true), v.clone()),
            None => (Value::Bool(false), Value::Unit),
        };
        Value::list([
            Value::Bool(self.proposed),
            Value::Int(self.round),
            self.est.clone(),
            has,
            dv,
            self.votes.clone(),
        ])
    }

    fn from_value(v: &Value) -> Inst {
        let e = v.as_list().expect("inst encoding");
        Inst {
            proposed: e[0].as_bool().unwrap_or(false),
            round: e[1].int(),
            est: e[2].clone(),
            decided: if e[3].as_bool().unwrap_or(false) {
                Some(e[4].clone())
            } else {
                None
            },
            votes: e[5].clone(),
        }
    }

    fn votes_for_round(&self, round: i64) -> Value {
        vmap::get(&self.votes, &Value::Int(round))
            .cloned()
            .unwrap_or_else(vmap::empty)
    }

    fn record_vote(&mut self, round: i64, voter: Loc, value: Value) {
        let rv = self.votes_for_round(round);
        let rv = vmap::set(&rv, Value::Loc(voter), value);
        self.votes = vmap::set(&self.votes, Value::Int(round), rv);
    }
}

/// The TwoThird Consensus specification factory.
#[derive(Clone, Debug)]
pub struct TwoThird {
    config: TwoThirdConfig,
}

impl TwoThird {
    /// Creates the factory for a configuration.
    pub fn new(config: TwoThirdConfig) -> TwoThird {
        TwoThird { config }
    }

    /// The EventML specification run by every member.
    pub fn spec(&self) -> Spec {
        Spec::new("TwoThirdConsensus", self.class())
    }

    /// The main class of the specification.
    pub fn class(&self) -> ClassExpr {
        self.member().class()
    }

    /// The member state machine. Its state is the instance table
    /// `instance -> Inst` kept in canonical form (a [`vmap`]): a transition
    /// touches one instance, so only that entry is decoded and re-encoded.
    pub fn member(&self) -> Mealy<Value> {
        let config = self.config.clone();
        Mealy::new(
            "tt_transition",
            // Declared weight approximating the transition's AST size (the
            // EventML source of TwoThird in the paper is 646 nodes total).
            560,
            &[PROPOSE_HEADER, VOTE_HEADER, INTERNAL_DECIDE_HEADER],
            vmap::empty(),
            move |slf, header, body, state, outs| {
                transition(&config, slf, header, body, state, outs)
            },
        )
    }
}

/// One protocol transition: dispatch on the header, update the instance
/// state, emit sends.
fn transition(
    config: &TwoThirdConfig,
    slf: Loc,
    header: Header,
    body: &Value,
    state: &mut Value,
    outs: &mut Vec<SendInstr>,
) {
    let (inst_v, payload) = body.unpair();
    let instance = inst_v.int();
    let mut inst = vmap::get(state, inst_v)
        .map(Inst::from_value)
        .unwrap_or_default();

    if header == cached_header!(PROPOSE_HEADER) {
        if let Some(v) = &inst.decided {
            // A proposal for an already-decided instance: repeat the
            // decision so the proposer's server learns it lost the slot.
            notify_learners(config, instance, v, outs);
        } else if !inst.proposed {
            inst.proposed = true;
            inst.round = 1;
            inst.est = payload.clone();
            inst.record_vote(1, slf, payload.clone());
            broadcast_vote(config, slf, instance, 1, payload, outs);
            advance(config, slf, instance, &mut inst, outs);
        }
    } else if header == cached_header!(VOTE_HEADER) {
        let (round, rest) = payload.unpair();
        let (voter, value) = rest.unpair();
        if let Some(v) = &inst.decided {
            // Help a laggard: repeat the decision to the voter.
            outs.push(SendInstr::now(
                voter.loc(),
                Msg::new(
                    cached_header!(INTERNAL_DECIDE_HEADER),
                    Value::pair(Value::Int(instance), v.clone()),
                ),
            ));
        } else {
            inst.record_vote(round.int(), voter.loc(), value.clone());
            if config.auto_adopt && !inst.proposed {
                // Adopt the received value as our own proposal so the
                // instance can reach its vote quorum.
                inst.proposed = true;
                inst.round = 1;
                inst.est = value.clone();
                inst.record_vote(1, slf, value.clone());
                broadcast_vote(config, slf, instance, 1, value, outs);
            }
            advance(config, slf, instance, &mut inst, outs);
        }
    } else if inst.decided.is_none() {
        // INTERNAL_DECIDE.
        inst.decided = Some(payload.clone());
        inst.est = payload.clone();
        notify_learners(config, instance, payload, outs);
    }

    *state = vmap::set(state, inst_v.clone(), inst.to_value());
}

/// Advances rounds while a quorum is available; decides when possible.
fn advance(
    config: &TwoThirdConfig,
    slf: Loc,
    instance: i64,
    inst: &mut Inst,
    outs: &mut Vec<SendInstr>,
) {
    let n = config.members.len() as i64;
    while inst.proposed && inst.decided.is_none() {
        let rv = inst.votes_for_round(inst.round);
        let received = vmap::len(&rv) as i64;
        if received * 3 <= 2 * n {
            return; // no quorum yet
        }
        // Tally the received values. A round has at most `n` distinct values
        // (n is small), so a borrowed linear-scan tally beats a BTreeMap: one
        // Vec allocation, no per-entry node allocs, no value clones.
        let mut freq: Vec<(&Value, i64)> = Vec::with_capacity(received as usize);
        for (_, v) in vmap::iter(&rv) {
            match freq.iter_mut().find(|(u, _)| *u == v) {
                Some((_, c)) => *c += 1,
                None => freq.push((v, 1)),
            }
        }
        // Decision rule: some value voted by more than 2n/3 of all processes.
        if let Some((winner, _)) = freq.iter().find(|(_, c)| *c * 3 > 2 * n) {
            let winner = (*winner).clone();
            inst.decided = Some(winner.clone());
            inst.est = winner.clone();
            let body = Value::pair(Value::Int(instance), winner.clone());
            for m in &config.members {
                if *m != slf {
                    outs.push(SendInstr::now(
                        *m,
                        Msg::new(cached_header!(INTERNAL_DECIDE_HEADER), body.clone()),
                    ));
                }
            }
            notify_learners(config, instance, &winner, outs);
            return;
        }
        // Otherwise: adopt the smallest most-frequent value and start the
        // next round. The comparator is a strict total order over distinct
        // values (count, then smaller-value-wins), so the pick is canonical
        // regardless of tally iteration order.
        let best = freq
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(v, _)| (*v).clone())
            .expect("non-empty quorum");
        inst.round += 1;
        inst.est = best.clone();
        inst.record_vote(inst.round, slf, best.clone());
        broadcast_vote(config, slf, instance, inst.round, &best, outs);
        // Loop: buffered votes for the new round may already form a quorum.
    }
}

fn broadcast_vote(
    config: &TwoThirdConfig,
    slf: Loc,
    instance: i64,
    round: i64,
    value: &Value,
    outs: &mut Vec<SendInstr>,
) {
    // One body, shared by every recipient: per-member cost is a refcount
    // bump, not a rebuild of the nested pairs.
    let body = Value::pair(
        Value::Int(instance),
        Value::pair(
            Value::Int(round),
            Value::pair(Value::Loc(slf), value.clone()),
        ),
    );
    for m in &config.members {
        if *m != slf {
            outs.push(SendInstr::now(
                *m,
                Msg::new(cached_header!(VOTE_HEADER), body.clone()),
            ));
        }
    }
}

fn notify_learners(
    config: &TwoThirdConfig,
    instance: i64,
    value: &Value,
    outs: &mut Vec<SendInstr>,
) {
    let body = decide_body(instance, value);
    for l in &config.learners {
        outs.push(SendInstr::now(
            *l,
            Msg::new(cached_header!(DECIDE_HEADER), body.clone()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_decide;
    use shadowdb_eventml::{Ctx, InterpretedProcess, Process};

    fn cfg(n: u32) -> TwoThirdConfig {
        TwoThirdConfig::new(Loc::first_n(n), vec![Loc::new(100)])
    }

    fn proc(n: u32) -> InterpretedProcess {
        InterpretedProcess::compile_spec(&TwoThird::new(cfg(n)).spec())
    }

    /// Drives messages between members in FIFO order until quiescent;
    /// returns decisions observed at the learner.
    fn run_to_quiescence(n: u32, proposals: Vec<(u32, i64, Value)>) -> Vec<(i64, Value)> {
        let mut procs: Vec<InterpretedProcess> = (0..n).map(|_| proc(n)).collect();
        let mut queue: std::collections::VecDeque<(Loc, Msg)> = proposals
            .into_iter()
            .map(|(m, inst, v)| (Loc::new(m), propose_msg(inst, v)))
            .collect();
        let mut decisions = Vec::new();
        let mut steps = 0;
        while let Some((dest, msg)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 10_000, "protocol did not quiesce");
            if dest.index() >= n {
                if let Some(d) = parse_decide(&msg) {
                    decisions.push(d);
                }
                continue;
            }
            let outs = procs[dest.index() as usize].step(&Ctx::at(dest), &msg);
            for o in outs {
                queue.push_back((o.dest, o.msg));
            }
        }
        decisions
    }

    #[test]
    fn unanimous_proposals_decide_in_round_one() {
        let decisions = run_to_quiescence(
            3,
            vec![
                (0, 0, Value::Int(7)),
                (1, 0, Value::Int(7)),
                (2, 0, Value::Int(7)),
            ],
        );
        assert!(!decisions.is_empty());
        assert!(decisions
            .iter()
            .all(|(i, v)| *i == 0 && *v == Value::Int(7)));
    }

    #[test]
    fn divergent_proposals_converge_to_one_value() {
        let decisions = run_to_quiescence(
            3,
            vec![
                (0, 0, Value::Int(1)),
                (1, 0, Value::Int(2)),
                (2, 0, Value::Int(3)),
            ],
        );
        assert!(!decisions.is_empty(), "must decide");
        let first = &decisions[0].1;
        assert!(
            decisions.iter().all(|(_, v)| v == first),
            "agreement violated"
        );
        assert!(
            [Value::Int(1), Value::Int(2), Value::Int(3)].contains(first),
            "validity violated: {first:?}"
        );
    }

    #[test]
    fn instances_are_independent() {
        let decisions = run_to_quiescence(
            3,
            vec![
                (0, 0, Value::Int(10)),
                (1, 0, Value::Int(10)),
                (2, 0, Value::Int(10)),
                (0, 1, Value::Int(20)),
                (1, 1, Value::Int(20)),
                (2, 1, Value::Int(20)),
            ],
        );
        let insts: std::collections::BTreeMap<i64, Value> = decisions.into_iter().collect();
        assert_eq!(insts.get(&0), Some(&Value::Int(10)));
        assert_eq!(insts.get(&1), Some(&Value::Int(20)));
    }

    #[test]
    fn duplicate_proposals_are_noops() {
        let decisions = run_to_quiescence(
            3,
            vec![
                (0, 0, Value::Int(5)),
                (0, 0, Value::Int(6)), // duplicate from same member: ignored
                (1, 0, Value::Int(5)),
                (2, 0, Value::Int(5)),
            ],
        );
        assert!(decisions.iter().all(|(_, v)| *v == Value::Int(5)));
    }

    #[test]
    fn state_roundtrips_through_value() {
        let mut i = Inst {
            proposed: true,
            round: 3,
            est: Value::Int(9),
            ..Inst::default()
        };
        i.record_vote(3, Loc::new(1), Value::Int(9));
        i.decided = Some(Value::Int(9));
        let v = i.to_value();
        let j = Inst::from_value(&v);
        assert_eq!(j.to_value(), v);
        assert!(j.proposed && j.round == 3 && j.decided == Some(Value::Int(9)));
    }

    #[test]
    fn spec_size_reported_for_table1() {
        let spec = TwoThird::new(cfg(3)).spec();
        assert!(spec.ast_nodes() > 500, "nodes = {}", spec.ast_nodes());
    }
}
