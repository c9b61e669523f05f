//! The multi-decree Paxos Synod protocol.
//!
//! Structured after *Paxos Made Moderately Complex* (Van Renesse, reference
//! \[20\] of the paper — the informal specification the authors started
//! from): **replicas** assign commands to slots and propose them to
//! leaders; **leaders** run *scout* sub-tasks to get a ballot adopted
//! (phase 1) and *commander* sub-tasks to get individual `<ballot, slot,
//! command>` pvalues accepted (phase 2); **acceptors** are the fault-
//! tolerant memory, promising ballots and accepting pvalues.
//!
//! Scouts and commanders are modelled as sub-state of the leader (the
//! paper's LoE delegation combinator folds sub-processes the same way).
//!
//! The critical invariant — the one the Google extension of reference \[17\]
//! broke — is that an acceptor must never forget a promise: once it answers
//! ballot `b`, it must not accept anything lower. `tests/safety.rs` checks
//! agreement exhaustively, and reproduces the *Paxos Made Live*
//! disk-corruption bug by restarting an acceptor with empty state and
//! watching agreement fail.
//!
//! Decisions are announced to learners with the crate-level
//! [`DECIDE_HEADER`] `(slot, command)` notification,
//! the same interface TwoThird uses — which is what lets the broadcast
//! service switch between consensus modules.
//!
//! [`DECIDE_HEADER`]: crate::DECIDE_HEADER

use crate::vmap;
use crate::{decide_body, DECIDE_HEADER};
use shadowdb_eventml::patterns::{Mealy, MealyState};
use shadowdb_eventml::{cached_header, Header, Msg, SendInstr, Spec, Value};
use shadowdb_loe::Loc;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Client request to a replica: body `<command>`.
pub const REQUEST_HEADER: &str = "px/request";
/// Replica proposal to leaders: body `<slot, command>`.
pub const PROPOSE_HEADER: &str = "px/propose";
/// Commander decision to replicas: body `<slot, command>`.
pub const DECISION_HEADER: &str = "px/decision";
/// Phase-1a: body `<leader, ballot>`.
pub const P1A_HEADER: &str = "px/p1a";
/// Phase-1b: body `<acceptor, <ballot, accepted-pvalues>>`.
pub const P1B_HEADER: &str = "px/p1b";
/// Phase-2a: body `<leader, <ballot, <slot, command>>>`.
pub const P2A_HEADER: &str = "px/p2a";
/// Phase-2b: body `<acceptor, <ballot, slot>>`.
pub const P2B_HEADER: &str = "px/p2b";
/// Kick a leader to run its first scout: body ignored.
pub const START_HEADER: &str = "px/start";
/// Leader-internal backoff timer after preemption.
pub const RESCOUT_HEADER: &str = "px/rescout";

/// Backoff before a preempted leader retries phase 1.
pub const RESCOUT_BACKOFF: Duration = Duration::from_millis(20);

/// Configuration of a Synod deployment.
#[derive(Clone, Debug)]
pub struct SynodConfig {
    /// Replica locations (command ordering; tolerate any number of crashes
    /// as long as one survives).
    pub replicas: Vec<Loc>,
    /// Leader locations.
    pub leaders: Vec<Loc>,
    /// Acceptor locations (tolerate a minority of crashes).
    pub acceptors: Vec<Loc>,
    /// Locations notified of each decided slot.
    pub learners: Vec<Loc>,
}

impl SynodConfig {
    /// A compact deployment: `n` machines each hosting a replica, a leader,
    /// and an acceptor role (as processes at distinct locations), plus the
    /// given learners. Locations are assigned `0..3n`.
    pub fn compact(n: u32, learners: Vec<Loc>) -> SynodConfig {
        SynodConfig {
            replicas: (0..n).map(Loc::new).collect(),
            leaders: (n..2 * n).map(Loc::new).collect(),
            acceptors: (2 * n..3 * n).map(Loc::new).collect(),
            learners,
        }
    }

    fn acceptor_majority(&self) -> usize {
        self.acceptors.len() / 2 + 1
    }
}

/// Builds a client request message carrying `command`.
pub fn request_msg(command: Value) -> Msg {
    Msg::new(cached_header!(REQUEST_HEADER), command)
}

/// Builds the message that starts a leader's first scout.
pub fn start_msg() -> Msg {
    Msg::new(cached_header!(START_HEADER), Value::Unit)
}

/// Appends one message per destination, all sharing `body`: per-recipient
/// cost is a refcount bump, not a rebuild of the nested pairs.
fn send_all(dests: &[Loc], header: Header, body: Value, outs: &mut Vec<SendInstr>) {
    for d in dests {
        outs.push(SendInstr::now(*d, Msg::new(header, body.clone())));
    }
}

// ---------------------------------------------------------------------------
// Typed state shared by the roles, and its canonical encoding
// ---------------------------------------------------------------------------

/// A ballot `(round, leader)`, ordered lexicographically — which is also
/// the order of its encoding `<round, leader>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Ballot {
    round: i64,
    leader: Loc,
}

impl Ballot {
    /// The ballot below all real ballots.
    const BOTTOM: Ballot = Ballot {
        round: -1,
        leader: Loc::new(0),
    };

    fn to_value(self) -> Value {
        Value::pair(Value::Int(self.round), Value::Loc(self.leader))
    }

    fn from_value(v: &Value) -> Ballot {
        let (round, leader) = v.unpair();
        Ballot {
            round: round.int(),
            leader: leader.loc(),
        }
    }
}

/// Accepted pvalues by slot: the highest-ballot `(ballot, command)` seen.
type PValues = BTreeMap<i64, (Ballot, Value)>;

/// Encodes a slot-keyed map as the sorted association list [`vmap`] keeps:
/// one pass over the (already sorted) map.
fn slots_value<T>(map: &BTreeMap<i64, T>, enc: impl Fn(&T) -> Value) -> Value {
    Value::list(
        map.iter()
            .map(|(slot, t)| Value::pair(Value::Int(*slot), enc(t))),
    )
}

fn slots_from<T>(v: &Value, dec: impl Fn(&Value) -> T) -> BTreeMap<i64, T> {
    vmap::iter(v)
        .map(|(slot, t)| (slot.int(), dec(t)))
        .collect()
}

fn pvalues_value(pvals: &PValues) -> Value {
    slots_value(pvals, |(b, cmd)| Value::pair(b.to_value(), cmd.clone()))
}

fn pvalues_from(v: &Value) -> PValues {
    slots_from(v, |bc| {
        let (b, cmd) = bc.unpair();
        (Ballot::from_value(b), cmd.clone())
    })
}

/// The acceptors a scout or commander still waits for, encoded as the
/// association list `acceptor -> ()`.
fn waitfor_value(waitfor: &BTreeSet<Loc>) -> Value {
    Value::list(
        waitfor
            .iter()
            .map(|a| Value::pair(Value::Loc(*a), Value::Unit)),
    )
}

fn waitfor_from(v: &Value) -> BTreeSet<Loc> {
    vmap::iter(v).map(|(a, _)| a.loc()).collect()
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

/// Acceptor state, encoded `<ballot, accepted-pvalues>`.
#[derive(Clone, Debug)]
pub struct AcceptorState {
    /// The highest ballot promised.
    ballot: Ballot,
    accepted: PValues,
}

impl MealyState for AcceptorState {
    fn encode(&self) -> Value {
        Value::pair(self.ballot.to_value(), pvalues_value(&self.accepted))
    }

    fn decode(v: &Value) -> AcceptorState {
        let (ballot, accepted) = v.unpair();
        AcceptorState {
            ballot: Ballot::from_value(ballot),
            accepted: pvalues_from(accepted),
        }
    }
}

/// The acceptor role: the protocol's fault-tolerant memory.
pub fn acceptor() -> Mealy<AcceptorState> {
    let init = AcceptorState {
        ballot: Ballot::BOTTOM,
        accepted: PValues::new(),
    };
    Mealy::new(
        "acceptor_transition",
        180,
        &[P1A_HEADER, P2A_HEADER],
        init,
        acceptor_transition,
    )
}

fn acceptor_transition(
    slf: Loc,
    header: Header,
    body: &Value,
    st: &mut AcceptorState,
    outs: &mut Vec<SendInstr>,
) {
    if header == cached_header!(P1A_HEADER) {
        let (leader, b) = body.unpair();
        st.ballot = st.ballot.max(Ballot::from_value(b));
        // Reply with the promise and everything accepted so far.
        let promise = Value::pair(st.ballot.to_value(), pvalues_value(&st.accepted));
        outs.push(SendInstr::now(
            leader.loc(),
            Msg::new(
                cached_header!(P1B_HEADER),
                Value::pair(Value::Loc(slf), promise),
            ),
        ));
    } else {
        // P2A.
        let (leader, rest) = body.unpair();
        let (b, sc) = rest.unpair();
        let (slot, cmd) = sc.unpair();
        let b = Ballot::from_value(b);
        if b >= st.ballot {
            st.ballot = b;
            st.accepted.insert(slot.int(), (b, cmd.clone()));
        }
        outs.push(SendInstr::now(
            leader.loc(),
            Msg::new(
                cached_header!(P2B_HEADER),
                Value::pair(
                    Value::Loc(slf),
                    Value::pair(st.ballot.to_value(), slot.clone()),
                ),
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Leader (with scout and commander sub-state)
// ---------------------------------------------------------------------------

/// Leader state, encoded
/// `<round, <active, <proposals, <scout, commanders>>>>` with `scout`
/// `<true, <waitfor, pvalues>>` while one runs and `<false, ()>` otherwise.
#[derive(Clone, Debug)]
pub struct LeaderState {
    /// Round of the leader's current ballot `(round, slf)`.
    round: i64,
    active: bool,
    /// slot -> command
    proposals: BTreeMap<i64, Value>,
    /// The acceptors still awaited and the pvalues gathered so far, while a
    /// scout runs.
    scout: Option<(BTreeSet<Loc>, PValues)>,
    /// slot -> acceptors still awaited, while a commander runs.
    commanders: BTreeMap<i64, BTreeSet<Loc>>,
}

impl LeaderState {
    fn ballot(&self, slf: Loc) -> Ballot {
        Ballot {
            round: self.round,
            leader: slf,
        }
    }
}

impl MealyState for LeaderState {
    fn encode(&self) -> Value {
        let scout = match &self.scout {
            Some((waitfor, pvals)) => Value::pair(
                Value::Bool(true),
                Value::pair(waitfor_value(waitfor), pvalues_value(pvals)),
            ),
            None => Value::pair(Value::Bool(false), Value::Unit),
        };
        Value::pair(
            Value::Int(self.round),
            Value::pair(
                Value::Bool(self.active),
                Value::pair(
                    slots_value(&self.proposals, Value::clone),
                    Value::pair(scout, slots_value(&self.commanders, waitfor_value)),
                ),
            ),
        )
    }

    fn decode(v: &Value) -> LeaderState {
        let (round, rest) = v.unpair();
        let (active, rest) = rest.unpair();
        let (proposals, rest) = rest.unpair();
        let (scout, commanders) = rest.unpair();
        let (has_scout, sc) = scout.unpair();
        LeaderState {
            round: round.int(),
            active: active.as_bool().expect("bool"),
            proposals: slots_from(proposals, Value::clone),
            scout: has_scout.as_bool().expect("bool").then(|| {
                let (waitfor, pvals) = sc.unpair();
                (waitfor_from(waitfor), pvalues_from(pvals))
            }),
            commanders: slots_from(commanders, waitfor_from),
        }
    }
}

/// The leader role (scouts and commanders folded into its state).
pub fn leader(config: &SynodConfig) -> Mealy<LeaderState> {
    let config = config.clone();
    let init = LeaderState {
        round: -1,
        active: false,
        proposals: BTreeMap::new(),
        scout: None,
        commanders: BTreeMap::new(),
    };
    Mealy::new(
        "leader_transition",
        650,
        &[
            START_HEADER,
            RESCOUT_HEADER,
            PROPOSE_HEADER,
            P1B_HEADER,
            P2B_HEADER,
        ],
        init,
        move |slf, header, body, st, outs| leader_transition(&config, slf, header, body, st, outs),
    )
}

fn spawn_scout(config: &SynodConfig, slf: Loc, st: &mut LeaderState, outs: &mut Vec<SendInstr>) {
    st.scout = Some((config.acceptors.iter().copied().collect(), PValues::new()));
    let body = Value::pair(Value::Loc(slf), st.ballot(slf).to_value());
    send_all(&config.acceptors, cached_header!(P1A_HEADER), body, outs);
}

fn spawn_commander(
    config: &SynodConfig,
    ballot: Ballot,
    commanders: &mut BTreeMap<i64, BTreeSet<Loc>>,
    slot: i64,
    cmd: &Value,
    outs: &mut Vec<SendInstr>,
) {
    commanders.insert(slot, config.acceptors.iter().copied().collect());
    let body = Value::pair(
        Value::Loc(ballot.leader),
        Value::pair(
            ballot.to_value(),
            Value::pair(Value::Int(slot), cmd.clone()),
        ),
    );
    send_all(&config.acceptors, cached_header!(P2A_HEADER), body, outs);
}

fn preempt(slf: Loc, st: &mut LeaderState, seen: Ballot, outs: &mut Vec<SendInstr>) {
    st.round = seen.round.max(st.round) + 1;
    st.active = false;
    st.scout = None;
    st.commanders.clear();
    outs.push(SendInstr::after(
        RESCOUT_BACKOFF,
        slf,
        Msg::new(cached_header!(RESCOUT_HEADER), Value::Unit),
    ));
}

fn leader_transition(
    config: &SynodConfig,
    slf: Loc,
    header: Header,
    body: &Value,
    st: &mut LeaderState,
    outs: &mut Vec<SendInstr>,
) {
    let our = st.ballot(slf);
    if header == cached_header!(START_HEADER) {
        if st.round < 0 {
            st.round = 0;
            spawn_scout(config, slf, st, outs);
        }
    } else if header == cached_header!(RESCOUT_HEADER) {
        if !st.active && st.scout.is_none() {
            spawn_scout(config, slf, st, outs);
        }
    } else if header == cached_header!(PROPOSE_HEADER) {
        let (slot, cmd) = body.unpair();
        let slot = slot.int();
        if let std::collections::btree_map::Entry::Vacant(e) = st.proposals.entry(slot) {
            e.insert(cmd.clone());
            if st.active {
                spawn_commander(config, our, &mut st.commanders, slot, cmd, outs);
            }
        }
    } else if header == cached_header!(P1B_HEADER) {
        let (acceptor, rest) = body.unpair();
        let (b, accepted) = rest.unpair();
        let b = Ballot::from_value(b);
        if b > our {
            preempt(slf, st, b, outs);
        } else if b == our {
            let Some((mut waitfor, mut pvals)) = st.scout.take() else {
                return;
            };
            // Merge the acceptor's pvalues, keeping max ballot per slot.
            for (slot, bc) in vmap::iter(accepted) {
                let (pb, cmd) = bc.unpair();
                let (slot, pb) = (slot.int(), Ballot::from_value(pb));
                if pvals.get(&slot).is_none_or(|(existing, _)| pb > *existing) {
                    pvals.insert(slot, (pb, cmd.clone()));
                }
            }
            waitfor.remove(&acceptor.loc());
            let heard = config.acceptors.len() - waitfor.len();
            if heard >= config.acceptor_majority() {
                // Adopted: graft pmax(pvals) over our proposals.
                st.active = true;
                for (slot, (_, cmd)) in pvals {
                    st.proposals.insert(slot, cmd);
                }
                for (slot, cmd) in &st.proposals {
                    spawn_commander(config, our, &mut st.commanders, *slot, cmd, outs);
                }
            } else {
                st.scout = Some((waitfor, pvals));
            }
        }
    } else {
        // P2B.
        let (acceptor, rest) = body.unpair();
        let (b, slot) = rest.unpair();
        let b = Ballot::from_value(b);
        if b > our {
            preempt(slf, st, b, outs);
        } else if b == our {
            let slot = slot.int();
            let Some(waitfor) = st.commanders.get_mut(&slot) else {
                return;
            };
            waitfor.remove(&acceptor.loc());
            let heard = config.acceptors.len() - waitfor.len();
            if heard >= config.acceptor_majority() {
                st.commanders.remove(&slot);
                let cmd = st.proposals.get(&slot).expect("commander implies proposal");
                let body = Value::pair(Value::Int(slot), cmd.clone());
                send_all(
                    &config.replicas,
                    cached_header!(DECISION_HEADER),
                    body,
                    outs,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

/// Replica state, encoded `<slot_in, <slot_out, <proposals, decisions>>>`.
#[derive(Clone, Debug)]
pub struct ReplicaState {
    /// Next slot this replica will propose into.
    slot_in: i64,
    /// Next slot to deliver.
    slot_out: i64,
    /// slot -> cmd, our outstanding proposals.
    proposals: BTreeMap<i64, Value>,
    /// slot -> cmd, decided.
    decisions: BTreeMap<i64, Value>,
}

impl MealyState for ReplicaState {
    fn encode(&self) -> Value {
        Value::pair(
            Value::Int(self.slot_in),
            Value::pair(
                Value::Int(self.slot_out),
                Value::pair(
                    slots_value(&self.proposals, Value::clone),
                    slots_value(&self.decisions, Value::clone),
                ),
            ),
        )
    }

    fn decode(v: &Value) -> ReplicaState {
        let (slot_in, rest) = v.unpair();
        let (slot_out, rest) = rest.unpair();
        let (proposals, decisions) = rest.unpair();
        ReplicaState {
            slot_in: slot_in.int(),
            slot_out: slot_out.int(),
            proposals: slots_from(proposals, Value::clone),
            decisions: slots_from(decisions, Value::clone),
        }
    }
}

/// The replica role: assigns commands to slots and delivers decisions in
/// slot order.
pub fn replica(config: &SynodConfig) -> Mealy<ReplicaState> {
    let config = config.clone();
    let init = ReplicaState {
        slot_in: 0,
        slot_out: 0,
        proposals: BTreeMap::new(),
        decisions: BTreeMap::new(),
    };
    Mealy::new(
        "replica_transition",
        320,
        &[REQUEST_HEADER, DECISION_HEADER],
        init,
        move |_slf, header, body, st, outs| replica_transition(&config, header, body, st, outs),
    )
}

fn propose(config: &SynodConfig, st: &mut ReplicaState, cmd: &Value, outs: &mut Vec<SendInstr>) {
    if st.decisions.values().any(|c| c == cmd) {
        return;
    }
    // Skip slots already used.
    while st.proposals.contains_key(&st.slot_in) || st.decisions.contains_key(&st.slot_in) {
        st.slot_in += 1;
    }
    st.proposals.insert(st.slot_in, cmd.clone());
    let body = Value::pair(Value::Int(st.slot_in), cmd.clone());
    send_all(&config.leaders, cached_header!(PROPOSE_HEADER), body, outs);
}

fn replica_transition(
    config: &SynodConfig,
    header: Header,
    body: &Value,
    st: &mut ReplicaState,
    outs: &mut Vec<SendInstr>,
) {
    if header == cached_header!(REQUEST_HEADER) {
        // Duplicate submissions of an outstanding proposal are no-ops.
        if !st.proposals.values().any(|c| c == body) {
            propose(config, st, body, outs);
        }
    } else {
        // DECISION.
        let (slot, cmd) = body.unpair();
        st.decisions
            .entry(slot.int())
            .or_insert_with(|| cmd.clone());
        // Deliver in slot order, re-proposing our commands that lost
        // their slot to someone else's command.
        while let Some(decided) = st.decisions.get(&st.slot_out).cloned() {
            if let Some(ours) = st.proposals.remove(&st.slot_out) {
                if ours != decided {
                    propose(config, st, &ours, outs);
                }
            }
            let body = decide_body(st.slot_out, &decided);
            send_all(&config.learners, cached_header!(DECIDE_HEADER), body, outs);
            st.slot_out += 1;
        }
    }
}

/// The three role specifications of a Synod deployment together, with the
/// combined size statistics reported in Table I.
#[derive(Clone, Debug)]
pub struct SynodSpec {
    /// The acceptor role.
    pub acceptor: Spec,
    /// The leader role.
    pub leader: Spec,
    /// The replica role.
    pub replica: Spec,
}

impl SynodSpec {
    /// Builds all three role specifications for `config`.
    pub fn new(config: &SynodConfig) -> SynodSpec {
        SynodSpec {
            acceptor: Spec::new("SynodAcceptor", acceptor().class()),
            leader: Spec::new("SynodLeader", leader(config).class()),
            replica: Spec::new("SynodReplica", replica(config).class()),
        }
    }

    /// Total EventML AST nodes across the three roles.
    pub fn ast_nodes(&self) -> usize {
        self.acceptor.ast_nodes() + self.leader.ast_nodes() + self.replica.ast_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_decide;
    use shadowdb_eventml::optimize::optimize;
    use shadowdb_eventml::{Ctx, InterpretedProcess, Process};
    use std::collections::VecDeque;

    /// The program forms a role can run in — what `tob::ExecutionMode`
    /// selects between in a deployment.
    #[derive(Clone, Copy, Debug)]
    enum Form {
        Interpreted,
        Fused,
        Compiled,
    }

    const FORMS: [Form; 3] = [Form::Interpreted, Form::Fused, Form::Compiled];

    impl Form {
        fn build<S: MealyState>(self, role: Mealy<S>) -> Box<dyn Process> {
            match self {
                Form::Interpreted => Box::new(InterpretedProcess::compile(&role.class())),
                Form::Fused => Box::new(optimize(&role.class())),
                Form::Compiled => Box::new(role.process()),
            }
        }
    }

    /// A toy deployment driver: FIFO queue of messages, roles at fixed locs.
    struct Net {
        procs: Vec<(Loc, Box<dyn Process>)>,
        queue: VecDeque<(Loc, Msg)>,
        decisions: Vec<(i64, Value)>,
        learner: Loc,
    }

    impl Net {
        /// Every role in the same form.
        fn new(config: &SynodConfig, form: Form) -> Net {
            Net::mixed(config, form, form)
        }

        /// Replicas and leaders in one form, acceptors in another.
        fn mixed(config: &SynodConfig, proposers: Form, acceptors: Form) -> Net {
            let mut procs = Vec::new();
            for r in &config.replicas {
                procs.push((*r, proposers.build(replica(config))));
            }
            for l in &config.leaders {
                procs.push((*l, proposers.build(leader(config))));
            }
            for a in &config.acceptors {
                procs.push((*a, acceptors.build(acceptor())));
            }
            Net {
                procs,
                queue: VecDeque::new(),
                decisions: Vec::new(),
                learner: config.learners[0],
            }
        }

        fn inject(&mut self, dest: Loc, msg: Msg) {
            self.queue.push_back((dest, msg));
        }

        fn run(&mut self) {
            let mut steps = 0;
            while let Some((dest, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 100_000, "did not quiesce");
                if dest == self.learner {
                    if let Some(d) = parse_decide(&msg) {
                        self.decisions.push(d);
                    }
                    continue;
                }
                if let Some((_, p)) = self.procs.iter_mut().find(|(l, _)| *l == dest) {
                    let outs = p.step(&Ctx::at(dest), &msg);
                    for o in outs {
                        self.queue.push_back((o.dest, o.msg));
                    }
                }
            }
        }
    }

    fn config() -> SynodConfig {
        // 1 replica, 1 leader, 3 acceptors, learner at 100.
        SynodConfig {
            replicas: vec![Loc::new(0)],
            leaders: vec![Loc::new(1)],
            acceptors: vec![Loc::new(2), Loc::new(3), Loc::new(4)],
            learners: vec![Loc::new(100)],
        }
    }

    /// Ten requests behind a started leader; returns what the learner saw.
    fn ten_commands(mut net: Net, cfg: &SynodConfig) -> Vec<(i64, Value)> {
        net.inject(cfg.leaders[0], start_msg());
        for i in 0..10 {
            net.inject(cfg.replicas[0], request_msg(Value::Int(i)));
        }
        net.run();
        net.decisions
    }

    #[test]
    fn decides_single_command() {
        for form in FORMS {
            let cfg = config();
            let mut net = Net::new(&cfg, form);
            net.inject(cfg.leaders[0], start_msg());
            net.inject(cfg.replicas[0], request_msg(Value::str("cmd-a")));
            net.run();
            assert_eq!(net.decisions, vec![(0, Value::str("cmd-a"))], "{form:?}");
        }
    }

    #[test]
    fn orders_many_commands_gaplessly() {
        for form in FORMS {
            let cfg = config();
            let decisions = ten_commands(Net::new(&cfg, form), &cfg);
            let slots: Vec<i64> = decisions.iter().map(|(s, _)| *s).collect();
            assert_eq!(slots, (0..10).collect::<Vec<_>>(), "{form:?}");
            let cmds: BTreeSet<i64> = decisions.iter().map(|(_, c)| c.int()).collect();
            assert_eq!(
                cmds.len(),
                10,
                "{form:?}: every command decided exactly once"
            );
        }
    }

    /// Wire compatibility between forms: compiled acceptors under
    /// interpreted (and fused) replicas and leaders, and the reverse, decide
    /// exactly what a single-form deployment decides on the same schedule.
    #[test]
    fn mixed_form_deployments_decide_what_one_form_decides() {
        let cfg = config();
        let reference = ten_commands(Net::new(&cfg, Form::Interpreted), &cfg);
        assert_eq!(reference.len(), 10);
        for (proposers, acceptors) in [
            (Form::Interpreted, Form::Compiled),
            (Form::Compiled, Form::Interpreted),
            (Form::Fused, Form::Compiled),
            (Form::Compiled, Form::Fused),
        ] {
            let decisions = ten_commands(Net::mixed(&cfg, proposers, acceptors), &cfg);
            assert_eq!(
                decisions, reference,
                "{proposers:?} proposers over {acceptors:?} acceptors"
            );
        }
    }

    #[test]
    fn request_before_leader_start_is_decided_after_adoption() {
        for form in FORMS {
            let cfg = config();
            let mut net = Net::new(&cfg, form);
            net.inject(cfg.replicas[0], request_msg(Value::str("early")));
            net.run();
            assert!(net.decisions.is_empty(), "{form:?}: no active leader yet");
            net.inject(cfg.leaders[0], start_msg());
            net.run();
            assert_eq!(net.decisions, vec![(0, Value::str("early"))], "{form:?}");
        }
    }

    #[test]
    fn competing_leaders_preempt_but_agree() {
        for form in FORMS {
            let mut cfg = config();
            cfg.leaders = vec![Loc::new(1), Loc::new(5)];
            let mut net = Net::new(&cfg, form);
            net.inject(cfg.leaders[0], start_msg());
            net.inject(cfg.leaders[1], start_msg());
            for i in 0..3 {
                net.inject(cfg.replicas[0], request_msg(Value::Int(i)));
            }
            net.run();
            // All slots decided exactly once; no slot with two different values.
            let mut by_slot: BTreeMap<i64, Value> = BTreeMap::new();
            for (s, c) in &net.decisions {
                if let Some(prev) = by_slot.get(s) {
                    assert_eq!(prev, c, "{form:?}: slot {s} decided twice differently");
                }
                by_slot.insert(*s, c.clone());
            }
            let decided: BTreeSet<i64> = by_slot.values().map(Value::int).collect();
            assert_eq!(decided, (0..3).collect(), "{form:?}");
        }
    }

    #[test]
    fn duplicate_request_not_decided_twice() {
        for form in FORMS {
            let cfg = config();
            let mut net = Net::new(&cfg, form);
            net.inject(cfg.leaders[0], start_msg());
            net.inject(cfg.replicas[0], request_msg(Value::str("once")));
            net.run();
            net.inject(cfg.replicas[0], request_msg(Value::str("once")));
            net.run();
            assert_eq!(net.decisions.len(), 1, "{form:?}");
        }
    }

    /// The promise carries every accepted pvalue, so answering a P1A must be
    /// one pass over the accepted map: rebuilding the association list one
    /// `vmap::set` at a time is a list copy per slot — over 10⁹ element
    /// copies at this size — on every leader start, rescout and failover.
    #[test]
    fn promise_over_many_accepted_slots_is_one_pass() {
        const SLOTS: i64 = 50_000;
        let (slf, leader) = (Loc::new(2), Loc::new(1));
        let ctx = Ctx::at(slf);
        let ballot = Ballot { round: 0, leader }.to_value();
        let mut acceptor = acceptor().process();
        let mut outs = Vec::new();
        for slot in 0..SLOTS {
            let pvalue = Value::pair(Value::Int(slot), Value::Int(slot * 7));
            let body = Value::pair(Value::Loc(leader), Value::pair(ballot.clone(), pvalue));
            outs.clear();
            acceptor.step_into(&ctx, &Msg::new(P2A_HEADER, body), &mut outs);
        }
        let p1a = Msg::new(P1A_HEADER, Value::pair(Value::Loc(leader), ballot.clone()));
        let started = std::time::Instant::now();
        let outs = acceptor.step(&ctx, &p1a);
        let took = started.elapsed();
        let (_, promise) = outs[0].msg.body.unpair();
        let (promised, accepted) = promise.unpair();
        assert_eq!(*promised, ballot);
        let slots: Vec<i64> = vmap::iter(accepted).map(|(s, _)| s.int()).collect();
        assert_eq!(slots, (0..SLOTS).collect::<Vec<_>>());
        assert!(
            took < Duration::from_millis(500),
            "P1B over {SLOTS} slots took {took:?}"
        );
    }

    #[test]
    fn spec_sizes_reported_for_table1() {
        let spec = SynodSpec::new(&config());
        assert!(spec.ast_nodes() > 1_000, "nodes = {}", spec.ast_nodes());
        // The relative shape of Table I: Synod is the largest module.
        assert!(
            spec.ast_nodes()
                > crate::TwoThird::new(crate::TwoThirdConfig::new(
                    Loc::first_n(3),
                    vec![Loc::new(100)]
                ))
                .spec()
                .ast_nodes()
        );
    }
}
