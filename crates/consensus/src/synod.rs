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
//! **Command identity.** A command is `<origin, <cid, op>>` ([`command`]):
//! `origin` names who issued it and `cid` is that origin's own counter, so
//! `(origin, cid)` identifies the command without looking at `op` — the
//! paper's "sequence number of the last transaction submitted by each
//! client", PMMC's `⟨κ, cid, op⟩`, and exactly the
//! `<proposer, <batchid, entries>>` batch a broadcast server submits. A
//! replica never proposes a command twice; it knows a command was decided
//! from a per-origin [`SeenIds`] detector noted as decisions arrive, not
//! from the decisions themselves, so it keeps only the decisions it has
//! not delivered yet and its state stays O(window) however long it runs.
//! (Acceptors' accepted pvalues and leaders' proposals still grow with the
//! slots decided; forgetting those safely needs a decided watermark.)
//!
//! Like the promise, the detector must not be contradicted by an origin
//! that forgets: an origin that restarted with `cid` = 0 would find its
//! new commands at or below the floor swallowed as already decided (the
//! broadcast service treats a client that restarts its msgids the same
//! way). Nothing restarts a broadcast server with amnesia today — crashed
//! ones stay down — and `reused_origin_ids_below_the_floor_are_swallowed`
//! pins the behaviour for whoever adds that.
//!
//! Decisions are announced to learners with the crate-level
//! [`DECIDE_HEADER`] `(slot, command)` notification,
//! the same interface TwoThird uses — which is what lets the broadcast
//! service switch between consensus modules.
//!
//! [`DECIDE_HEADER`]: crate::DECIDE_HEADER

use crate::dedup::SeenIds;
use crate::vmap;
use crate::{decide_body, DECIDE_HEADER};
use shadowdb_eventml::patterns::{Mealy, MealyState};
use shadowdb_eventml::{cached_header, Header, Msg, SendInstr, Spec, Value};
use shadowdb_loe::Loc;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Client request to a replica: body `<origin, <cid, op>>`, a [`command`].
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

/// Builds the command `<origin, <cid, op>>`: `cid` is `origin`'s own
/// counter, and the pair identifies the command (see the module docs).
pub fn command(origin: Loc, cid: i64, op: Value) -> Value {
    Value::pair(Value::Loc(origin), Value::pair(Value::Int(cid), op))
}

/// The `(origin, cid)` identity of a [`command`].
fn command_id(cmd: &Value) -> (Loc, i64) {
    let (origin, rest) = cmd.unpair();
    (origin.loc(), rest.unpair().0.int())
}

/// Builds a client request message carrying a [`command`].
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

/// Replica state, encoded
/// `<slot_in, <slot_out, <proposals, <decisions, decided>>>>`.
#[derive(Clone, Debug)]
pub struct ReplicaState {
    /// Next slot this replica will propose into.
    slot_in: i64,
    /// Next slot to deliver.
    slot_out: i64,
    /// slot -> cmd, our outstanding proposals.
    proposals: BTreeMap<i64, Value>,
    /// slot -> cmd, decided and not yet delivered: slots `>= slot_out` only.
    decisions: BTreeMap<i64, Value>,
    /// origin -> the cids of every command a decision has arrived for.
    decided: BTreeMap<Loc, SeenIds>,
}

impl MealyState for ReplicaState {
    fn encode(&self) -> Value {
        let decided = Value::list(
            self.decided
                .iter()
                .map(|(origin, seen)| Value::pair(Value::Loc(*origin), seen.to_value())),
        );
        Value::pair(
            Value::Int(self.slot_in),
            Value::pair(
                Value::Int(self.slot_out),
                Value::pair(
                    slots_value(&self.proposals, Value::clone),
                    Value::pair(slots_value(&self.decisions, Value::clone), decided),
                ),
            ),
        )
    }

    fn decode(v: &Value) -> ReplicaState {
        let (slot_in, rest) = v.unpair();
        let (slot_out, rest) = rest.unpair();
        let (proposals, rest) = rest.unpair();
        let (decisions, decided) = rest.unpair();
        ReplicaState {
            slot_in: slot_in.int(),
            slot_out: slot_out.int(),
            proposals: slots_from(proposals, Value::clone),
            decisions: slots_from(decisions, Value::clone),
            decided: vmap::iter(decided)
                .map(|(origin, seen)| (origin.loc(), SeenIds::from_value(seen)))
                .collect(),
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
        decided: BTreeMap::new(),
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
    let (origin, cid) = command_id(cmd);
    if st.decided.get(&origin).is_some_and(|d| d.contains(cid)) {
        return;
    }
    // Skip slots already used: every slot below `slot_out` is decided.
    st.slot_in = st.slot_in.max(st.slot_out);
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
        let id = command_id(body);
        if !st.proposals.values().any(|c| command_id(c) == id) {
            propose(config, st, body, outs);
        }
    } else {
        // DECISION. One for a slot already delivered is late and ignored.
        let (slot, cmd) = body.unpair();
        if slot.int() >= st.slot_out {
            let entry = st.decisions.entry(slot.int());
            if let std::collections::btree_map::Entry::Vacant(e) = entry {
                e.insert(cmd.clone());
                let (origin, cid) = command_id(cmd);
                st.decided.entry(origin).or_default().note(cid);
            }
        }
        // Deliver in slot order, re-proposing our commands that lost
        // their slot to someone else's command.
        while let Some(decided) = st.decisions.remove(&st.slot_out) {
            let slot = st.slot_out;
            st.slot_out += 1;
            if let Some(ours) = st.proposals.remove(&slot) {
                if command_id(&ours) != command_id(&decided) {
                    propose(config, st, &ours, outs);
                }
            }
            let body = decide_body(slot, &decided);
            send_all(&config.learners, cached_header!(DECIDE_HEADER), body, outs);
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

    /// The broadcast server co-located with replica 0, the origin of the
    /// commands these tests submit.
    const ORIGIN: Loc = Loc::new(9);

    /// `ORIGIN`'s `cid`-th command.
    fn cmd(cid: i64) -> Value {
        command(ORIGIN, cid, Value::Int(cid * 7))
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
            net.inject(cfg.replicas[0], request_msg(cmd(i)));
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
            net.inject(cfg.replicas[0], request_msg(cmd(0)));
            net.run();
            assert_eq!(net.decisions, vec![(0, cmd(0))], "{form:?}");
        }
    }

    #[test]
    fn orders_many_commands_gaplessly() {
        for form in FORMS {
            let cfg = config();
            let decisions = ten_commands(Net::new(&cfg, form), &cfg);
            let slots: Vec<i64> = decisions.iter().map(|(s, _)| *s).collect();
            assert_eq!(slots, (0..10).collect::<Vec<_>>(), "{form:?}");
            let cmds: BTreeSet<i64> = decisions.iter().map(|(_, c)| command_id(c).1).collect();
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
            net.inject(cfg.replicas[0], request_msg(cmd(0)));
            net.run();
            assert!(net.decisions.is_empty(), "{form:?}: no active leader yet");
            net.inject(cfg.leaders[0], start_msg());
            net.run();
            assert_eq!(net.decisions, vec![(0, cmd(0))], "{form:?}");
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
                net.inject(cfg.replicas[0], request_msg(cmd(i)));
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
            let decided: BTreeSet<i64> = by_slot.values().map(|c| command_id(c).1).collect();
            assert_eq!(decided, (0..3).collect(), "{form:?}");
        }
    }

    #[test]
    fn duplicate_request_not_decided_twice() {
        for form in FORMS {
            let cfg = config();
            let mut net = Net::new(&cfg, form);
            net.inject(cfg.leaders[0], start_msg());
            net.inject(cfg.replicas[0], request_msg(cmd(0)));
            net.run();
            net.inject(cfg.replicas[0], request_msg(cmd(0)));
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

    /// The replica's own stationarity, beside the acceptor's one-pass
    /// promise: after 50 000 slots decided and delivered in order a step
    /// costs what it cost at slot 0, and the state — typed and encoded, so
    /// the interpreted and fused forms too — holds the undelivered window
    /// and one bounded detector per origin, not the history. What still
    /// grows with the slots decided is the acceptors' `accepted` and the
    /// leaders' `proposals`; forgetting those needs the decided watermark
    /// of ROADMAP item 1b.
    #[test]
    fn replica_steps_and_state_stay_flat_after_50k_slots() {
        const SLOTS: i64 = 50_000;
        let cfg = config();
        let ctx = Ctx::at(cfg.replicas[0]);
        let mut replica = replica(&cfg).process();
        let mut outs = Vec::new();
        let decision =
            |slot: i64, c: Value| Msg::new(DECISION_HEADER, Value::pair(Value::Int(slot), c));
        for slot in 0..SLOTS {
            // Two origins: ours through request + decision, a foreign one
            // through its decisions alone.
            let c = if slot % 2 == 0 {
                replica.step_into(&ctx, &request_msg(cmd(slot / 2)), &mut outs);
                cmd(slot / 2)
            } else {
                command(Loc::new(8), slot / 2, Value::Unit)
            };
            replica.step_into(&ctx, &decision(slot, c), &mut outs);
            outs.clear();
        }
        let fresh = request_msg(cmd(SLOTS));
        let started = std::time::Instant::now();
        replica.step_into(&ctx, &fresh, &mut outs);
        let request_took = started.elapsed();
        assert_eq!(outs.len(), 1, "a fresh command is proposed");
        assert_eq!(outs[0].msg.body.unpair().0.int(), SLOTS);
        let started = std::time::Instant::now();
        replica.step_into(&ctx, &decision(SLOTS, cmd(SLOTS)), &mut outs);
        let decision_took = started.elapsed();
        assert_eq!(outs.len(), 2, "and delivered when decided");
        for took in [request_took, decision_took] {
            assert!(took < Duration::from_millis(1), "a step took {took:?}");
        }
        // A command decided 50 000 slots ago is still known.
        outs.clear();
        replica.step_into(&ctx, &request_msg(cmd(0)), &mut outs);
        assert!(outs.is_empty());

        // What the interpreted and fused forms decode on every step.
        let state = replica.state().encode();
        let decoded = ReplicaState::decode(&state);
        assert_eq!(decoded.proposals.len() + decoded.decisions.len(), 0);
        assert_eq!(decoded.decided.len(), 2, "one detector per origin");
        for seen in decoded.decided.values() {
            let ids_above_floor = seen.to_value().unpair().1.elems().len();
            assert!(ids_above_floor <= crate::dedup::DEDUP_WINDOW);
        }
        assert!(shadowdb_eventml::codec::encoded_len(&state) < 256);
    }

    /// Identity dedup trusts an origin never to reuse a `cid`. One that
    /// restarted with amnesia — its counter back at 0 — gets its new
    /// commands swallowed as already decided while they are at or below the
    /// detector's floor, exactly as the broadcast service swallows a client
    /// that restarts its msgids. Nothing restarts an origin that way today;
    /// this pins what such a change would meet.
    #[test]
    fn reused_origin_ids_below_the_floor_are_swallowed() {
        let cfg = config();
        let ctx = Ctx::at(cfg.replicas[0]);
        let mut replica = replica(&cfg).process();
        for cid in 0..3 {
            replica.step(&ctx, &request_msg(cmd(cid)));
            let body = Value::pair(Value::Int(cid), cmd(cid));
            replica.step(&ctx, &Msg::new(DECISION_HEADER, body));
        }
        // The restarted origin's first command: a different op under a
        // used identity.
        let reborn = command(ORIGIN, 0, Value::str("after restart"));
        assert!(replica.step(&ctx, &request_msg(reborn)).is_empty());
        // Past the floor its commands are proposed again.
        let outs = replica.step(&ctx, &request_msg(cmd(3)));
        assert_eq!(outs.len(), 1);
    }

    // -----------------------------------------------------------------
    // Dedup equivalence: the whole safety argument of command identity
    // -----------------------------------------------------------------

    /// The replica as it was before command identity, kept as the
    /// reference: every decision ever made stays in `decisions`, and
    /// whether a command was decided is answered by `is_decided` over them.
    #[derive(Clone)]
    struct ScanReplica {
        slot_in: i64,
        slot_out: i64,
        proposals: BTreeMap<i64, Value>,
        decisions: BTreeMap<i64, Value>,
        is_decided: fn(&BTreeMap<i64, Value>, &Value) -> bool,
    }

    /// The reference predicate: compare the command against every decision.
    fn by_value_scan(decisions: &BTreeMap<i64, Value>, cmd: &Value) -> bool {
        decisions.values().any(|c| c == cmd)
    }

    /// The broken predicate: a per-origin high-water mark. Ids of one
    /// origin are decided out of order (a window of batches is in consensus
    /// at once), and the mark calls the stragglers decided.
    fn by_high_water_mark(decisions: &BTreeMap<i64, Value>, cmd: &Value) -> bool {
        let (origin, cid) = command_id(cmd);
        decisions
            .values()
            .map(command_id)
            .any(|(o, decided)| o == origin && decided >= cid)
    }

    impl ScanReplica {
        fn new(is_decided: fn(&BTreeMap<i64, Value>, &Value) -> bool) -> ScanReplica {
            ScanReplica {
                slot_in: 0,
                slot_out: 0,
                proposals: BTreeMap::new(),
                decisions: BTreeMap::new(),
                is_decided,
            }
        }

        fn propose(&mut self, config: &SynodConfig, cmd: &Value, outs: &mut Vec<SendInstr>) {
            if (self.is_decided)(&self.decisions, cmd) {
                return;
            }
            while self.proposals.contains_key(&self.slot_in)
                || self.decisions.contains_key(&self.slot_in)
            {
                self.slot_in += 1;
            }
            self.proposals.insert(self.slot_in, cmd.clone());
            let body = Value::pair(Value::Int(self.slot_in), cmd.clone());
            send_all(&config.leaders, cached_header!(PROPOSE_HEADER), body, outs);
        }

        fn step(&mut self, config: &SynodConfig, msg: &Msg) -> Vec<SendInstr> {
            let mut outs = Vec::new();
            if msg.header == cached_header!(REQUEST_HEADER) {
                if !self.proposals.values().any(|c| *c == msg.body) {
                    self.propose(config, &msg.body, &mut outs);
                }
            } else {
                let (slot, cmd) = msg.body.unpair();
                self.decisions
                    .entry(slot.int())
                    .or_insert_with(|| cmd.clone());
                while let Some(decided) = self.decisions.get(&self.slot_out).cloned() {
                    if let Some(ours) = self.proposals.remove(&self.slot_out) {
                        if ours != decided {
                            self.propose(config, &ours, &mut outs);
                        }
                    }
                    let body = decide_body(self.slot_out, &decided);
                    send_all(
                        &config.learners,
                        cached_header!(DECIDE_HEADER),
                        body,
                        &mut outs,
                    );
                    self.slot_out += 1;
                }
            }
            outs
        }
    }

    /// How far one origin's ids run ahead of each other in the streams.
    const ID_WINDOW: i64 = 8;

    /// Hands out one origin's ids, each once, out of order within
    /// [`ID_WINDOW`] of the lowest not yet handed out.
    #[derive(Default)]
    struct Ids {
        base: i64,
        used: BTreeSet<i64>,
    }

    impl Ids {
        fn pick(&mut self, choice: u8) -> i64 {
            let free: Vec<i64> = (self.base..self.base + ID_WINDOW)
                .filter(|id| !self.used.contains(id))
                .collect();
            let id = free[choice as usize % free.len()];
            self.used.insert(id);
            while self.used.remove(&self.base) {
                self.base += 1;
            }
            id
        }
    }

    /// What a stream exercised (summed over streams by the coverage test).
    #[derive(Default, Debug)]
    struct Coverage {
        duplicate_requests: usize,
        reordered_ids: usize,
        lost_slots: usize,
        reordered_decisions: usize,
        late_decisions: usize,
    }

    impl Coverage {
        fn cases(&self) -> [(&'static str, usize); 5] {
            [
                ("duplicate requests", self.duplicate_requests),
                ("ids out of order", self.reordered_ids),
                ("lost slots", self.lost_slots),
                ("decisions out of order", self.reordered_decisions),
                ("late decisions", self.late_decisions),
            ]
        }
    }

    /// Drives the shipped replica and `double` with the stream `actions`
    /// spell out — each action a `(kind, choice)` pair read against what
    /// the replica has proposed so far — and reports the first step at
    /// which their outputs differ.
    fn drive(actions: &[(u8, u8)], mut double: ScanReplica) -> Result<Coverage, String> {
        let cfg = config();
        let ctx = Ctx::at(cfg.replicas[0]);
        let mut shipped = replica(&cfg).process();
        let foreign = [Loc::new(7), Loc::new(8)];
        let mut ids: BTreeMap<Loc, Ids> = BTreeMap::new();
        let mut requested: Vec<Value> = Vec::new();
        // slot -> our command proposed there; slot -> what it decided.
        let mut proposed: BTreeMap<i64, Value> = BTreeMap::new();
        let mut decided: BTreeMap<i64, Value> = BTreeMap::new();
        // Our commands that lost a slot already: losing twice in a row
        // could hold one id open past the detector's window.
        let mut lost_once: BTreeSet<Value> = BTreeSet::new();
        let mut delivered = 0;
        let mut cover = Coverage::default();
        for (step, (kind, choice)) in actions.iter().copied().enumerate() {
            let msg = match kind {
                0 | 1 if proposed.len() < ID_WINDOW as usize => {
                    let ids = ids.entry(ORIGIN).or_default();
                    let (base, cid) = (ids.base, ids.pick(choice));
                    cover.reordered_ids += usize::from(cid != base);
                    requested.push(cmd(cid));
                    request_msg(cmd(cid))
                }
                2 if !requested.is_empty() => {
                    cover.duplicate_requests += 1;
                    request_msg(requested[choice as usize % requested.len()].clone())
                }
                3 | 4 => {
                    let open: Vec<i64> =
                        (0..).filter(|s| !decided.contains_key(s)).take(4).collect();
                    let slot = open[choice as usize % 4];
                    cover.reordered_decisions += usize::from(slot != open[0]);
                    let ours = proposed.remove(&slot);
                    let c = match ours {
                        Some(ours) if choice & 4 == 0 || lost_once.contains(&ours) => ours,
                        ours => {
                            if let Some(ours) = ours {
                                cover.lost_slots += 1;
                                lost_once.insert(ours);
                            }
                            let origin = foreign[(choice >> 3) as usize % 2];
                            let cid = ids.entry(origin).or_default().pick(choice >> 4);
                            command(origin, cid, Value::Int(cid))
                        }
                    };
                    decided.insert(slot, c.clone());
                    Msg::new(DECISION_HEADER, Value::pair(Value::Int(slot), c))
                }
                5 if !decided.is_empty() => {
                    let (slot, c) = decided
                        .iter()
                        .nth(choice as usize % decided.len())
                        .expect("in range");
                    cover.late_decisions += usize::from(*slot < delivered);
                    Msg::new(DECISION_HEADER, Value::pair(Value::Int(*slot), c.clone()))
                }
                _ => continue,
            };
            let expected = double.step(&cfg, &msg);
            let got = shipped.step(&ctx, &msg);
            if got != expected {
                return Err(format!(
                    "step {step}, {msg:?}: shipped {got:?}, reference {expected:?}"
                ));
            }
            for o in &got {
                let (slot, c) = o.msg.body.unpair();
                if o.msg.header == cached_header!(PROPOSE_HEADER) {
                    proposed.insert(slot.int(), c.clone());
                } else {
                    delivered = slot.int() + 1;
                }
            }
        }
        Ok(cover)
    }

    fn arb_actions() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u8)>> {
        proptest::collection::vec((0u8..6, proptest::prelude::any::<u8>()), 1..400)
    }

    fn seeded_actions(seed: u64) -> Vec<(u8, u8)> {
        use proptest::strategy::Strategy;
        arb_actions().new_value(&mut proptest::test_runner::TestRng::from_seed(seed))
    }

    proptest::proptest! {
        /// Identity dedup answers exactly what the value scan answered: over
        /// duplicate requests, duplicate, late and out-of-order decisions,
        /// lost slots and ids out of order within a window, the replica
        /// sends the same messages in the same order at every step.
        #[test]
        fn replica_matches_the_value_scan_reference(actions in arb_actions()) {
            if let Err(divergence) = drive(&actions, ScanReplica::new(by_value_scan)) {
                return Err(proptest::test_runner::TestCaseError::fail(divergence));
            }
        }
    }

    /// The streams reach every case the equivalence is claimed over.
    #[test]
    fn equivalence_streams_cover_every_case() {
        let mut totals = [0; 5];
        for seed in 0..32 {
            let c = drive(&seeded_actions(seed), ScanReplica::new(by_value_scan)).expect("equal");
            for (total, (_, n)) in totals.iter_mut().zip(c.cases()) {
                *total += n;
            }
        }
        for ((what, _), n) in Coverage::default().cases().iter().zip(totals) {
            assert!(n >= 32, "{what}: only {n} over 32 streams");
        }
    }

    /// The broken double: the same harness must tell a high-water-mark
    /// detector — the bug the broadcast service once had — from the real
    /// one, or passing it proves nothing.
    #[test]
    fn high_water_mark_double_is_rejected() {
        let caught = (0..32)
            .filter(|seed| {
                drive(&seeded_actions(*seed), ScanReplica::new(by_high_water_mark)).is_err()
            })
            .count();
        assert!(caught >= 16, "caught on {caught} of 32 streams");
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
