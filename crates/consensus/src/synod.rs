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
//!
//! **The delivered watermark.** A replica's *frontier* is its `slot_out`:
//! every slot below it has been delivered. It rides on every proposal the
//! replica sends, and a replica that delivers [`FRONTIER_EVERY`] slots
//! without proposing sends it on its own ([`FRONTIER_HEADER`]). Every
//! leader keeps the last frontier of each replica of the configuration;
//! their minimum is the leader's watermark `w`, below which it drops its
//! proposals and commanders, and `w` rides on every P2A. An acceptor's
//! `floor` is the largest `w` it has heard: it drops the pvalues below it,
//! refuses to accept below it, and its P1B carries the floor and only the
//! pvalues at or above it — so a leader change costs O(window), not
//! O(history). A leader raises its `w` to every floor a P1B brings.
//! Safety: every slot below any `w` or `floor` has been delivered by every
//! replica, and no acceptor helps choose a value below its floor, so a
//! second value can never be chosen there (`tests/safety.rs` scripts the
//! schedule where an acceptor accepting below its floor breaks agreement).
//! No learner is ever behind `w`, so nothing needs a snapshot to catch up.
//! The limit: a replica that stops reporting — crashed or cut off — pins
//! `w`, and pruning pauses (memory grows as if there were no watermark)
//! until it reports again.
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
/// Replica proposal to leaders: body `<<replica, slot_out>, <slot,
/// command>>`, the proposer's frontier report in front of the proposal.
pub const PROPOSE_HEADER: &str = "px/propose";
/// Replica frontier report to leaders: body `<replica, slot_out>`.
pub const FRONTIER_HEADER: &str = "px/frontier";
/// Commander decision to replicas: body `<slot, command>`.
pub const DECISION_HEADER: &str = "px/decision";
/// Phase-1a: body `<leader, ballot>`.
pub const P1A_HEADER: &str = "px/p1a";
/// Phase-1b: body `<acceptor, <ballot, <floor, accepted-pvalues>>>`, the
/// pvalues at or above `floor` only.
pub const P1B_HEADER: &str = "px/p1b";
/// Phase-2a: body `<w, <leader, <ballot, <slot, command>>>>`, the leader's
/// watermark in front of the pvalue.
pub const P2A_HEADER: &str = "px/p2a";
/// Phase-2b: body `<acceptor, <ballot, slot>>`.
pub const P2B_HEADER: &str = "px/p2b";
/// Kick a leader to run its first scout: body ignored.
pub const START_HEADER: &str = "px/start";
/// Leader-internal backoff timer after preemption.
pub const RESCOUT_HEADER: &str = "px/rescout";

/// Backoff before a preempted leader retries phase 1.
pub const RESCOUT_BACKOFF: Duration = Duration::from_millis(20);

/// A replica that delivers this many slots without proposing reports its
/// frontier to the leaders.
pub const FRONTIER_EVERY: i64 = 64;

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

/// `replica`'s report that it has delivered every slot below `slot_out`.
fn frontier(replica: Loc, slot_out: i64) -> Value {
    Value::pair(Value::Loc(replica), Value::Int(slot_out))
}

/// Builds `replica`'s frontier report to a leader.
pub fn frontier_msg(replica: Loc, slot_out: i64) -> Msg {
    Msg::new(cached_header!(FRONTIER_HEADER), frontier(replica, slot_out))
}

fn proposal_body(replica: Loc, slot_out: i64, slot: i64, command: Value) -> Value {
    Value::pair(
        frontier(replica, slot_out),
        Value::pair(Value::Int(slot), command),
    )
}

/// Builds `replica`'s proposal of `command` for `slot`, sent at frontier
/// `slot_out`.
pub fn propose_msg(replica: Loc, slot_out: i64, slot: i64, command: Value) -> Msg {
    Msg::new(
        cached_header!(PROPOSE_HEADER),
        proposal_body(replica, slot_out, slot, command),
    )
}

/// Drops every entry of a slot-keyed map below `w`, smallest first: an
/// entry is removed once, so pruning costs what inserting it did.
fn prune_below<T>(map: &mut BTreeMap<i64, T>, w: i64) {
    while let Some(first) = map.first_entry() {
        if *first.key() >= w {
            break;
        }
        first.remove();
    }
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

/// Acceptor state, encoded `<ballot, <floor, accepted-pvalues>>`.
#[derive(Clone, Debug)]
pub struct AcceptorState {
    /// The highest ballot promised.
    ballot: Ballot,
    /// The largest watermark heard: every slot below it has been delivered
    /// by every replica. Only rises.
    floor: i64,
    /// Accepted pvalues, at slots `>= floor` only.
    accepted: PValues,
}

impl AcceptorState {
    /// How many pvalues it holds.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }
}

impl MealyState for AcceptorState {
    fn encode(&self) -> Value {
        Value::pair(
            self.ballot.to_value(),
            Value::pair(Value::Int(self.floor), pvalues_value(&self.accepted)),
        )
    }

    fn decode(v: &Value) -> AcceptorState {
        let (ballot, rest) = v.unpair();
        let (floor, accepted) = rest.unpair();
        AcceptorState {
            ballot: Ballot::from_value(ballot),
            floor: floor.int(),
            accepted: pvalues_from(accepted),
        }
    }
}

/// The acceptor role: the protocol's fault-tolerant memory.
pub fn acceptor() -> Mealy<AcceptorState> {
    let init = AcceptorState {
        ballot: Ballot::BOTTOM,
        floor: 0,
        accepted: PValues::new(),
    };
    Mealy::new(
        "acceptor_transition",
        210,
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
        // Reply with the promise, the floor and everything accepted at or
        // above it: the state's own encoding.
        outs.push(SendInstr::now(
            leader.loc(),
            Msg::new(
                cached_header!(P1B_HEADER),
                Value::pair(Value::Loc(slf), st.encode()),
            ),
        ));
    } else {
        // P2A. The watermark is a fact about the replicas, whatever the
        // ballot it came with.
        let (w, rest) = body.unpair();
        if w.int() > st.floor {
            st.floor = w.int();
            prune_below(&mut st.accepted, st.floor);
        }
        let (leader, rest) = rest.unpair();
        let (b, sc) = rest.unpair();
        let (slot, cmd) = sc.unpair();
        if slot.int() < st.floor {
            // Delivered everywhere: help choose nothing there.
            return;
        }
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

/// Leader state, encoded `<round, <active, <<w, frontiers>, <proposals,
/// <scout, commanders>>>>>` with `scout` `<true, <waitfor, pvalues>>`
/// while one runs and `<false, ()>` otherwise.
#[derive(Clone, Debug)]
pub struct LeaderState {
    /// Round of the leader's current ballot `(round, slf)`.
    round: i64,
    active: bool,
    /// The watermark: every slot below it has been delivered by every
    /// replica. Only rises.
    w: i64,
    /// The last frontier each replica of the configuration reported, in
    /// `config.replicas` order.
    frontiers: Vec<i64>,
    /// slot -> command, at slots `>= w` only.
    proposals: BTreeMap<i64, Value>,
    /// The acceptors still awaited and the pvalues gathered so far, while a
    /// scout runs.
    scout: Option<(BTreeSet<Loc>, PValues)>,
    /// slot -> acceptors still awaited, while a commander runs; slots
    /// `>= w` only.
    commanders: BTreeMap<i64, BTreeSet<Loc>>,
}

impl LeaderState {
    fn ballot(&self, slf: Loc) -> Ballot {
        Ballot {
            round: self.round,
            leader: slf,
        }
    }

    /// How many proposals it holds.
    pub fn proposals_len(&self) -> usize {
        self.proposals.len()
    }

    /// Raises the watermark to `w` and forgets what lies below it.
    fn raise_watermark(&mut self, w: i64) {
        if w > self.w {
            self.w = w;
            prune_below(&mut self.proposals, w);
            prune_below(&mut self.commanders, w);
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
        let watermark = Value::pair(
            Value::Int(self.w),
            Value::list(self.frontiers.iter().map(|f| Value::Int(*f))),
        );
        Value::pair(
            Value::Int(self.round),
            Value::pair(
                Value::Bool(self.active),
                Value::pair(
                    watermark,
                    Value::pair(
                        slots_value(&self.proposals, Value::clone),
                        Value::pair(scout, slots_value(&self.commanders, waitfor_value)),
                    ),
                ),
            ),
        )
    }

    fn decode(v: &Value) -> LeaderState {
        let (round, rest) = v.unpair();
        let (active, rest) = rest.unpair();
        let (watermark, rest) = rest.unpair();
        let (w, frontiers) = watermark.unpair();
        let (proposals, rest) = rest.unpair();
        let (scout, commanders) = rest.unpair();
        let (has_scout, sc) = scout.unpair();
        LeaderState {
            round: round.int(),
            active: active.as_bool().expect("bool"),
            w: w.int(),
            frontiers: frontiers.elems().iter().map(Value::int).collect(),
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
        w: 0,
        frontiers: vec![0; config.replicas.len()],
        proposals: BTreeMap::new(),
        scout: None,
        commanders: BTreeMap::new(),
    };
    Mealy::new(
        "leader_transition",
        740,
        &[
            START_HEADER,
            RESCOUT_HEADER,
            PROPOSE_HEADER,
            FRONTIER_HEADER,
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

/// Sends the P2As of `<ballot, slot, cmd>`, behind the watermark `w`.
fn spawn_commander(
    config: &SynodConfig,
    ballot: Ballot,
    w: i64,
    commanders: &mut BTreeMap<i64, BTreeSet<Loc>>,
    slot: i64,
    cmd: &Value,
    outs: &mut Vec<SendInstr>,
) {
    commanders.insert(slot, config.acceptors.iter().copied().collect());
    let body = Value::pair(
        Value::Int(w),
        Value::pair(
            Value::Loc(ballot.leader),
            Value::pair(
                ballot.to_value(),
                Value::pair(Value::Int(slot), cmd.clone()),
            ),
        ),
    );
    send_all(&config.acceptors, cached_header!(P2A_HEADER), body, outs);
}

/// Notes a replica's frontier report `<replica, slot_out>` and raises the
/// watermark to the least frontier reported. A report from outside the
/// configuration changes nothing.
fn note_frontier(config: &SynodConfig, st: &mut LeaderState, report: &Value) {
    let (replica, slot_out) = report.unpair();
    let Some(i) = config.replicas.iter().position(|r| *r == replica.loc()) else {
        return;
    };
    st.frontiers[i] = st.frontiers[i].max(slot_out.int());
    let least = *st.frontiers.iter().min().expect("a reporting replica");
    st.raise_watermark(least);
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
        let (report, proposal) = body.unpair();
        note_frontier(config, st, report);
        let (slot, cmd) = proposal.unpair();
        let slot = slot.int();
        // A slot below the watermark is delivered everywhere already.
        if slot < st.w {
            return;
        }
        if let std::collections::btree_map::Entry::Vacant(e) = st.proposals.entry(slot) {
            e.insert(cmd.clone());
            if st.active {
                spawn_commander(config, our, st.w, &mut st.commanders, slot, cmd, outs);
            }
        }
    } else if header == cached_header!(FRONTIER_HEADER) {
        note_frontier(config, st, body);
    } else if header == cached_header!(P1B_HEADER) {
        let (acceptor, rest) = body.unpair();
        let (b, rest) = rest.unpair();
        let (floor, accepted) = rest.unpair();
        // An acceptor's floor was some leader's watermark: whatever the
        // ballot, every slot below it is delivered everywhere.
        st.raise_watermark(floor.int());
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
                // Adopted: graft pmax(pvals) at or above the watermark over
                // our proposals.
                st.active = true;
                for (slot, (_, cmd)) in pvals.split_off(&st.w) {
                    st.proposals.insert(slot, cmd);
                }
                for (slot, cmd) in &st.proposals {
                    spawn_commander(config, our, st.w, &mut st.commanders, *slot, cmd, outs);
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
/// `<slot_in, <slot_out, <reported, <proposals, <decisions, decided>>>>>`.
#[derive(Clone, Debug)]
pub struct ReplicaState {
    /// Next slot this replica will propose into.
    slot_in: i64,
    /// Next slot to deliver: the replica's frontier.
    slot_out: i64,
    /// The frontier last reported to the leaders.
    reported: i64,
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
                    Value::Int(self.reported),
                    Value::pair(
                        slots_value(&self.proposals, Value::clone),
                        Value::pair(slots_value(&self.decisions, Value::clone), decided),
                    ),
                ),
            ),
        )
    }

    fn decode(v: &Value) -> ReplicaState {
        let (slot_in, rest) = v.unpair();
        let (slot_out, rest) = rest.unpair();
        let (reported, rest) = rest.unpair();
        let (proposals, rest) = rest.unpair();
        let (decisions, decided) = rest.unpair();
        ReplicaState {
            slot_in: slot_in.int(),
            slot_out: slot_out.int(),
            reported: reported.int(),
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
        reported: 0,
        proposals: BTreeMap::new(),
        decisions: BTreeMap::new(),
        decided: BTreeMap::new(),
    };
    Mealy::new(
        "replica_transition",
        350,
        &[REQUEST_HEADER, DECISION_HEADER],
        init,
        move |slf, header, body, st, outs| replica_transition(&config, slf, header, body, st, outs),
    )
}

fn propose(
    config: &SynodConfig,
    slf: Loc,
    st: &mut ReplicaState,
    cmd: &Value,
    outs: &mut Vec<SendInstr>,
) {
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
    st.reported = st.slot_out;
    let body = proposal_body(slf, st.slot_out, st.slot_in, cmd.clone());
    send_all(&config.leaders, cached_header!(PROPOSE_HEADER), body, outs);
}

fn replica_transition(
    config: &SynodConfig,
    slf: Loc,
    header: Header,
    body: &Value,
    st: &mut ReplicaState,
    outs: &mut Vec<SendInstr>,
) {
    if header == cached_header!(REQUEST_HEADER) {
        // Duplicate submissions of an outstanding proposal are no-ops.
        let id = command_id(body);
        if !st.proposals.values().any(|c| command_id(c) == id) {
            propose(config, slf, st, body, outs);
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
                    propose(config, slf, st, &ours, outs);
                }
            }
            let body = decide_body(slot, &decided);
            send_all(&config.learners, cached_header!(DECIDE_HEADER), body, outs);
        }
        // A replica that only learns still reports how far it has come.
        if st.slot_out - st.reported >= FRONTIER_EVERY {
            st.reported = st.slot_out;
            let report = frontier(slf, st.slot_out);
            send_all(
                &config.leaders,
                cached_header!(FRONTIER_HEADER),
                report,
                outs,
            );
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
    use shadowdb_eventml::patterns::MealyProcess;
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

    /// The P2A body of `<ballot, slot, cmd>` behind watermark `w`.
    fn p2a_body(w: i64, ballot: Ballot, slot: i64, cmd: Value) -> Value {
        Value::pair(
            Value::Int(w),
            Value::pair(
                Value::Loc(ballot.leader),
                Value::pair(ballot.to_value(), Value::pair(Value::Int(slot), cmd)),
            ),
        )
    }

    /// The promise carries every pvalue at or above the floor — all of
    /// them while a silent replica pins the watermark — so answering a P1A
    /// must be one pass over the accepted map: rebuilding the association
    /// list one `vmap::set` at a time is a list copy per slot — over 10⁹
    /// element copies at this size — on every leader start, rescout and
    /// failover.
    #[test]
    fn promise_over_many_accepted_slots_is_one_pass() {
        const SLOTS: i64 = 50_000;
        let (slf, leader) = (Loc::new(2), Loc::new(1));
        let ctx = Ctx::at(slf);
        let ballot = Ballot { round: 0, leader };
        let mut acceptor = acceptor().process();
        let mut outs = Vec::new();
        for slot in 0..SLOTS {
            let body = p2a_body(0, ballot, slot, Value::Int(slot * 7));
            outs.clear();
            acceptor.step_into(&ctx, &Msg::new(P2A_HEADER, body), &mut outs);
        }
        let ballot = ballot.to_value();
        let p1a = Msg::new(P1A_HEADER, Value::pair(Value::Loc(leader), ballot.clone()));
        let started = std::time::Instant::now();
        let outs = acceptor.step(&ctx, &p1a);
        let took = started.elapsed();
        let (_, promise) = outs[0].msg.body.unpair();
        let (promised, rest) = promise.unpair();
        let (floor, accepted) = rest.unpair();
        assert_eq!(*promised, ballot);
        assert_eq!(floor.int(), 0);
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
    /// and one bounded detector per origin, not the history. (The leaders'
    /// and acceptors' half is `soak.rs`'s
    /// `synod_state_is_bounded_over_a_long_run`.)
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
        let (report, proposal) = outs[0].msg.body.unpair();
        assert_eq!(proposal.unpair().0.int(), SLOTS);
        assert_eq!(*report, frontier(cfg.replicas[0], SLOTS));
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
    /// It reports its frontier as the shipped replica does.
    #[derive(Clone)]
    struct ScanReplica {
        slot_in: i64,
        slot_out: i64,
        reported: i64,
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
                reported: 0,
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
            self.reported = self.slot_out;
            let msg = propose_msg(config.replicas[0], self.slot_out, self.slot_in, cmd.clone());
            send_all(&config.leaders, msg.header, msg.body, outs);
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
                    let slot = self.slot_out;
                    self.slot_out += 1;
                    if let Some(ours) = self.proposals.remove(&slot) {
                        if ours != decided {
                            self.propose(config, &ours, &mut outs);
                        }
                    }
                    let body = decide_body(slot, &decided);
                    send_all(
                        &config.learners,
                        cached_header!(DECIDE_HEADER),
                        body,
                        &mut outs,
                    );
                }
                if self.slot_out - self.reported >= FRONTIER_EVERY {
                    self.reported = self.slot_out;
                    let msg = frontier_msg(config.replicas[0], self.slot_out);
                    send_all(&config.leaders, msg.header, msg.body, &mut outs);
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
                if o.msg.header == cached_header!(PROPOSE_HEADER) {
                    let (slot, c) = o.msg.body.unpair().1.unpair();
                    proposed.insert(slot.int(), c.clone());
                } else if o.msg.header == cached_header!(DECIDE_HEADER) {
                    delivered = o.msg.body.unpair().0.int() + 1;
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

    // -----------------------------------------------------------------
    // The watermark, one transition at a time
    // -----------------------------------------------------------------

    /// The leader under test (loc 3) and three acceptors (5–7), stepped by
    /// a property's actions. The three replicas (0–2) and a foreign leader
    /// (4) are the environment, and say only what a run could: a replica
    /// reports at most how far it has come (now and then an older report,
    /// overtaken on the way), and the foreign leader's watermark is at most
    /// the least of those.
    struct Watermarked {
        cfg: SynodConfig,
        leader: MealyProcess<LeaderState>,
        acceptors: Vec<MealyProcess<AcceptorState>>,
        in_flight: Vec<(Loc, Msg)>,
        /// How far each replica has come and reported.
        reported: Vec<i64>,
        cover: WatermarkCoverage,
    }

    /// What a stream exercised.
    #[derive(Default, Debug)]
    struct WatermarkCoverage {
        adoptions: usize,
        leader_prunes: usize,
        acceptor_prunes: usize,
        refused_p2as: usize,
        floored_p1bs: usize,
    }

    impl Watermarked {
        fn new() -> Watermarked {
            let cfg = SynodConfig {
                replicas: (0..3).map(Loc::new).collect(),
                leaders: vec![Loc::new(3), Loc::new(4)],
                acceptors: (5..8).map(Loc::new).collect(),
                learners: vec![Loc::new(100)],
            };
            Watermarked {
                leader: leader(&cfg).process(),
                acceptors: (0..3).map(|_| acceptor().process()).collect(),
                cfg,
                in_flight: Vec::new(),
                reported: vec![0; 3],
                cover: WatermarkCoverage::default(),
            }
        }

        fn least_reported(&self) -> i64 {
            *self.reported.iter().min().expect("replicas")
        }

        /// Takes one action and checks the invariants of whatever stepped.
        fn act(&mut self, kind: u8, a: u8, b: u8) -> Result<(), String> {
            let least = self.least_reported();
            // Slots from a little below the watermark to a window above it.
            let near = |x: u8| (least - 4 + i64::from(x % 16)).max(0);
            let me = self.cfg.leaders[0];
            let foreign = Ballot {
                round: i64::from(b % 3),
                leader: self.cfg.leaders[1],
            };
            match kind {
                0 => {
                    let r = usize::from(a % 3);
                    self.reported[r] += i64::from(b % 8);
                    let f = if b >= 0xc0 {
                        (self.reported[r] - 9).max(0)
                    } else {
                        self.reported[r]
                    };
                    self.in_flight
                        .push((me, frontier_msg(Loc::new(r as u32), f)));
                }
                1 => {
                    let r = usize::from(a % 3);
                    let c = command(Loc::new(r as u32), i64::from(b), Value::Int(i64::from(b)));
                    let msg = propose_msg(Loc::new(r as u32), self.reported[r], near(b), c);
                    self.in_flight.push((me, msg));
                }
                2 => {
                    let kick = if a.is_multiple_of(2) {
                        start_msg()
                    } else {
                        Msg::new(RESCOUT_HEADER, Value::Unit)
                    };
                    self.in_flight.push((me, kick));
                }
                3 => {
                    let body = Value::pair(Value::Loc(foreign.leader), foreign.to_value());
                    let dest = self.cfg.acceptors[usize::from(a % 3)];
                    self.in_flight.push((dest, Msg::new(P1A_HEADER, body)));
                }
                4 => {
                    let w = (least - i64::from(a % 4)).max(0);
                    let body = p2a_body(w, foreign, near(a / 4), Value::Int(i64::from(b)));
                    let dest = self.cfg.acceptors[usize::from(b % 3)];
                    self.in_flight.push((dest, Msg::new(P2A_HEADER, body)));
                }
                5 if !self.in_flight.is_empty() => {
                    // Lost on the way.
                    let i = usize::from(a) % self.in_flight.len();
                    self.in_flight.swap_remove(i);
                }
                _ if !self.in_flight.is_empty() => {
                    let i = usize::from(a) % self.in_flight.len();
                    let (dest, msg) = self.in_flight.swap_remove(i);
                    self.deliver(dest, &msg)?;
                }
                _ => {}
            }
            Ok(())
        }

        fn deliver(&mut self, dest: Loc, msg: &Msg) -> Result<(), String> {
            let ctx = Ctx::at(dest);
            let outs = if dest == self.cfg.leaders[0] {
                let (active, held) = (
                    self.leader.state().active,
                    self.leader.state().proposals_len(),
                );
                let outs = self.leader.step(&ctx, msg);
                let st = self.leader.state();
                self.cover.adoptions += usize::from(!active && st.active);
                self.cover.leader_prunes += usize::from(st.proposals_len() < held);
                check_leader(st, &self.reported)?;
                outs
            } else {
                let i = self
                    .cfg
                    .acceptors
                    .iter()
                    .position(|a| *a == dest)
                    .expect("acceptor");
                let before = self.acceptors[i].state().clone();
                let outs = self.acceptors[i].step(&ctx, msg);
                let st = self.acceptors[i].state();
                self.cover.acceptor_prunes +=
                    usize::from(st.accepted_len() < before.accepted_len());
                self.cover.refused_p2as +=
                    usize::from(msg.header == cached_header!(P2A_HEADER) && outs.is_empty());
                self.cover.floored_p1bs +=
                    usize::from(msg.header == cached_header!(P1A_HEADER) && st.floor > 0);
                check_acceptor(before.floor, st, &outs)?;
                outs
            };
            for o in outs {
                if o.dest == self.cfg.leaders[0] || self.cfg.acceptors.contains(&o.dest) {
                    self.in_flight.push((o.dest, o.msg));
                }
            }
            Ok(())
        }
    }

    /// An acceptor's floor never falls, nothing below it is kept, no P2B
    /// answers a slot below it, and a P1B carries no pvalue below the floor
    /// it reports.
    fn check_acceptor(
        floor_before: i64,
        st: &AcceptorState,
        outs: &[SendInstr],
    ) -> Result<(), String> {
        if st.floor < floor_before {
            return Err(format!("floor fell from {floor_before} to {}", st.floor));
        }
        if let Some(slot) = st.accepted.keys().next().filter(|s| **s < st.floor) {
            return Err(format!("slot {slot} kept below floor {}", st.floor));
        }
        for o in outs {
            let (_, reply) = o.msg.body.unpair();
            if o.msg.header == cached_header!(P2B_HEADER) {
                let slot = reply.unpair().1.int();
                if slot < st.floor {
                    return Err(format!("P2B for slot {slot} below floor {}", st.floor));
                }
            } else {
                let (floor, pvals) = reply.unpair().1.unpair();
                if let Some((slot, _)) = vmap::iter(pvals).find(|(s, _)| s.int() < floor.int()) {
                    return Err(format!("P1B pvalue at {slot:?} below its floor {floor:?}"));
                }
            }
        }
        Ok(())
    }

    /// A leader keeps no proposal or commander below its watermark, and the
    /// watermark is no higher than any replica has reported.
    fn check_leader(st: &LeaderState, reported: &[i64]) -> Result<(), String> {
        let first = [st.proposals.keys().next(), st.commanders.keys().next()];
        if let Some(slot) = first.into_iter().flatten().find(|s| **s < st.w) {
            return Err(format!("slot {slot} kept below watermark {}", st.w));
        }
        if let Some(r) = reported.iter().position(|f| st.w > *f) {
            return Err(format!(
                "watermark {} above replica {r}'s {reported:?}",
                st.w
            ));
        }
        Ok(())
    }

    fn arb_watermark_actions() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u8, u8)>> {
        use proptest::prelude::any;
        proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..400)
    }

    fn run_watermarked(actions: &[(u8, u8, u8)]) -> Result<WatermarkCoverage, String> {
        let mut world = Watermarked::new();
        for (step, (kind, a, b)) in actions.iter().copied().enumerate() {
            world
                .act(kind, a, b)
                .map_err(|e| format!("step {step}: {e}"))?;
        }
        Ok(world.cover)
    }

    proptest::proptest! {
        /// Every transition of a leader and of an acceptor preserves the
        /// watermark invariants, over frontier reports (stale ones too),
        /// proposals below and above the watermark, phase 1 and 2 from a
        /// competing leader, lost messages and any delivery order.
        #[test]
        fn watermark_invariants_hold_after_every_step(actions in arb_watermark_actions()) {
            if let Err(violation) = run_watermarked(&actions) {
                return Err(proptest::test_runner::TestCaseError::fail(violation));
            }
        }
    }

    /// The streams adopt, prune on both sides, refuse P2As below a floor
    /// and carry floors in P1Bs — the transitions the property is about.
    #[test]
    fn watermark_streams_cover_every_case() {
        use proptest::strategy::Strategy;
        let mut totals = WatermarkCoverage::default();
        for seed in 0..32 {
            let mut rng = proptest::test_runner::TestRng::from_seed(seed);
            let actions = arb_watermark_actions().new_value(&mut rng);
            let c = run_watermarked(&actions).expect("invariants hold");
            totals.adoptions += c.adoptions;
            totals.leader_prunes += c.leader_prunes;
            totals.acceptor_prunes += c.acceptor_prunes;
            totals.refused_p2as += c.refused_p2as;
            totals.floored_p1bs += c.floored_p1bs;
        }
        let WatermarkCoverage {
            adoptions,
            leader_prunes,
            acceptor_prunes,
            refused_p2as,
            floored_p1bs,
        } = totals;
        for (what, n) in [
            ("adoptions", adoptions),
            ("leader prunes", leader_prunes),
            ("acceptor prunes", acceptor_prunes),
            ("refused P2As", refused_p2as),
            ("P1Bs with a floor", floored_p1bs),
        ] {
            assert!(n >= 16, "{what}: only {n} over 32 streams");
        }
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
