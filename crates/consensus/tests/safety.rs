//! Exhaustive safety checking of the consensus protocols.
//!
//! These tests stand in for the paper's Nuprl safety proofs: on small
//! instances, *every* message interleaving (and every loss/crash placement
//! within a budget) is explored, and the protocol invariants are checked in
//! every reachable state. The paper reports that proof attempts caught a
//! deadlock in TwoThird and a bug in an early Synod spec that testing had
//! missed; the corresponding failure-finding power here is demonstrated by
//! the *Paxos Made Live* disk-corruption regression, where the checker
//! finds the agreement violation an amnesiac acceptor causes, and by its
//! watermark twin: an acceptor that forgets below its floor but still
//! accepts there lets a stale leader choose a second value for a slot
//! every replica has delivered.

use shadowdb_consensus::parse_decide;
use shadowdb_consensus::synod::{self, SynodConfig};
use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{Ctx, InterpretedProcess, Msg, Process, SendInstr, Value};
use shadowdb_loe::Loc;
use shadowdb_mck::{explore, Options, Spec, World};
use std::collections::BTreeMap;
use std::hash::Hasher;

/// Agreement + validity over the learner's observations: all decisions for
/// an instance carry the same value, drawn from the proposed set.
fn tt_invariant(proposed: &'static [i64]) -> impl Fn(&World) -> Result<(), String> {
    move |w: &World| {
        let mut decided: BTreeMap<i64, Value> = BTreeMap::new();
        for (_, _, msg) in &w.observations {
            if let Some((inst, v)) = parse_decide(msg) {
                if let Some(prev) = decided.get(&inst) {
                    if *prev != v {
                        return Err(format!(
                            "agreement violated: instance {inst} decided {prev:?} and {v:?}"
                        ));
                    }
                }
                if !proposed.iter().any(|p| Value::Int(*p) == v) {
                    return Err(format!("validity violated: decided unproposed {v:?}"));
                }
                decided.insert(inst, v);
            }
        }
        Ok(())
    }
}

fn tt_member(n: u32) -> Box<dyn Process> {
    let config = TwoThirdConfig::new(Loc::first_n(n), vec![Loc::new(100)]);
    Box::new(InterpretedProcess::compile(&TwoThird::new(config).class()))
}

/// The acceptor as deployed: the specification's compiled form.
fn acceptor() -> Box<dyn Process> {
    Box::new(synod::acceptor().process())
}

/// TwoThird with n = 3 and split proposals: agreement and validity hold in
/// every schedule.
#[test]
fn twothird_agreement_under_all_interleavings() {
    let spec = Spec {
        procs: (0..3).map(|_| tt_member(3)).collect(),
        env: vec![Loc::new(100)],
        init_msgs: vec![
            (Loc::new(0), propose_msg(0, Value::Int(1))),
            (Loc::new(1), propose_msg(0, Value::Int(2))),
            (Loc::new(2), propose_msg(0, Value::Int(1))),
        ],
    };
    let outcome = explore(
        spec,
        Options {
            max_depth: 40,
            max_states: 400_000,
            ..Options::default()
        },
        tt_invariant(&[1, 2]),
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(!outcome.truncated, "state space should be fully explored");
    assert!(outcome.states_visited > 100);
}

/// TwoThird tolerates message loss: safety with a loss budget.
#[test]
fn twothird_safe_under_message_loss() {
    let spec = Spec {
        procs: (0..3).map(|_| tt_member(3)).collect(),
        env: vec![Loc::new(100)],
        init_msgs: vec![
            (Loc::new(0), propose_msg(0, Value::Int(1))),
            (Loc::new(1), propose_msg(0, Value::Int(2))),
            (Loc::new(2), propose_msg(0, Value::Int(2))),
        ],
    };
    let outcome = explore(
        spec,
        Options {
            max_depth: 40,
            max_states: 600_000,
            loss_budget: 2,
            ..Options::default()
        },
        tt_invariant(&[1, 2]),
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
}

/// TwoThird remains safe when one member crashes at any point.
#[test]
fn twothird_safe_under_one_crash() {
    let spec = Spec {
        procs: (0..3).map(|_| tt_member(3)).collect(),
        env: vec![Loc::new(100)],
        init_msgs: vec![
            (Loc::new(0), propose_msg(0, Value::Int(1))),
            (Loc::new(1), propose_msg(0, Value::Int(2))),
            (Loc::new(2), propose_msg(0, Value::Int(1))),
        ],
    };
    let outcome = explore(
        spec,
        Options {
            max_depth: 40,
            max_states: 600_000,
            crash_budget: 1,
            ..Options::default()
        },
        tt_invariant(&[1, 2]),
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
}

/// Synod agreement: one leader, three acceptors, two replicas racing two
/// different commands. Per-slot decisions must be unique across replicas.
#[test]
fn synod_per_slot_agreement_under_all_interleavings() {
    let config = SynodConfig {
        replicas: vec![Loc::new(0), Loc::new(1)],
        leaders: vec![Loc::new(2)],
        acceptors: vec![Loc::new(3), Loc::new(4), Loc::new(5)],
        learners: vec![Loc::new(100)],
    };
    let procs: Vec<Box<dyn Process>> = vec![
        Box::new(synod::replica(&config).process()),
        Box::new(synod::replica(&config).process()),
        Box::new(synod::leader(&config).process()),
        acceptor(),
        acceptor(),
        acceptor(),
    ];
    let spec = Spec {
        procs,
        env: vec![Loc::new(100)],
        init_msgs: vec![
            (Loc::new(2), synod::start_msg()),
            (
                Loc::new(0),
                synod::request_msg(synod::command(Loc::new(0), 0, Value::str("A"))),
            ),
            (
                Loc::new(1),
                synod::request_msg(synod::command(Loc::new(1), 0, Value::str("B"))),
            ),
        ],
    };
    let outcome = explore(
        spec,
        Options {
            max_depth: 26,
            max_states: 250_000,
            ..Options::default()
        },
        |w| {
            let mut decided: BTreeMap<i64, Value> = BTreeMap::new();
            for (_, _, msg) in &w.observations {
                if let Some((slot, v)) = parse_decide(msg) {
                    if let Some(prev) = decided.get(&slot) {
                        if *prev != v {
                            return Err(format!("slot {slot} decided {prev:?} and {v:?}"));
                        }
                    }
                    decided.insert(slot, v);
                }
            }
            Ok(())
        },
    );
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
}

// ---------------------------------------------------------------------------
// The Paxos Made Live disk-corruption regression
// ---------------------------------------------------------------------------

/// An acceptor whose "disk" can be corrupted: on a `corrupt` message it
/// forgets everything (promises and accepted pvalues) but keeps
/// participating — exactly the failure mode of the buggy Google extension
/// described in Sec. II-D of the paper.
struct AmnesiacAcceptor {
    inner: Box<dyn Process>,
}

impl AmnesiacAcceptor {
    fn new() -> AmnesiacAcceptor {
        AmnesiacAcceptor { inner: acceptor() }
    }
}

impl Process for AmnesiacAcceptor {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if msg.header.name() == "corrupt" {
            self.inner = acceptor();
            return;
        }
        self.inner.step_into(ctx, msg, out)
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(AmnesiacAcceptor {
            inner: self.inner.clone(),
        })
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.inner.digest(&mut h);
    }
}

/// Parses either the generic `cs/decide` notification or a raw
/// `px/decision` (the observer in the corruption scenario stands directly
/// in for the replicas).
fn parse_any_decision(msg: &Msg) -> Option<(i64, Value)> {
    if let Some(d) = parse_decide(msg) {
        return Some(d);
    }
    if msg.header.name() == synod::DECISION_HEADER {
        let (slot, cmd) = msg.body.unpair();
        return Some((slot.int(), cmd.clone()));
    }
    None
}

/// Drives an explicit schedule: deliver messages matching `(dest, header)`
/// one at a time, in the given order, keeping undelivered messages pending.
struct Scripted {
    procs: Vec<(Loc, Box<dyn Process>)>,
    pending: Vec<(Loc, Msg)>,
    decisions: Vec<(i64, Value)>,
    learner: Loc,
}

impl Scripted {
    fn deliver_next(&mut self, dest: Loc, header: &str) {
        let pos = self
            .pending
            .iter()
            .position(|(d, m)| *d == dest && m.header.name() == header)
            .unwrap_or_else(|| panic!("no pending {header} for {dest}"));
        let (dest, msg) = self.pending.remove(pos);
        if dest == self.learner {
            if let Some(d) = parse_any_decision(&msg) {
                self.decisions.push(d);
            }
            return;
        }
        let proc = &mut self
            .procs
            .iter_mut()
            .find(|(l, _)| *l == dest)
            .expect("node")
            .1;
        for o in proc.step(&Ctx::at(dest), &msg) {
            if o.dest == self.learner {
                if let Some(d) = parse_any_decision(&o.msg) {
                    self.decisions.push(d);
                }
            } else {
                self.pending.push((o.dest, o.msg));
            }
        }
    }

    /// Delivers all pending messages matching `(dest, header)`.
    fn deliver_all(&mut self, dest: Loc, header: &str) {
        while self
            .pending
            .iter()
            .any(|(d, m)| *d == dest && m.header.name() == header)
        {
            self.deliver_next(dest, header);
        }
    }

    /// Drops all pending messages for a destination (models them still being
    /// in flight, never delivered).
    fn drop_all_for(&mut self, dest: Loc) {
        self.pending.retain(|(d, _)| *d != dest);
    }
}

/// Builds the corruption scenario: 2 leaders (locs 0, 1), 3 acceptors
/// (locs 2, 3, 4 — acceptor 3 amnesiac if `faulty`), decisions observed at
/// loc 100 (the "replicas" are the observer).
fn corruption_scenario(faulty: bool) -> Scripted {
    let config = SynodConfig {
        replicas: vec![Loc::new(100)],
        leaders: vec![Loc::new(0), Loc::new(1)],
        acceptors: vec![Loc::new(2), Loc::new(3), Loc::new(4)],
        learners: vec![Loc::new(100)],
    };
    let mid: Box<dyn Process> = if faulty {
        Box::new(AmnesiacAcceptor::new())
    } else {
        acceptor()
    };
    let procs: Vec<(Loc, Box<dyn Process>)> = vec![
        (Loc::new(0), Box::new(synod::leader(&config).process())),
        (Loc::new(1), Box::new(synod::leader(&config).process())),
        (Loc::new(2), acceptor()),
        (Loc::new(3), mid),
        (Loc::new(4), acceptor()),
    ];
    let (l0, l1, observer) = (Loc::new(0), Loc::new(1), Loc::new(100));
    let pending = vec![
        (l0, synod::start_msg()),
        (l1, synod::start_msg()),
        (l0, synod::propose_msg(observer, 0, 0, Value::str("v1"))),
        (l1, synod::propose_msg(observer, 0, 0, Value::str("v2"))),
        (Loc::new(3), Msg::new("corrupt", Value::Unit)),
    ];
    Scripted {
        procs,
        pending,
        decisions: Vec::new(),
        learner: observer,
    }
}

/// Replays the bug schedule. With a correct acceptor the second leader's
/// phase 1 *sees* the accepted value and re-proposes it, so agreement holds;
/// with the amnesiac acceptor the second quorum {3, 4} has no memory of v1
/// and decides v2 for the same slot.
fn run_corruption_schedule(s: &mut Scripted) {
    let (l0, l1) = (Loc::new(0), Loc::new(1));
    let (a2, a3, a4) = (Loc::new(2), Loc::new(3), Loc::new(4));
    // Leader 0 gets proposal and runs phase 1 with quorum {2, 3}.
    s.deliver_next(l0, synod::START_HEADER);
    s.deliver_next(l0, synod::PROPOSE_HEADER);
    s.deliver_next(a2, synod::P1A_HEADER);
    s.deliver_next(a3, synod::P1A_HEADER);
    s.drop_all_for(a4); // leader 0's p1a to acceptor 4 stays in flight
    s.deliver_all(l0, synod::P1B_HEADER);
    // Phase 2 with the same quorum: v1 is chosen for slot 0.
    s.deliver_next(a2, synod::P2A_HEADER);
    s.deliver_next(a3, synod::P2A_HEADER);
    s.deliver_all(l0, synod::P2B_HEADER);
    assert_eq!(
        s.decisions,
        vec![(0, Value::str("v1"))],
        "v1 must be decided first"
    );
    // Acceptor 3 loses its disk.
    s.deliver_next(a3, "corrupt");
    // Leader 1 wakes up with a higher ballot and quorum {3, 4}.
    s.deliver_next(l1, synod::START_HEADER);
    s.deliver_next(l1, synod::PROPOSE_HEADER);
    s.deliver_next(a3, synod::P1A_HEADER);
    s.deliver_next(a4, synod::P1A_HEADER);
    s.drop_all_for(a2);
    s.deliver_all(l1, synod::P1B_HEADER);
    // Leader 1 is preempted by leader 0's higher-or-equal ballot? No — its
    // ballot (0, loc1) > (0, loc0), so phase 1 succeeds on {3, 4}.
    s.deliver_all(a3, synod::P2A_HEADER);
    s.deliver_all(a4, synod::P2A_HEADER);
    s.deliver_all(l1, synod::P2B_HEADER);
}

#[test]
fn paxos_made_live_corruption_breaks_agreement() {
    let mut s = corruption_scenario(true);
    run_corruption_schedule(&mut s);
    // The amnesiac acceptor lets v2 be decided for slot 0 as well.
    assert_eq!(
        s.decisions,
        vec![(0, Value::str("v1")), (0, Value::str("v2"))],
        "the corruption bug must manifest as two decisions for slot 0"
    );
}

#[test]
fn durable_acceptor_preserves_agreement_on_same_schedule() {
    let mut s = corruption_scenario(false);
    run_corruption_schedule(&mut s);
    // Phase 1 of leader 1 sees v1 accepted at acceptor 3 and re-proposes it.
    assert_eq!(
        s.decisions,
        vec![(0, Value::str("v1")), (0, Value::str("v1"))],
        "with durable promises, slot 0 is re-decided with the same value"
    );
}

// ---------------------------------------------------------------------------
// The delivered watermark: no acceptor helps choose below its floor
// ---------------------------------------------------------------------------

/// A leader from before the watermark: it adopts without reading the floor
/// each P1B carries, so it keeps — and re-proposes — a value for a slot
/// every replica has delivered. (The real leader raises its watermark to
/// those floors and drops the slot; this double is how a P2A below an
/// acceptor's floor can still be sent.)
struct StaleLeader {
    inner: Box<dyn Process>,
}

impl Process for StaleLeader {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if msg.header.name() != synod::P1B_HEADER {
            return self.inner.step_into(ctx, msg, out);
        }
        let (acceptor, rest) = msg.body.unpair();
        let (ballot, rest) = rest.unpair();
        let pvalues = rest.unpair().1.clone();
        let unfloored = Value::pair(ballot.clone(), Value::pair(Value::Int(0), pvalues));
        let body = Value::pair(acceptor.clone(), unfloored);
        self.inner.step_into(ctx, &Msg::new(msg.header, body), out)
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(StaleLeader {
            inner: self.inner.clone(),
        })
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        self.inner.digest(&mut HasherAdapter(hasher));
    }
}

/// A pruning acceptor without the refusal: it keeps a floor and forgets
/// what lies below it — its P1B carries the floor and only the pvalues at
/// or above it — but it still accepts a P2A below the floor. Built as the
/// real acceptor, never shown a watermark, behind a shim that keeps the
/// floor and cuts the P1Bs.
struct AcceptsBelowFloor {
    inner: Box<dyn Process>,
    floor: i64,
}

impl Process for AcceptsBelowFloor {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if msg.header.name() == synod::P2A_HEADER {
            let (w, pvalue) = msg.body.unpair();
            self.floor = self.floor.max(w.int());
            let unwatermarked = Value::pair(Value::Int(0), pvalue.clone());
            return self
                .inner
                .step_into(ctx, &Msg::new(msg.header, unwatermarked), out);
        }
        let mut replies = Vec::new();
        self.inner.step_into(ctx, msg, &mut replies);
        for mut r in replies {
            let (acceptor, rest) = r.msg.body.unpair();
            let (ballot, rest) = rest.unpair();
            let kept = rest
                .unpair()
                .1
                .elems()
                .iter()
                .filter(|pv| pv.unpair().0.int() >= self.floor)
                .cloned()
                .collect::<Vec<_>>();
            let promise = Value::pair(Value::Int(self.floor), Value::list(kept));
            let body = Value::pair(acceptor.clone(), Value::pair(ballot.clone(), promise));
            r.msg = Msg::new(r.msg.header, body);
            out.push(r);
        }
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(AcceptsBelowFloor {
            inner: self.inner.clone(),
            floor: self.floor,
        })
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.inner.digest(&mut h);
        h.write_i64(self.floor);
    }
}

/// The watermark scenario: the real leader 0, the stale leader 1, acceptors
/// 2, 3, 4 (acceptor 3 accepting below its floor if `faulty`), and one
/// replica, the observer at loc 100, whose delivery reports the test
/// injects.
fn watermark_scenario(faulty: bool) -> Scripted {
    let observer = Loc::new(100);
    let config = SynodConfig {
        replicas: vec![observer],
        leaders: vec![Loc::new(0), Loc::new(1)],
        acceptors: vec![Loc::new(2), Loc::new(3), Loc::new(4)],
        learners: vec![observer],
    };
    let mid: Box<dyn Process> = if faulty {
        Box::new(AcceptsBelowFloor {
            inner: acceptor(),
            floor: 0,
        })
    } else {
        acceptor()
    };
    let stale = StaleLeader {
        inner: Box::new(synod::leader(&config).process()),
    };
    let (l0, l1) = (Loc::new(0), Loc::new(1));
    Scripted {
        procs: vec![
            (l0, Box::new(synod::leader(&config).process())),
            (l1, Box::new(stale)),
            (Loc::new(2), acceptor()),
            (Loc::new(3), mid),
            (Loc::new(4), acceptor()),
        ],
        pending: vec![
            (l0, synod::start_msg()),
            (l0, synod::propose_msg(observer, 0, 0, Value::str("v1"))),
            (l0, synod::frontier_msg(observer, 1)),
            (l0, synod::propose_msg(observer, 1, 1, Value::str("v3"))),
            (l1, synod::start_msg()),
            // The replica's proposal of v2 for slot 0, long delayed.
            (l1, synod::propose_msg(observer, 0, 0, Value::str("v2"))),
        ],
        decisions: Vec::new(),
        learner: observer,
    }
}

/// Slot 0 is chosen and delivered; the watermark passes it and acceptors
/// 2 and 3 drop it; then the stale leader gets a ballot adopted on {3, 4}
/// — acceptor 3 no longer shows v1, acceptor 4 never saw it — and sends
/// its old v2 for slot 0.
fn run_watermark_schedule(s: &mut Scripted) {
    let (l0, l1) = (Loc::new(0), Loc::new(1));
    let (a2, a3, a4) = (Loc::new(2), Loc::new(3), Loc::new(4));
    // Leader 0 chooses v1 for slot 0 on {2, 3}; acceptor 4 hears nothing.
    s.deliver_next(l0, synod::START_HEADER);
    s.deliver_next(l0, synod::PROPOSE_HEADER);
    s.deliver_next(a2, synod::P1A_HEADER);
    s.deliver_next(a3, synod::P1A_HEADER);
    s.drop_all_for(a4);
    s.deliver_all(l0, synod::P1B_HEADER);
    s.deliver_next(a2, synod::P2A_HEADER);
    s.deliver_next(a3, synod::P2A_HEADER);
    s.drop_all_for(a4);
    s.deliver_all(l0, synod::P2B_HEADER);
    assert_eq!(s.decisions, vec![(0, Value::str("v1"))]);
    // Every replica has delivered slot 0: the watermark reaches 1 and rides
    // leader 0's next P2A to acceptors 2 and 3, which drop slot 0.
    s.deliver_next(l0, synod::FRONTIER_HEADER);
    s.deliver_next(l0, synod::PROPOSE_HEADER);
    s.deliver_next(a2, synod::P2A_HEADER);
    s.deliver_next(a3, synod::P2A_HEADER);
    s.drop_all_for(a4);
    s.deliver_all(l0, synod::P2B_HEADER);
    // The stale leader's higher ballot is adopted on {3, 4}.
    s.deliver_next(l1, synod::START_HEADER);
    s.deliver_next(l1, synod::PROPOSE_HEADER);
    s.deliver_next(a3, synod::P1A_HEADER);
    s.deliver_next(a4, synod::P1A_HEADER);
    s.drop_all_for(a2);
    s.deliver_all(l1, synod::P1B_HEADER);
    // Its P2As — v2 for slot 0 among them — reach {3, 4}.
    s.deliver_all(a3, synod::P2A_HEADER);
    s.deliver_all(a4, synod::P2A_HEADER);
    s.drop_all_for(a2);
    s.deliver_all(l1, synod::P2B_HEADER);
}

#[test]
fn accepting_below_the_floor_breaks_agreement() {
    let mut s = watermark_scenario(true);
    run_watermark_schedule(&mut s);
    assert_eq!(
        s.decisions,
        vec![
            (0, Value::str("v1")),
            (1, Value::str("v3")),
            (0, Value::str("v2")),
            (1, Value::str("v3")),
        ],
        "an acceptor that accepts below its floor lets v2 be chosen for delivered slot 0"
    );
}

#[test]
fn refusing_below_the_floor_preserves_agreement_on_same_schedule() {
    let mut s = watermark_scenario(false);
    run_watermark_schedule(&mut s);
    // Acceptor 3 refuses slot 0, so v2 gets one acceptance of the two it
    // needs; slot 1 is re-decided with the value it had.
    assert_eq!(
        s.decisions,
        vec![
            (0, Value::str("v1")),
            (1, Value::str("v3")),
            (1, Value::str("v3")),
        ],
    );
}
