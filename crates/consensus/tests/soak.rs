//! Randomized soak tests: consensus under jittered schedules and loss.
//!
//! The exhaustive checks in `safety.rs` cover small instances completely;
//! these runs cover *larger* instances (more members, many instances,
//! message loss for TwoThird) across many random schedules — the
//! "run and test before proving" half of the paper's workflow.

use parking_lot::Mutex;
use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_consensus::{parse_decide, synod};
use shadowdb_eventml::patterns::{MealyProcess, MealyState};
use shadowdb_eventml::{Ctx, FnProcess, InterpretedProcess, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{FaultPlan, LinkFault, LinkSel};
use shadowdb_simnet::{Latency, NetworkConfig, SimBuilder};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type DecisionLog = Arc<Mutex<Vec<(i64, Value)>>>;

fn learner(log: DecisionLog) -> Box<dyn Process> {
    Box::new(FnProcess::new(0u8, move |_s, _c: &Ctx, m: &Msg| {
        if let Some(d) = parse_decide(m) {
            log.lock().push(d);
        }
        vec![]
    }))
}

/// The `i`-th command of a run, issued by `origin` as its `cid`-th.
fn command(origin: Loc, cid: i64, i: i64) -> Value {
    synod::command(origin, cid, Value::Int(i))
}

/// The run-wide index a [`command`] carries.
fn index_of(command: &Value) -> i64 {
    command.unpair().1.unpair().1.int()
}

fn jittery() -> NetworkConfig {
    NetworkConfig {
        latency: Latency::Jittered {
            base: Duration::from_micros(50),
            jitter: Duration::from_micros(800),
        },
        faults: Default::default(),
    }
}

/// n = 7 TwoThird members (f ≤ 2), 20 instances, 10 % message loss, many
/// seeds: every instance decides exactly one value per learner observation,
/// and it is one of the proposals.
#[test]
fn twothird_seven_members_with_loss() {
    for seed in 0..6 {
        let log: DecisionLog = Arc::new(Mutex::new(Vec::new()));
        let learner_loc = Loc::new(0);
        let members: Vec<Loc> = (1..8).map(Loc::new).collect();
        // Background loss on every link between the run's locations.
        let mut net = jittery();
        let everyone: Vec<Loc> = (0..8).map(Loc::new).collect();
        let all = LinkSel::Between(everyone.clone(), everyone);
        let lossy = LinkFault::lossy(0.10);
        net.faults = FaultPlan::new(seed).with_rule(all, VTime::ZERO, VTime::MAX, lossy);
        let mut sim = SimBuilder::new(500 + seed).network(net).build();
        sim.add_node(learner(log.clone()));
        let config = TwoThirdConfig::new(members.clone(), vec![learner_loc]).with_auto_adopt();
        let class = TwoThird::new(config).class();
        for m in &members {
            let loc = sim.add_node(Box::new(InterpretedProcess::compile(&class)));
            assert_eq!(loc, *m);
        }
        for inst in 0..20 {
            for (k, m) in members.iter().enumerate() {
                // Loss means retransmission matters: members re-propose by
                // injection at staggered times.
                sim.send_at(
                    VTime::from_millis(inst as u64 * 5),
                    *m,
                    propose_msg(inst, Value::Int(inst * 100 + (k as i64 % 3))),
                );
            }
        }
        sim.run_until_quiescent(VTime::from_secs(120));
        let mut decided: BTreeMap<i64, Value> = BTreeMap::new();
        for (inst, v) in log.lock().iter() {
            if let Some(prev) = decided.get(inst) {
                assert_eq!(
                    prev, v,
                    "agreement violated at instance {inst}, seed {seed}"
                );
            }
            decided.insert(*inst, v.clone());
            let val = v.int();
            assert!(
                (0..3).contains(&(val - inst * 100)),
                "validity violated: {val} for instance {inst}"
            );
        }
        // With 10% loss some instances may stall (no retransmission layer
        // at this level) — but most decide, and none decide twice.
        assert!(
            decided.len() >= 15,
            "seed {seed}: only {} decided",
            decided.len()
        );
    }
}

/// Full Synod deployments (3 replicas, 2 leaders, 5 acceptors) under
/// jittered-but-reliable links: 30 commands, every slot decided once,
/// every command decided exactly once, across seeds.
#[test]
fn synod_with_competing_leaders_across_seeds() {
    for seed in 0..5 {
        let log: DecisionLog = Arc::new(Mutex::new(Vec::new()));
        let mut sim = SimBuilder::new(900 + seed).network(jittery()).build();
        let learner_loc = Loc::new(0);
        sim.add_node(learner(log.clone()));
        let config = synod::SynodConfig {
            replicas: (1..4).map(Loc::new).collect(),
            leaders: (4..6).map(Loc::new).collect(),
            acceptors: (6..11).map(Loc::new).collect(),
            learners: vec![learner_loc],
        };
        for r in &config.replicas {
            let loc = sim.add_node(Box::new(synod::replica(&config).process()));
            assert_eq!(loc, *r);
        }
        for l in &config.leaders {
            let loc = sim.add_node(Box::new(synod::leader(&config).process()));
            assert_eq!(loc, *l);
        }
        for a in &config.acceptors {
            let loc = sim.add_node(Box::new(synod::acceptor().process()));
            assert_eq!(loc, *a);
        }
        // Both leaders start: ballots compete, preemption exercises the
        // scout/commander restart machinery.
        for l in &config.leaders {
            sim.send_at(VTime::ZERO, *l, synod::start_msg());
        }
        for i in 0..30 {
            let replica = config.replicas[i as usize % 3];
            sim.send_at(
                VTime::from_millis(i as u64),
                replica,
                synod::request_msg(command(replica, i / 3, i)),
            );
        }
        sim.run_until_quiescent(VTime::from_secs(300));
        // Learner hears from each of the 3 replicas: slot decisions must
        // agree; each command decided in exactly one slot.
        let mut by_slot: BTreeMap<i64, Value> = BTreeMap::new();
        for (slot, v) in log.lock().iter() {
            if let Some(prev) = by_slot.get(slot) {
                assert_eq!(prev, v, "slot {slot} diverged, seed {seed}");
            }
            by_slot.insert(*slot, v.clone());
        }
        let mut decided: Vec<i64> = by_slot.values().map(index_of).collect();
        decided.sort_unstable();
        decided.dedup();
        assert_eq!(decided, (0..30).collect::<Vec<_>>(), "seed {seed}");
        // Gapless slots from 0.
        let slots: Vec<i64> = by_slot.keys().copied().collect();
        assert_eq!(
            slots,
            (0..slots.len() as i64).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

/// Crash a minority of acceptors mid-run: Synod keeps deciding.
#[test]
fn synod_survives_minority_acceptor_crashes() {
    let log: DecisionLog = Arc::new(Mutex::new(Vec::new()));
    let mut sim = SimBuilder::new(1234).network(jittery()).build();
    let learner_loc = Loc::new(0);
    sim.add_node(learner(log.clone()));
    let config = synod::SynodConfig {
        replicas: vec![Loc::new(1)],
        leaders: vec![Loc::new(2)],
        acceptors: (3..8).map(Loc::new).collect(),
        learners: vec![learner_loc],
    };
    sim.add_node(Box::new(synod::replica(&config).process()));
    sim.add_node(Box::new(synod::leader(&config).process()));
    for _ in 0..5 {
        sim.add_node(Box::new(synod::acceptor().process()));
    }
    sim.send_at(VTime::ZERO, config.leaders[0], synod::start_msg());
    for i in 0..40 {
        sim.send_at(
            VTime::from_millis(i as u64 * 2),
            config.replicas[0],
            synod::request_msg(command(config.replicas[0], i, i)),
        );
    }
    // Two of five acceptors die mid-stream: still a majority left.
    sim.crash_at(VTime::from_millis(20), config.acceptors[0]);
    sim.crash_at(VTime::from_millis(45), config.acceptors[3]);
    sim.run_until_quiescent(VTime::from_secs(300));
    let mut by_slot: BTreeMap<i64, Value> = BTreeMap::new();
    for (slot, v) in log.lock().iter() {
        if let Some(prev) = by_slot.get(slot) {
            assert_eq!(prev, v);
        }
        by_slot.insert(*slot, v.clone());
    }
    assert_eq!(
        by_slot.len(),
        40,
        "all commands decided despite two crashes"
    );
}

/// Stationarity, end to end: a Synod deployment (one replica, one leader,
/// three acceptors) orders 50 000 commands — hundreds of times the other
/// soaks' length — in five equal stages, each run to quiescence, and the
/// last stage costs no more wall-clock time per command than the first.
/// Before command identity the replica compared every request against every
/// decision ever made, and the last fifth of such a run took several times
/// the first. Its memory half is `synod_state_is_bounded_over_a_long_run`.
#[test]
fn synod_time_per_command_is_flat_over_a_long_run() {
    const STAGE: i64 = 10_000;
    // Wall-clock time on a shared host: a disturbed attempt is retried,
    // a real regression fails every attempt.
    let mut ratios = Vec::new();
    for attempt in 0..3 {
        let log: DecisionLog = Arc::new(Mutex::new(Vec::new()));
        let mut sim = SimBuilder::new(77 + attempt).network(jittery()).build();
        sim.add_node(learner(log.clone()));
        let config = synod::SynodConfig {
            replicas: vec![Loc::new(1)],
            leaders: vec![Loc::new(2)],
            acceptors: (3..6).map(Loc::new).collect(),
            learners: vec![Loc::new(0)],
        };
        sim.add_node(Box::new(synod::replica(&config).process()));
        sim.add_node(Box::new(synod::leader(&config).process()));
        for _ in 0..3 {
            sim.add_node(Box::new(synod::acceptor().process()));
        }
        sim.send_at(VTime::ZERO, config.leaders[0], synod::start_msg());
        let mut stage_times = Vec::new();
        for stage in 0..5 {
            // Paced like a closed loop: a handful of commands in flight.
            let now = sim.now();
            for i in 0..STAGE {
                let cid = stage * STAGE + i;
                let request = synod::request_msg(command(config.replicas[0], cid, cid));
                let at = now + Duration::from_micros(200 * i as u64);
                sim.send_at(at, config.replicas[0], request);
            }
            let started = std::time::Instant::now();
            sim.run_until_quiescent(VTime::from_secs(36_000));
            stage_times.push(started.elapsed());
            assert_eq!(log.lock().len() as i64, (stage + 1) * STAGE);
        }
        let decided: Vec<i64> = log.lock().iter().map(|(_, c)| index_of(c)).collect();
        let mut sorted = decided.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5 * STAGE).collect::<Vec<_>>());
        let ratio = stage_times[4].as_secs_f64() / stage_times[0].as_secs_f64();
        ratios.push(ratio);
        if ratio <= 1.5 {
            return;
        }
    }
    panic!("last fifth over first fifth, per command: {ratios:?} (every attempt above 1.5)");
}

/// A role that records the most entries its slot map has held after any
/// step.
struct Recorded<S> {
    inner: MealyProcess<S>,
    entries: fn(&S) -> usize,
    most: Arc<AtomicUsize>,
}

impl<S: MealyState> Process for Recorded<S> {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        self.inner.step_into(ctx, msg, out);
        let held = (self.entries)(self.inner.state());
        self.most.fetch_max(held, Ordering::Relaxed);
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(Recorded {
            inner: self.inner.clone(),
            entries: self.entries,
            most: self.most.clone(),
        })
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        self.inner.digest(hasher);
    }
}

/// Bounded state, the memory half of the stationarity soak: 50 000
/// decisions in `smr_bank`'s shape — three replicas of which one proposes
/// and two only learn, three leaders of which one is active, three
/// acceptors — with a closed loop keeping `WINDOW` commands in flight. In
/// every stage, after every step, no leader holds more than `WINDOW +
/// FRONTIER_EVERY` proposals and no acceptor more than that many pvalues:
/// the watermark trails the learning replicas' reports, sent every
/// `FRONTIER_EVERY` slots, and the proposer's, which ride on its
/// proposals. Every link has the same latency, so the replicas deliver in
/// step, as on one LAN.
#[test]
fn synod_state_is_bounded_over_a_long_run() {
    const STAGE: i64 = 10_000;
    const WINDOW: i64 = 8;
    let bound = (WINDOW + synod::FRONTIER_EVERY) as usize;
    let config = synod::SynodConfig {
        replicas: (1..4).map(Loc::new).collect(),
        leaders: (4..7).map(Loc::new).collect(),
        acceptors: (7..10).map(Loc::new).collect(),
        learners: vec![Loc::new(0)],
    };
    let mut sim = SimBuilder::new(5)
        .network(NetworkConfig {
            latency: Latency::Fixed(Duration::from_micros(100)),
            faults: Default::default(),
        })
        .build();
    // The client: the next command on the first delivery of each slot, up
    // to the stage's limit; a kick opens the window.
    let (limit, delivered) = (Arc::new(AtomicI64::new(0)), Arc::new(AtomicI64::new(0)));
    let proposer = config.replicas[0];
    let client = {
        let (limit, delivered) = (limit.clone(), delivered.clone());
        FnProcess::new(
            (0i64, 0i64),
            move |(next_cid, next_slot): &mut (i64, i64), _c: &Ctx, m: &Msg| {
                let submit = match parse_decide(m) {
                    Some((slot, _)) if slot >= *next_slot => {
                        *next_slot = slot + 1;
                        delivered.store(*next_slot, Ordering::Relaxed);
                        1
                    }
                    Some(_) => 0,
                    None => WINDOW,
                };
                let upto = (*next_cid + submit).min(limit.load(Ordering::Relaxed));
                let requests = (*next_cid..upto).map(|cid| {
                    let request = synod::request_msg(command(Loc::new(0), cid, cid));
                    SendInstr::now(proposer, request)
                });
                let outs = requests.collect();
                *next_cid = (*next_cid).max(upto);
                outs
            },
        )
    };
    assert_eq!(sim.add_node(Box::new(client)), Loc::new(0));
    for _ in &config.replicas {
        sim.add_node(Box::new(synod::replica(&config).process()));
    }
    let proposals: Vec<Arc<AtomicUsize>> = config.leaders.iter().map(|_| Arc::default()).collect();
    for most in &proposals {
        sim.add_node(Box::new(Recorded {
            inner: synod::leader(&config).process(),
            entries: synod::LeaderState::proposals_len,
            most: most.clone(),
        }));
    }
    let accepted: Vec<Arc<AtomicUsize>> = config.acceptors.iter().map(|_| Arc::default()).collect();
    for most in &accepted {
        sim.add_node(Box::new(Recorded {
            inner: synod::acceptor().process(),
            entries: synod::AcceptorState::accepted_len,
            most: most.clone(),
        }));
    }
    sim.send_at(VTime::ZERO, config.leaders[0], synod::start_msg());
    for stage in 1..=5 {
        limit.store(stage * STAGE, Ordering::Relaxed);
        sim.send_at(sim.now(), Loc::new(0), Msg::new("soak/kick", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(36_000));
        assert_eq!(delivered.load(Ordering::Relaxed), stage * STAGE);
        let held: Vec<usize> = proposals
            .iter()
            .chain(&accepted)
            .map(|most| most.swap(0, Ordering::Relaxed))
            .collect();
        assert!(
            held.iter().all(|n| *n <= bound),
            "stage {stage}: most entries held by leaders then acceptors {held:?}, bound {bound}"
        );
        assert!(
            held.iter().all(|n| *n > WINDOW as usize),
            "stage {stage}: {held:?} — every role should hold a window's worth"
        );
    }
}
