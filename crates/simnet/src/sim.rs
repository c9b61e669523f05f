//! The discrete-event simulation engine.

use crate::net::NetworkConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use shadowdb_eventml::{Ctx, Msg, Process};
use shadowdb_loe::{EventId, EventOrder, Loc, VTime};
use shadowdb_runtime::fault::{FaultPlan, LinkVerdict};
use shadowdb_runtime::{CostModel, ZeroCost};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Duration;

enum Action {
    Deliver {
        dest: Loc,
        msg: Msg,
        cause: Option<EventId>,
        sender: Option<Loc>,
    },
    Crash(Loc),
    Restart(Loc, Box<dyn Process>),
}

struct Item {
    time: VTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct NodeSlot {
    process: Box<dyn Process>,
    up: bool,
    /// Index of the machine whose CPU this node's work occupies.
    machine: usize,
    handled: u64,
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to (and handled by) a node.
    pub delivered: u64,
    /// Messages addressed to a crashed node.
    pub dropped_down: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Messages lost to the fault plan (partitions, lossy windows).
    pub dropped_fault: u64,
    /// Messages the fault plan delivered twice.
    pub duplicated_fault: u64,
}

/// Configures and creates a [`Simulation`].
pub struct SimBuilder {
    seed: u64,
    network: NetworkConfig,
    cost: Box<dyn CostModel>,
    capture_trace: bool,
}

impl SimBuilder {
    /// Starts a builder with the given determinism seed.
    pub fn new(seed: u64) -> SimBuilder {
        SimBuilder {
            seed,
            network: NetworkConfig::lan(),
            cost: Box::new(ZeroCost),
            capture_trace: false,
        }
    }

    /// Sets the network model (default: [`NetworkConfig::lan`]).
    pub fn network(mut self, network: NetworkConfig) -> SimBuilder {
        self.network = network;
        self
    }

    /// Sets the CPU service-time model (default: zero cost).
    pub fn cost_model(mut self, cost: impl CostModel + 'static) -> SimBuilder {
        self.cost = Box::new(cost);
        self
    }

    /// Captures every delivery as an event in an
    /// [`EventOrder`] for post-run property checking. Off by default (large
    /// runs produce large traces).
    pub fn capture_trace(mut self, on: bool) -> SimBuilder {
        self.capture_trace = on;
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Simulation {
        Simulation {
            now: VTime::ZERO,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            machines: Vec::new(),
            faults: self.network.faults.clone(),
            network: self.network,
            cost: self.cost,
            rng: SmallRng::seed_from_u64(self.seed),
            seq: 0,
            fault_counters: HashMap::new(),
            link_last_arrival: HashMap::new(),
            trace: if self.capture_trace {
                Some(EventOrder::new())
            } else {
                None
            },
            stats: SimStats::default(),
            outbuf: Vec::new(),
        }
    }
}

/// A running simulated world.
pub struct Simulation {
    now: VTime,
    queue: BinaryHeap<Reverse<Item>>,
    nodes: Vec<NodeSlot>,
    /// Per-machine CPU availability (busy-until instants).
    machines: Vec<VTime>,
    network: NetworkConfig,
    cost: Box<dyn CostModel>,
    rng: SmallRng,
    seq: u64,
    /// The active fault schedule (seeded with the network's initial plan,
    /// replaceable via `Runtime::install_fault_plan`).
    faults: FaultPlan,
    /// Per-directed-link message counters driving the plan's pure
    /// per-message coin flips.
    fault_counters: HashMap<(Loc, Loc), u64>,
    /// FIFO enforcement per directed link.
    link_last_arrival: HashMap<(Loc, Loc), VTime>,
    trace: Option<EventOrder<Msg>>,
    stats: SimStats,
    /// Reusable buffer the stepped process writes its sends into; drained
    /// by [`Simulation::execute`], so the delivery hot path allocates
    /// nothing once the buffer has grown to the working-set size.
    outbuf: Vec<shadowdb_eventml::SendInstr>,
}

impl Simulation {
    /// Adds a node hosting `process` on its own machine; returns its
    /// location.
    pub fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        let loc = Loc::new(self.nodes.len() as u32);
        let machine = self.machines.len();
        self.machines.push(VTime::ZERO);
        self.nodes.push(NodeSlot {
            process,
            up: true,
            machine,
            handled: 0,
        });
        loc
    }

    /// Adds a node hosting `process` on the *same machine* as `peer`: the
    /// two share a CPU, so service time charged to one delays the other.
    /// The paper co-locates databases with broadcast-service processes
    /// (Sec. IV-B), which is exactly the contention this models.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not a known node.
    pub fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        let machine = self.nodes[peer.index() as usize].machine;
        let loc = Loc::new(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            process,
            up: true,
            machine,
            handled: 0,
        });
        loc
    }

    /// The current virtual time.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Number of nodes added so far (the next node gets this index as its
    /// location).
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Replaces the CPU cost model (e.g. once service locations are known).
    pub fn set_cost_model(&mut self, cost: impl CostModel + 'static) {
        self.cost = Box::new(cost);
    }

    /// Run counters so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The captured trace, if trace capture was enabled.
    pub fn trace(&self) -> Option<&EventOrder<Msg>> {
        self.trace.as_ref()
    }

    /// Whether the node at `loc` is up.
    ///
    /// # Panics
    ///
    /// Panics if `loc` was not created by [`Simulation::add_node`].
    pub fn node_up(&self, loc: Loc) -> bool {
        self.nodes[loc.index() as usize].up
    }

    /// Messages handled by the node at `loc`.
    pub fn node_handled(&self, loc: Loc) -> u64 {
        self.nodes[loc.index() as usize].handled
    }

    /// Injects a message from outside the system (no causing event), to be
    /// delivered at `time` (plus nothing — external injections bypass the
    /// network model).
    pub fn send_at(&mut self, time: VTime, dest: Loc, msg: Msg) {
        let time = time.max(self.now);
        self.push(
            time,
            Action::Deliver {
                dest,
                msg,
                cause: None,
                sender: None,
            },
        );
    }

    /// Schedules a crash of `loc` at `time`.
    pub fn crash_at(&mut self, time: VTime, loc: Loc) {
        let time = time.max(self.now);
        self.push(time, Action::Crash(loc));
    }

    /// Schedules a restart of `loc` at `time` with a fresh process (crash
    /// failures lose volatile state; the new process starts from whatever
    /// state it is constructed with, e.g. recovered from a snapshot).
    pub fn restart_at(&mut self, time: VTime, loc: Loc, process: Box<dyn Process>) {
        let time = time.max(self.now);
        self.push(time, Action::Restart(loc, process));
    }

    fn push(&mut self, time: VTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Item { time, seq, action }));
    }

    /// Runs until the queue is exhausted or virtual time would exceed
    /// `limit`; returns the time of the last executed item (unlike
    /// [`Simulation::run_until`], the clock is *not* advanced to the
    /// limit when the queue drains earlier).
    pub fn run_until_quiescent(&mut self, limit: VTime) -> VTime {
        loop {
            let due = matches!(self.queue.peek(), Some(Reverse(i)) if i.time <= limit);
            if !due {
                break;
            }
            let Reverse(item) = self.queue.pop().expect("peeked a due item");
            self.now = self.now.max(item.time);
            self.execute(item);
        }
        // Include CPU work still draining after the last message (e.g. a
        // bulk insert charged by the final state-transfer chunk).
        let busy = self.machines.iter().copied().max().unwrap_or(VTime::ZERO);
        self.now = self.now.max(busy.min(limit));
        self.now
    }

    /// Executes all items scheduled at or before `deadline`, then advances
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: VTime) {
        loop {
            let due = matches!(self.queue.peek(), Some(Reverse(i)) if i.time <= deadline);
            if !due {
                break;
            }
            let Reverse(item) = self.queue.pop().expect("peeked a due item");
            self.now = self.now.max(item.time);
            self.execute(item);
        }
        self.now = self.now.max(deadline);
    }

    fn execute(&mut self, item: Item) {
        match item.action {
            Action::Crash(loc) => {
                // Fault plans may name locations that never materialized
                // (a planned joiner the run did not add): ignore, exactly
                // like crashing an already-crashed node is a no-op.
                if let Some(slot) = self.nodes.get_mut(loc.index() as usize) {
                    slot.up = false;
                    self.stats.crashes += 1;
                }
            }
            Action::Restart(loc, process) => {
                if let Some(slot) = self.nodes.get_mut(loc.index() as usize) {
                    slot.process = process;
                    slot.up = true;
                }
            }
            Action::Deliver {
                dest,
                msg,
                cause,
                sender,
            } => {
                let idx = dest.index() as usize;
                if idx >= self.nodes.len() {
                    // Under online reconfiguration a removed node's peers
                    // may still address it, and a fault plan may target a
                    // node added later than this delivery: count the loss
                    // like a delivery to a crashed node instead of
                    // treating the location as a wiring bug.
                    self.stats.dropped_down += 1;
                    return;
                }
                if !self.nodes[idx].up {
                    self.stats.dropped_down += 1;
                    return;
                }
                // CPU model: if the node's machine is busy, the message
                // waits for the CPU.
                let machine = self.nodes[idx].machine;
                if self.machines[machine] > item.time {
                    let at = self.machines[machine];
                    self.push(
                        at,
                        Action::Deliver {
                            dest,
                            msg,
                            cause,
                            sender,
                        },
                    );
                    return;
                }
                let start = self.now;
                let cost = self.cost.handle_cost(dest, &msg);
                self.nodes[idx].handled += 1;
                self.stats.delivered += 1;
                let event = self
                    .trace
                    .as_mut()
                    .map(|eo| eo.record(dest, start, msg.clone(), cause, sender));
                let ctx = Ctx::new(dest, start);
                let mut outbuf = std::mem::take(&mut self.outbuf);
                outbuf.clear();
                self.nodes[idx].process.step_into(&ctx, &msg, &mut outbuf);
                // Charge both the model cost and whatever the process
                // itself consumed (e.g. transaction execution).
                let step_cost = self.nodes[idx].process.take_step_cost();
                let leave = start + cost + step_cost;
                self.machines[machine] = leave;
                for instr in outbuf.drain(..) {
                    self.route(dest, leave, instr, event);
                }
                self.outbuf = outbuf;
            }
        }
    }

    /// Routes one send instruction emitted by `from` at time `leave`.
    fn route(
        &mut self,
        from: Loc,
        leave: VTime,
        instr: shadowdb_eventml::SendInstr,
        cause: Option<EventId>,
    ) {
        let depart = leave + instr.delay;
        if instr.dest == from {
            // Local (timer) delivery: no network.
            self.push(
                depart,
                Action::Deliver {
                    dest: instr.dest,
                    msg: instr.msg,
                    cause,
                    sender: Some(from),
                },
            );
            return;
        }
        // The fault plane: drop, duplicate, delay, or reorder per the
        // installed plan's windows.
        let mut extra = Duration::ZERO;
        let mut copies = 1;
        let mut reordering = false;
        if self.faults.active(from, instr.dest, depart) {
            let n = self.fault_counters.entry((from, instr.dest)).or_insert(0);
            let k = *n;
            *n += 1;
            match self.faults.decide(from, instr.dest, depart, k) {
                LinkVerdict::Drop { .. } => {
                    self.stats.dropped_fault += 1;
                    return;
                }
                LinkVerdict::Deliver {
                    extra_delay,
                    duplicate,
                } => {
                    extra = extra_delay;
                    if duplicate {
                        copies = 2;
                        self.stats.duplicated_fault += 1;
                    }
                    reordering = self.faults.reorders(from, instr.dest, depart);
                }
            }
        }
        let dest = instr.dest;
        let latency = self.network.latency.sample(from, dest, &mut self.rng);
        if copies > 1 {
            // The duplicate takes its own (jittered) trip.
            let dup_latency = self.network.latency.sample(from, dest, &mut self.rng);
            self.deliver_on_link(
                from,
                dest,
                depart + dup_latency + extra,
                reordering,
                instr.msg.clone(),
                cause,
            );
        }
        self.deliver_on_link(
            from,
            dest,
            depart + latency + extra,
            reordering,
            instr.msg,
            cause,
        );
    }

    /// Schedules a network delivery, enforcing per-link FIFO unless an
    /// active reorder window suspends it (deliveries then land wherever
    /// their jitter puts them, so later sends can overtake earlier ones).
    fn deliver_on_link(
        &mut self,
        from: Loc,
        dest: Loc,
        raw_arrival: VTime,
        reordering: bool,
        msg: Msg,
        cause: Option<EventId>,
    ) {
        let mut arrival = raw_arrival;
        if !reordering {
            // FIFO per link, as over a TCP connection.
            let last = self
                .link_last_arrival
                .entry((from, dest))
                .or_insert(VTime::ZERO);
            arrival = arrival.max(*last);
            *last = arrival;
        }
        self.push(
            arrival,
            Action::Deliver {
                dest,
                msg,
                cause,
                sender: Some(from),
            },
        );
    }

    /// Replaces the active fault schedule (the network's initial plan is
    /// installed at build time). Per-link fault counters reset so a fresh
    /// plan replays from coin flip zero.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
        self.fault_counters.clear();
    }
}

impl shadowdb_runtime::Runtime for Simulation {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        Simulation::add_node(self, process)
    }

    fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        Simulation::add_node_colocated(self, process, peer)
    }

    fn node_count(&self) -> u32 {
        Simulation::node_count(self)
    }

    fn now(&self) -> VTime {
        Simulation::now(self)
    }

    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg) {
        Simulation::send_at(self, at, dest, msg);
    }

    fn crash_at(&mut self, at: VTime, loc: Loc) {
        Simulation::crash_at(self, at, loc);
    }

    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        Simulation::restart_at(self, at, loc, process);
    }

    fn set_cost_model(&mut self, cost: Box<dyn shadowdb_runtime::CostModel>) {
        self.cost = cost;
    }

    /// A port is an ordinary simulated node running a
    /// [`shadowdb_runtime::PortProcess`]; it occupies the next location, so
    /// numbering matches every other substrate.
    fn port(&mut self) -> (Loc, shadowdb_runtime::PortRx) {
        let (tx, rx) = shadowdb_runtime::PortRx::pair();
        let loc = Simulation::add_node(self, Box::new(shadowdb_runtime::PortProcess::new(tx)));
        (loc, rx)
    }

    fn run_for(&mut self, duration: std::time::Duration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        Simulation::install_fault_plan(self, plan);
    }

    fn fault_stats(&self) -> (u64, u64) {
        (self.stats.dropped_fault, self.stats.duplicated_fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Latency;
    use shadowdb_eventml::{FnProcess, SendInstr, Value};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn relay(next: Loc, hops_left: i64) -> Box<dyn Process> {
        let _ = hops_left;
        Box::new(FnProcess::new((), move |_s, _ctx: &Ctx, msg: &Msg| {
            let n = msg.body.int();
            if n > 0 {
                vec![SendInstr::now(next, Msg::new("hop", Value::Int(n - 1)))]
            } else {
                vec![]
            }
        }))
    }

    #[test]
    fn ring_terminates_and_counts() {
        let mut sim = SimBuilder::new(1).network(NetworkConfig::lan()).build();
        let a = sim.add_node(relay(Loc::new(1), 0));
        let b = sim.add_node(relay(Loc::new(0), 0));
        sim.send_at(VTime::ZERO, a, Msg::new("hop", Value::Int(10)));
        sim.run_until_quiescent(VTime::from_secs(10));
        assert_eq!(sim.stats().delivered, 11);
        assert!(sim.now() >= VTime::from_micros(10 * 100)); // ≥10 hops of ≥100µs
        assert!(sim.node_handled(a) >= 5 && sim.node_handled(b) >= 5);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = SimBuilder::new(42).network(NetworkConfig::lan()).build();
            let a = sim.add_node(relay(Loc::new(1), 0));
            let _b = sim.add_node(relay(Loc::new(0), 0));
            sim.send_at(VTime::ZERO, a, Msg::new("hop", Value::Int(50)));
            sim.run_until_quiescent(VTime::from_secs(10));
            sim.now().as_micros()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_drops_messages() {
        let mut sim = SimBuilder::new(1).build();
        let a = sim.add_node(relay(Loc::new(1), 0));
        let b = sim.add_node(relay(Loc::new(0), 0));
        sim.crash_at(VTime::from_millis(0), b);
        sim.send_at(VTime::from_millis(1), a, Msg::new("hop", Value::Int(5)));
        sim.run_until_quiescent(VTime::from_secs(1));
        assert!(!sim.node_up(b));
        assert_eq!(sim.stats().delivered, 1); // only a's event
        assert_eq!(sim.stats().dropped_down, 1);
    }

    #[test]
    fn unknown_locations_drop_instead_of_panicking() {
        // Regression for online reconfiguration: fault plans and stale
        // peers may address locations that do not exist (yet, or anymore).
        let mut sim = SimBuilder::new(1).build();
        let a = sim.add_node(relay(Loc::new(9), 0));
        let ghost = Loc::new(9);
        // Deliveries to an unknown node are counted losses, not panics —
        // both external injections and node-originated sends.
        sim.send_at(VTime::from_millis(1), ghost, Msg::new("x", Value::Unit));
        sim.send_at(VTime::from_millis(2), a, Msg::new("hop", Value::Int(1)));
        // Crash/restart of an unknown node is a no-op.
        sim.crash_at(VTime::from_millis(3), ghost);
        sim.restart_at(VTime::from_millis(4), ghost, relay(Loc::new(0), 0));
        sim.run_until_quiescent(VTime::from_secs(1));
        assert_eq!(sim.stats().dropped_down, 2);
        assert_eq!(sim.stats().crashes, 0);
        // A node added after the run started receives normally (locations
        // allocate sequentially, so the late node lands at the next slot).
        let late = sim.add_node(relay(Loc::new(0), 0));
        sim.send_at(sim.now(), late, Msg::new("hop", Value::Int(0)));
        sim.run_until_quiescent(VTime::from_secs(2));
        assert_eq!(sim.stats().dropped_down, 2);
        assert!(sim.node_up(late));
    }

    #[test]
    fn restart_revives_node() {
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let counting = move || {
            let c = c.clone();
            Box::new(FnProcess::new((), move |_s, _ctx: &Ctx, _m: &Msg| {
                c.fetch_add(1, Ordering::Relaxed);
                vec![]
            })) as Box<dyn Process>
        };
        let mut sim = SimBuilder::new(1).build();
        let a = sim.add_node(counting());
        sim.crash_at(VTime::from_millis(1), a);
        sim.send_at(VTime::from_millis(2), a, Msg::new("x", Value::Unit)); // lost
        sim.restart_at(VTime::from_millis(3), a, counting());
        sim.send_at(VTime::from_millis(4), a, Msg::new("x", Value::Unit)); // handled
        sim.run_until_quiescent(VTime::from_secs(1));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert!(sim.node_up(a));
    }

    #[test]
    fn cpu_cost_serializes_node_work() {
        // Two messages arrive (almost) together; with a 10ms service time the
        // second handling starts after the first completes.
        let times = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t2 = times.clone();
        let p = FnProcess::new((), move |_s, ctx: &Ctx, _m: &Msg| {
            t2.lock().push(ctx.now.as_micros());
            vec![]
        });
        let mut sim = SimBuilder::new(1)
            .cost_model(shadowdb_runtime::FnCost(|_l: Loc, _m: &Msg| {
                Duration::from_millis(10)
            }))
            .build();
        let a = sim.add_node(Box::new(p));
        sim.send_at(VTime::from_micros(0), a, Msg::new("x", Value::Unit));
        sim.send_at(VTime::from_micros(1), a, Msg::new("x", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(1));
        let times = times.lock();
        assert_eq!(times.len(), 2);
        assert_eq!(times[0], 0);
        assert_eq!(times[1], 10_000); // waited for the busy CPU
    }

    #[test]
    fn fifo_per_link_despite_jitter() {
        // A sender emits 20 numbered messages in one step; with jittered
        // latency they must still arrive in order (TCP FIFO).
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let recv = FnProcess::new((), move |_s, _ctx: &Ctx, m: &Msg| {
            s2.lock().push(m.body.int());
            vec![]
        });
        let burst = FnProcess::new((), |_s, _ctx: &Ctx, m: &Msg| {
            if m.header.name() != "go" {
                return vec![];
            }
            (0..20)
                .map(|i| SendInstr::now(Loc::new(1), Msg::new("n", Value::Int(i))))
                .collect()
        });
        let mut sim = SimBuilder::new(99)
            .network(NetworkConfig {
                latency: Latency::Jittered {
                    base: Duration::from_micros(100),
                    jitter: Duration::from_micros(500),
                },
                faults: FaultPlan::default(),
            })
            .build();
        let a = sim.add_node(Box::new(burst));
        let _b = sim.add_node(Box::new(recv));
        sim.send_at(VTime::ZERO, a, Msg::new("go", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(1));
        let seen = seen.lock();
        assert_eq!(*seen, (0..20).collect::<Vec<i64>>());
    }

    #[test]
    fn trace_capture_links_causality() {
        let mut sim = SimBuilder::new(1).capture_trace(true).build();
        let a = sim.add_node(relay(Loc::new(1), 0));
        let _b = sim.add_node(relay(Loc::new(0), 0));
        sim.send_at(VTime::ZERO, a, Msg::new("hop", Value::Int(3)));
        sim.run_until_quiescent(VTime::from_secs(1));
        let eo = sim.trace().unwrap();
        assert_eq!(eo.len(), 4);
        // Every event after the first was caused by the previous one.
        let ids: Vec<_> = eo.iter().map(|e| e.id()).collect();
        for w in ids.windows(2) {
            assert!(eo.happens_before(w[0], w[1]));
        }
    }

    #[test]
    fn fault_plan_partitions_then_heals() {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let recv = FnProcess::new((), move |_s, _ctx: &Ctx, _m: &Msg| {
            s2.fetch_add(1, Ordering::Relaxed);
            vec![]
        });
        let fwd = FnProcess::new((), |_s, _ctx: &Ctx, m: &Msg| {
            if m.header.name() == "go" {
                vec![SendInstr::now(Loc::new(1), Msg::new("x", Value::Unit))]
            } else {
                vec![]
            }
        });
        let mut net = NetworkConfig::instant();
        net.faults =
            FaultPlan::new(1).with_isolation(Loc::new(1), VTime::ZERO, VTime::from_secs(1));
        let mut sim = SimBuilder::new(1).network(net).build();
        let a = sim.add_node(Box::new(fwd));
        let _b = sim.add_node(Box::new(recv));
        // During the cut: a's relay to b is lost (a's own injected "go"
        // bypasses the network model, as all external injections do).
        sim.send_at(VTime::from_millis(100), a, Msg::new("go", Value::Unit));
        // After heal: delivered.
        sim.send_at(VTime::from_millis(1_500), a, Msg::new("go", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(3));
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        assert_eq!(sim.stats().dropped_fault, 1);
        assert_eq!(sim.fault_counters.len(), 1);
    }

    #[test]
    fn fault_plan_duplicates_deliveries() {
        use shadowdb_runtime::fault::{LinkFault, LinkSel};
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let recv = FnProcess::new((), move |_s, _ctx: &Ctx, _m: &Msg| {
            s2.fetch_add(1, Ordering::Relaxed);
            vec![]
        });
        let fwd = FnProcess::new((), |_s, _ctx: &Ctx, m: &Msg| {
            if m.header.name() == "go" {
                vec![SendInstr::now(Loc::new(1), Msg::new("x", Value::Unit))]
            } else {
                vec![]
            }
        });
        let mut net = NetworkConfig::instant();
        net.faults = FaultPlan::new(2).with_rule(
            LinkSel::Pair(Loc::new(0), Loc::new(1)),
            VTime::ZERO,
            VTime::from_secs(10),
            LinkFault::duplicating(1.0),
        );
        let mut sim = SimBuilder::new(1).network(net).build();
        let a = sim.add_node(Box::new(fwd));
        let _b = sim.add_node(Box::new(recv));
        sim.send_at(VTime::ZERO, a, Msg::new("go", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(1));
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(sim.stats().duplicated_fault, 1);
        let (dropped, duplicated) = shadowdb_runtime::Runtime::fault_stats(&sim);
        assert_eq!((dropped, duplicated), (0, 1));
    }

    #[test]
    fn fault_plan_reorder_window_breaks_fifo() {
        use shadowdb_runtime::fault::{LinkFault, LinkSel};
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let recv = FnProcess::new((), move |_s, _ctx: &Ctx, m: &Msg| {
            s2.lock().push(m.body.int());
            vec![]
        });
        let burst = FnProcess::new((), |_s, _ctx: &Ctx, m: &Msg| {
            if m.header.name() != "go" {
                return vec![];
            }
            (0..30)
                .map(|i| SendInstr::now(Loc::new(1), Msg::new("n", Value::Int(i))))
                .collect()
        });
        let mut net = NetworkConfig::instant();
        net.faults = FaultPlan::new(3).with_rule(
            LinkSel::Pair(Loc::new(0), Loc::new(1)),
            VTime::ZERO,
            VTime::from_secs(10),
            LinkFault::reordering(Duration::from_millis(5)),
        );
        let mut sim = SimBuilder::new(9).network(net).build();
        let a = sim.add_node(Box::new(burst));
        let _b = sim.add_node(Box::new(recv));
        sim.send_at(VTime::ZERO, a, Msg::new("go", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(1));
        let seen = seen.lock();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<i64>>(), "nothing lost");
        assert_ne!(*seen, sorted, "jitter inside the window reorders");
    }

    #[test]
    fn delayed_self_send_acts_as_timer() {
        let fired_at = Arc::new(AtomicU64::new(0));
        let f2 = fired_at.clone();
        let p = FnProcess::new((), move |_s, ctx: &Ctx, m: &Msg| match m.header.name() {
            "start" => vec![SendInstr::after(
                Duration::from_millis(250),
                ctx.slf,
                Msg::new("timeout", Value::Unit),
            )],
            "timeout" => {
                f2.store(ctx.now.as_micros(), Ordering::Relaxed);
                vec![]
            }
            _ => vec![],
        });
        let mut sim = SimBuilder::new(1).build();
        let a = sim.add_node(Box::new(p));
        sim.send_at(VTime::ZERO, a, Msg::new("start", Value::Unit));
        sim.run_until_quiescent(VTime::from_secs(1));
        assert_eq!(fired_at.load(Ordering::Relaxed), 250_000);
    }
}
