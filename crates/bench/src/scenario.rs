//! The deployments the experiments measure, each built in one place.
//!
//! An experiment module is a sweep plus its table; a `perf_smoke` gate row
//! is one point of such a sweep at smoke size. Both call the functions
//! here (or the experiment's own `run`), parameterised by what the callers
//! differ in — seed, network, sizes, warm-up policy — so a gate can never
//! drift from the sweep it summarises. The hand-stepped protocol hot
//! paths the criterion benches and `alloc_profile` share ([`SynodRounds`],
//! [`TobSteps`]) are here for the same reason.

use crate::cost::ShadowDbCost;
use crate::measure::{answered, steady_state, Point};
use parking_lot::Mutex;
use shadowdb::deploy::{DeployOptions, PbrDeployment, SmrDeployment};
use shadowdb::msgs::SNAPSHOT_HEADER;
use shadowdb::pbr::PbrOptions;
use shadowdb::smr::SmrReplica;
use shadowdb::DbClientStats;
use shadowdb_consensus::{decide_body, synod, DECIDE_HEADER};
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{FnCost, Runtime};
use shadowdb_simnet::testing::default_net;
use shadowdb_simnet::{NetworkConfig, SimBuilder};
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_tob::service::{service, Backend};
use shadowdb_tob::{
    broadcast_msg, ClientStats, ExecutionMode, TobClient, TobConfig, TobDeployment, TobOptions,
};
use shadowdb_workloads::bank;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Far beyond any run: a bound on scenarios that end by quiescence or
/// completion, so a wedged one terminates.
const HORIZON: VTime = VTime::from_secs(36_000);

/// The offered load of a broadcast-service run.
pub struct TobLoad {
    /// Simulation seed.
    pub seed: u64,
    /// The simulated network.
    pub net: NetworkConfig,
    /// Closed-loop clients.
    pub clients: u32,
    /// Broadcasts per client.
    pub msgs_each: u64,
    /// Client retransmission timeout. It shows in the numbers: some
    /// clients' first broadcast is starved of a Synod slot — its batch
    /// loses slot after slot to the other servers' proposals (ROADMAP
    /// item 2) — and under a long load is delivered only after their
    /// resend, so the timeout sets how far those clients start behind
    /// the others.
    pub client_timeout: Duration,
    /// Whether client `c` prefers server `c mod machines` (spreading first
    /// attempts over the machines) or every client starts at server 0.
    pub spread: bool,
    /// Whether the measurement drops each client's first tenth.
    pub skip_warmup: bool,
}

/// Closed-loop clients broadcasting 140-byte payloads (as in the paper)
/// through a broadcast service on a simulated network, run until every
/// broadcast is delivered: delivered messages/s and mean
/// broadcast-to-delivery latency.
pub fn tob_closed_loop(load: TobLoad, options: &TobOptions) -> Point {
    let mut sim = SimBuilder::new(load.seed).network(load.net).build();
    // Clients take the first locations; the service deploys after them.
    let servers = options.server_locs(load.clients);
    let payload = Value::Bytes(bytes::Bytes::from(vec![0u8; 140]));
    let mut stats = Vec::new();
    let mut clients = Vec::new();
    for c in 0..load.clients {
        let s = Arc::new(Mutex::new(ClientStats::default()));
        stats.push(s.clone());
        let mut order = servers.clone();
        if load.spread {
            order.rotate_left(c as usize % servers.len());
        }
        let client = TobClient::new(order, payload.clone(), load.msgs_each, s)
            .with_timeout(load.client_timeout);
        clients.push(sim.add_node(Box::new(client)));
    }
    let deployment = TobDeployment::build(&mut sim, options, clients.clone());
    assert_eq!(deployment.servers, servers);
    for c in &clients {
        sim.send_at(VTime::ZERO, *c, TobClient::start_msg());
    }
    sim.run_until_quiescent(HORIZON);
    for s in &stats {
        let delivered = s.lock().completed.len() as u64;
        assert_eq!(delivered, load.msgs_each, "every broadcast must deliver");
    }
    steady_state(&stats, load.skip_warmup)
}

/// Deployment options for the bank micro-benchmark: `clients` closed-loop
/// clients, client `i` submitting `txns_each` transactions drawn from
/// `BankGen` seeded `gen_seed + i`, over `rows` 16-byte accounts.
pub fn bank_options(rows: usize, clients: usize, txns_each: usize, gen_seed: u64) -> DeployOptions {
    DeployOptions::new(
        clients,
        move |client| {
            let mut g = bank::BankGen::new(gen_seed + client as u64, rows);
            (0..txns_each).map(|_| g.next_txn()).collect()
        },
        move |db| bank::load(db, rows).expect("bank loads"),
    )
}

/// Builds an unsharded deployment on a fresh simulated LAN — PBR when
/// `pbr` is given, SMR otherwise — and runs it until the clients are
/// done. With `deliver_us` the replicas additionally pay the
/// [`ShadowDbCost`] request overheads (the paper-figure calibration);
/// without it only the broadcast service's own mode cost applies.
pub fn run_to_completion(
    seed: u64,
    options: &DeployOptions,
    pbr: Option<PbrOptions>,
    deliver_us: Option<u64>,
) -> Vec<Arc<Mutex<DbClientStats>>> {
    let mut sim = default_net(seed);
    let (stats, tob, replicas) = match pbr {
        Some(pbr) => {
            let d = PbrDeployment::build(&mut sim, options, pbr);
            (d.stats, d.tob, d.replicas)
        }
        None => {
            let d = SmrDeployment::build(&mut sim, options);
            (d.stats, d.tob, d.replicas)
        }
    };
    if let Some(us) = deliver_us {
        sim.set_cost_model(ShadowDbCost::new(options.mode, &tob, &replicas, us));
    }
    // Heartbeat and lease timers re-arm forever, so a deployment never
    // goes quiet: stop once every client has all its answers.
    let expected: usize = (0..options.n_clients)
        .map(|i| (options.client_txns)(i).len())
        .sum();
    while answered(&stats) < expected {
        assert!(sim.now() < HORIZON, "every transaction must be answered");
        sim.run_for(Duration::from_secs(1));
    }
    stats
}

/// Streams `donor`'s database to a fresh joining replica over the actual
/// SMR state-transfer path — one image fetch, answered in chunks; the
/// joiner is never subscribed, so it arms no retry — charging
/// `chunk_cost` of fixed handling per snapshot chunk; returns the virtual
/// transfer time in seconds and the number of messages delivered.
pub fn state_transfer(seed: u64, donor: SmrReplica, chunk_cost: Duration) -> (f64, u64) {
    let mut sim = SimBuilder::new(seed)
        .network(NetworkConfig::lan())
        .cost_model(FnCost(move |_l, m: &Msg| {
            if m.header.name() == SNAPSHOT_HEADER {
                chunk_cost
            } else {
                Duration::ZERO
            }
        }))
        .build();
    let donor = sim.add_node(Box::new(donor));
    let db = Database::new(EngineProfile::h2());
    let joiner = sim.add_node(Box::new(SmrReplica::joining_from(db, vec![donor])));
    sim.send_at(VTime::ZERO, donor, SmrReplica::fetch_msg(joiner, -1, 0));
    let end = sim.run_until_quiescent(HORIZON);
    (end.as_secs_f64(), sim.stats().delivered)
}

/// What the hot-path tables (criterion rows, `alloc_profile`) call the
/// program an execution mode runs.
pub fn form(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::Interpreted => "interpreted",
        ExecutionMode::InterpretedOpt => "fused",
        ExecutionMode::Compiled => "compiled",
    }
}

/// A warm in-memory Synod deployment in one execution mode — one replica
/// (loc 0), one leader (loc 1), three acceptors (locs 2–4), learner at
/// loc 100 — stepped by hand, FIFO: what the criterion `consensus` rows
/// and `alloc_profile`'s `synod` rows measure.
pub struct SynodRounds {
    procs: Vec<Box<dyn Process>>,
    queue: VecDeque<(Loc, Msg)>,
    out: Vec<SendInstr>,
    next_cid: i64,
}

impl SynodRounds {
    /// Builds the roles through [`ExecutionMode::instantiate`], lets the
    /// leader get its ballot adopted and decides one command.
    pub fn warm(mode: ExecutionMode) -> SynodRounds {
        let config = synod::SynodConfig {
            replicas: vec![Loc::new(0)],
            leaders: vec![Loc::new(1)],
            acceptors: (2..5).map(Loc::new).collect(),
            learners: vec![Loc::new(100)],
        };
        let mut procs = vec![
            mode.instantiate(&synod::replica(&config)),
            mode.instantiate(&synod::leader(&config)),
        ];
        procs.extend((0..3).map(|_| mode.instantiate(&synod::acceptor())));
        let mut rounds = SynodRounds {
            procs,
            queue: VecDeque::new(),
            out: Vec::new(),
            next_cid: 0,
        };
        rounds.drain(Loc::new(1), synod::start_msg());
        // Nine steps a round: request, propose, 3 × p2a, 3 × p2b, decision.
        assert_eq!(rounds.decide(Value::str("warm")), 9);
        rounds
    }

    /// Submits `op` to the replica as the next command of one origin and
    /// runs the deployment until the learner has its decision; returns the
    /// steps taken.
    pub fn decide(&mut self, op: Value) -> usize {
        let cmd = synod::command(Loc::new(100), self.next_cid, op);
        self.next_cid += 1;
        self.drain(Loc::new(0), synod::request_msg(cmd))
    }

    fn drain(&mut self, dest: Loc, msg: Msg) -> usize {
        self.queue.push_back((dest, msg));
        let mut steps = 0;
        while let Some((dest, msg)) = self.queue.pop_front() {
            if let Some(p) = self.procs.get_mut(dest.index() as usize) {
                steps += 1;
                self.out.clear();
                p.step_into(&Ctx::at(dest), &msg, &mut self.out);
                self.queue
                    .extend(self.out.drain(..).map(|o| (o.dest, o.msg)));
            }
        }
        steps
    }
}

/// One long-lived broadcast server (Paxos backend, window 8, three
/// subscribers) in one execution mode, stepped by hand in steady state:
/// eight clients take turns, each submission is proposed at once and the
/// decision for its batch delivers it. The criterion `tob` rows and
/// `alloc_profile`'s `tob` rows.
pub struct TobSteps {
    server: Box<dyn Process>,
    out: Vec<SendInstr>,
    slot: i64,
}

impl TobSteps {
    /// Builds the server through [`ExecutionMode::instantiate`].
    pub fn new(mode: ExecutionMode) -> TobSteps {
        let replica = Loc::new(1);
        let config = TobConfig::new(Backend::Paxos { replica }, (40..43).map(Loc::new).collect())
            .with_window(8);
        TobSteps {
            server: mode.instantiate(&service(&config)),
            out: Vec::new(),
            slot: 0,
        }
    }

    /// Two steps: the next client's submission, then the decision that
    /// delivers it. Returns the number of delivery notifications.
    pub fn submit_and_deliver(&mut self) -> usize {
        let ctx = Ctx::at(Loc::new(0));
        let client = Loc::new(50 + (self.slot % 8) as u32);
        self.out.clear();
        let submission = broadcast_msg(client, self.slot / 8, Value::Unit);
        self.server.step_into(&ctx, &submission, &mut self.out);
        let decide = Msg::new(DECIDE_HEADER, decide_body(self.slot, &self.out[0].msg.body));
        self.out.clear();
        self.server.step_into(&ctx, &decide, &mut self.out);
        self.slot += 1;
        self.out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tob_scenario_is_deterministic_per_seed() {
        let run = |seed| {
            let load = TobLoad {
                seed,
                net: NetworkConfig::lan(),
                clients: 3,
                msgs_each: 5,
                client_timeout: Duration::from_secs(5),
                spread: true,
                skip_warmup: false,
            };
            tob_closed_loop(load, &TobOptions::default())
        };
        let p = run(7);
        assert_eq!(p, run(7));
        assert_eq!((p.clients, p.abort_rate), (3, 0.0));
        assert!(p.throughput > 0.0 && p.latency_ms > 0.0, "{p:?}");
    }
}
