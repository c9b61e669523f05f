//! Deployment of a complete broadcast service into a [`Runtime`].
//!
//! Mirrors the paper's testbed layout: the service runs on `machines`
//! servers (three in Sec. IV, tolerating one failure with Paxos), each
//! machine co-hosting the TOB server process and its consensus roles —
//! the processes share the machine's CPU, which is what eventually makes
//! the service CPU-bound. The builder is generic over the execution
//! substrate: the same graph deploys into the simulator, onto real
//! sockets (`shadowdb-tcpnet`), or into the model checker (`shadowdb-mck`).

use crate::mode::{ExecutionMode, ModeCost};
use crate::service::{service, Backend, TobConfig};
use shadowdb_consensus::synod::{self, SynodConfig};
use shadowdb_consensus::twothird::{TwoThird, TwoThirdConfig};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;

/// Which consensus module the deployment wires the servers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// TwoThird Consensus: one member per machine.
    TwoThird,
    /// Multi-decree Paxos Synod: one replica, leader, and acceptor per
    /// machine (the leader of machine 0 is started at time zero).
    Paxos,
}

impl BackendKind {
    /// Processes per service machine: the TOB server followed by its
    /// co-located consensus roles.
    pub fn procs_per_machine(self) -> u32 {
        match self {
            BackendKind::TwoThird => 2, // server + member
            BackendKind::Paxos => 4,    // server + replica + leader + acceptor
        }
    }
}

/// Options for a broadcast-service deployment.
#[derive(Clone, Debug)]
pub struct TobOptions {
    /// Number of service machines (the paper uses 3).
    pub machines: u32,
    /// The consensus module.
    pub backend: BackendKind,
    /// Execution backend (program variant + CPU cost calibration).
    pub mode: ExecutionMode,
    /// Batching bound per proposal.
    pub max_batch: usize,
    /// Pipelining window (concurrent slot proposals per server). `None`
    /// picks the backend default: 8 for Paxos (whose replicas decide many
    /// slots concurrently), 1 for TwoThird (the stop-and-wait ablation
    /// baseline).
    pub window: Option<usize>,
    /// Start every machine's leader (ballots compete and preempt; needed to
    /// survive the crash of the machine hosting the active leader). When
    /// false, only machine 0's leader runs.
    pub start_all_leaders: bool,
}

impl TobOptions {
    /// The window actually deployed: the explicit override, or the
    /// backend default.
    pub fn effective_window(&self) -> usize {
        self.window.unwrap_or(match self.backend {
            BackendKind::Paxos => 8,
            BackendKind::TwoThird => 1,
        })
    }

    /// Where [`TobDeployment::build`] places the TOB servers when the
    /// runtime's next free location is `base` — a pure function of the
    /// options, so clients added *before* the service can be told whom to
    /// talk to.
    pub fn server_locs(&self, base: u32) -> Vec<Loc> {
        let per = self.backend.procs_per_machine();
        (0..self.machines)
            .map(|i| Loc::new(base + i * per))
            .collect()
    }
}

impl Default for TobOptions {
    fn default() -> Self {
        TobOptions {
            machines: 3,
            backend: BackendKind::Paxos,
            mode: ExecutionMode::Compiled,
            max_batch: 64,
            window: None,
            start_all_leaders: false,
        }
    }
}

/// The locations of a deployed broadcast service.
#[derive(Clone, Debug)]
pub struct TobDeployment {
    /// The TOB server at each machine (clients talk to these).
    pub servers: Vec<Loc>,
    /// Every service location, for cost-model accounting.
    pub service_locs: Vec<Loc>,
}

impl TobDeployment {
    /// Adds the full service to `rt`: one machine per server with all
    /// consensus roles co-located, every process built per
    /// `options.mode`, and the mode's CPU cost model installed.
    /// `subscribers` receive every delivery notification.
    pub fn build<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &TobOptions,
        subscribers: Vec<Loc>,
    ) -> TobDeployment {
        let base = rt.node_count();
        let m = options.machines;
        let per = options.backend.procs_per_machine();
        let servers = options.server_locs(base);
        let service_locs: Vec<Loc> = (0..m * per).map(|k| Loc::new(base + k)).collect();

        match options.backend {
            BackendKind::TwoThird => {
                let members: Vec<Loc> = (0..m).map(|i| Loc::new(base + i * per + 1)).collect();
                let tt_config =
                    TwoThirdConfig::new(members.clone(), servers.clone()).with_auto_adopt();
                for i in 0..m {
                    let tob_config = TobConfig::new(
                        Backend::TwoThird {
                            member: members[i as usize],
                        },
                        subscribers.clone(),
                    )
                    .with_max_batch(options.max_batch)
                    .with_window(options.effective_window());
                    let server = rt.add_node(options.mode.instantiate(&service(&tob_config)));
                    debug_assert_eq!(server, servers[i as usize]);
                    let member = rt.add_node_colocated(
                        options
                            .mode
                            .instantiate(&TwoThird::new(tt_config.clone()).member()),
                        server,
                    );
                    debug_assert_eq!(member, members[i as usize]);
                }
            }
            BackendKind::Paxos => {
                let replicas: Vec<Loc> = (0..m).map(|i| Loc::new(base + i * per + 1)).collect();
                let leaders: Vec<Loc> = (0..m).map(|i| Loc::new(base + i * per + 2)).collect();
                let acceptors: Vec<Loc> = (0..m).map(|i| Loc::new(base + i * per + 3)).collect();
                let px_config = SynodConfig {
                    replicas: replicas.clone(),
                    leaders: leaders.clone(),
                    acceptors: acceptors.clone(),
                    learners: servers.clone(),
                };
                for i in 0..m {
                    let tob_config = TobConfig::new(
                        Backend::Paxos {
                            replica: replicas[i as usize],
                        },
                        subscribers.clone(),
                    )
                    .with_max_batch(options.max_batch)
                    .with_window(options.effective_window());
                    let mode = options.mode;
                    let server = rt.add_node(mode.instantiate(&service(&tob_config)));
                    debug_assert_eq!(server, servers[i as usize]);
                    let r = rt
                        .add_node_colocated(mode.instantiate(&synod::replica(&px_config)), server);
                    let l =
                        rt.add_node_colocated(mode.instantiate(&synod::leader(&px_config)), server);
                    let a = rt.add_node_colocated(mode.instantiate(&synod::acceptor()), server);
                    debug_assert_eq!(r, replicas[i as usize]);
                    debug_assert_eq!(l, leaders[i as usize]);
                    debug_assert_eq!(a, acceptors[i as usize]);
                }
                if options.start_all_leaders {
                    for l in &leaders {
                        rt.send_at(VTime::ZERO, *l, synod::start_msg());
                    }
                } else {
                    // One active leader; the others stay passive.
                    rt.send_at(VTime::ZERO, leaders[0], synod::start_msg());
                }
            }
        }

        rt.set_cost_model(Box::new(ModeCost::new(options.mode, service_locs.clone())));
        TobDeployment {
            servers,
            service_locs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientStats, TobClient};
    use shadowdb_eventml::Value;
    use std::sync::Arc;

    fn run_deployment(backend: BackendKind, mode: ExecutionMode, n_msgs: u64) -> ClientStats {
        let mut sim = shadowdb_simnet::testing::default_net(11);
        let stats = Arc::new(parking_lot::Mutex::new(ClientStats::default()));
        // Client gets loc 0; deployment follows.
        let client_loc = Loc::new(0);
        let options = TobOptions {
            backend,
            mode,
            ..TobOptions::default()
        };
        // The client is added first, so the service deploys from loc 1.
        let servers = options.server_locs(1);
        let client = TobClient::new(servers, Value::str("payload"), n_msgs, stats.clone());
        let added = sim.add_node(Box::new(client));
        assert_eq!(added, client_loc);
        let deployment = TobDeployment::build(&mut sim, &options, vec![client_loc]);
        assert_eq!(deployment.servers[0], Loc::new(1));
        sim.send_at(VTime::ZERO, client_loc, TobClient::start_msg());
        sim.run_until_quiescent(VTime::from_secs(600));
        let out = stats.lock().clone();
        out
    }

    #[test]
    fn server_locs_predicts_where_build_puts_the_servers() {
        for backend in [BackendKind::TwoThird, BackendKind::Paxos] {
            let mut sim = shadowdb_simnet::testing::default_net(3);
            let options = TobOptions {
                backend,
                ..TobOptions::default()
            };
            // Five nodes ahead of the service: a non-zero base.
            let stats = Arc::new(parking_lot::Mutex::new(ClientStats::default()));
            for _ in 0..5 {
                let idle = TobClient::new(options.server_locs(5), Value::Unit, 0, stats.clone());
                sim.add_node(Box::new(idle));
            }
            let predicted = options.server_locs(sim.node_count());
            let deployment = TobDeployment::build(&mut sim, &options, vec![]);
            assert_eq!(predicted, deployment.servers, "{backend:?}");
            assert_eq!(
                deployment.service_locs.len() as u32,
                options.machines * backend.procs_per_machine(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn paxos_backend_delivers_all_messages() {
        let stats = run_deployment(BackendKind::Paxos, ExecutionMode::Compiled, 20);
        assert_eq!(stats.completed.len(), 20);
        assert_eq!(stats.resends, 0);
    }

    #[test]
    fn twothird_backend_delivers_all_messages() {
        let stats = run_deployment(BackendKind::TwoThird, ExecutionMode::Compiled, 20);
        assert_eq!(stats.completed.len(), 20);
    }

    #[test]
    fn interpreted_mode_is_slower_than_compiled() {
        let slow = run_deployment(BackendKind::Paxos, ExecutionMode::Interpreted, 5);
        let fast = run_deployment(BackendKind::Paxos, ExecutionMode::Compiled, 5);
        let slow_lat = slow.mean_latency().expect("completed");
        let fast_lat = fast.mean_latency().expect("completed");
        assert!(
            slow_lat > fast_lat * 5,
            "interpreted {slow_lat:?} should dwarf compiled {fast_lat:?}"
        );
        // One-client latency in the right neighbourhood of Fig. 8
        // (122 ms interpreted, 8.8 ms compiled).
        assert!(
            slow_lat.as_millis() > 60 && slow_lat.as_millis() < 250,
            "{slow_lat:?}"
        );
        assert!(
            fast_lat.as_millis() >= 4 && fast_lat.as_millis() < 25,
            "{fast_lat:?}"
        );
    }
}
