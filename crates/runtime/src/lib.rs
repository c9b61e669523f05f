//! The execution-substrate seam: one deployment graph, three runtimes.
//!
//! The paper's central claim is that *one* verified specification runs
//! unchanged across execution substrates (the SML interpreter, the
//! optimized interpreter, the Lisp-compiled backend). This crate lifts that
//! symmetry one layer up, to *process hosting*: a [`Runtime`] is anything
//! that can spawn a [`Process`] at a location, deliver messages, schedule
//! timers (delayed self-sends), inject crashes and restarts, expose
//! driver-visible mailboxes ([`Runtime::port`]), and report a node-local
//! clock. The deployment builders in `shadowdb::deploy` and
//! `shadowdb_tob::deploy` are generic over this trait, so the same
//! `PbrDeployment`/`SmrDeployment` graph runs under
//!
//! * `shadowdb_simnet::Simulation` — deterministic virtual time (the
//!   experiment testbed),
//! * `shadowdb_tcpnet::TcpNet` — real time over loopback TCP sockets
//!   (the deployment substrate, and the one the benchmark measures), and
//! * `shadowdb_mck::WorldBuilder` — the bounded model checker, which then
//!   verifies the deployment graph that actually ships instead of a
//!   hand-mirrored copy.
//!
//! # Zero cost on the hot path
//!
//! The trait sits on the *control* path (building deployments, injecting
//! faults), not the per-message path: once built, each substrate runs its
//! own delivery loop with no `dyn Runtime` indirection per message. The
//! `perf_smoke` gate measures a fused program stepped through a
//! runtime-built world to keep this honest.

use crossbeam::channel::{self, Receiver, Sender};
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr};
use shadowdb_loe::{Loc, VTime};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Duration;

pub mod completion;
pub mod fault;

pub use completion::{CompletionSink, Route};
pub use fault::{
    FaultPlan, FaultRule, FaultTopology, LinkFault, LinkSel, LinkVerdict, Nemesis, NemesisProfile,
    NodeFault, NodeFaultKind,
};

/// Where a substrate keeps durable per-replica state (write-ahead logs,
/// snapshots).
///
/// The durability plane is substrate-independent the same way the fault
/// plane is: replicas write through `shadowdb-wal` regardless of the
/// runtime, and this mode only selects the backing store. The simulator
/// (and the model checker) report [`StorageMode::Virtual`] — bytes held
/// in memory, each sync reported after a modeled fsync time, surviving
/// crashes because the harness keeps the disk handle across restart. The
/// real-time runtimes report [`StorageMode::File`] with a per-instance
/// scratch root, so commits pay an actual `write + fsync` on a syncer
/// thread and restarted replicas re-read actual files. Either way every
/// runtime carries the disk's completions back into the replica that
/// handed the work off ([`completion`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// In-memory storage with modeled sync cost (simulated substrates).
    Virtual,
    /// Real files under `root`, one subdirectory per named disk.
    File {
        /// The substrate's durable-storage root for this run.
        root: PathBuf,
    },
}

impl StorageMode {
    /// A fresh, process-unique scratch root for one file-backed substrate
    /// instance. The directory itself appears lazily when the first disk
    /// is opened under it; the substrate removes it on shutdown.
    pub fn fresh_file_root(label: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("shadowdb-{label}-{}-{n}", std::process::id()))
    }
}

/// A per-message CPU service-time model (simulated substrates only).
///
/// Lives here rather than in `simnet` so that deployment code generic over
/// [`Runtime`] can install a calibrated cost model without naming the
/// simulator; substrates with real CPUs ignore it.
pub trait CostModel: Send {
    /// CPU time consumed by `dest` to handle `msg`.
    fn handle_cost(&self, dest: Loc, msg: &Msg) -> Duration;
}

/// The zero-cost model: infinitely fast CPUs (pure message-count semantics).
#[derive(Clone, Copy, Debug, Default)]
pub struct ZeroCost;

impl CostModel for ZeroCost {
    fn handle_cost(&self, _dest: Loc, _msg: &Msg) -> Duration {
        Duration::ZERO
    }
}

/// A cost model from a plain function.
#[derive(Clone, Debug)]
pub struct FnCost<F>(pub F);

impl<F> CostModel for FnCost<F>
where
    F: Fn(Loc, &Msg) -> Duration + Send,
{
    fn handle_cost(&self, dest: Loc, msg: &Msg) -> Duration {
        (self.0)(dest, msg)
    }
}

impl CostModel for Box<dyn CostModel> {
    fn handle_cost(&self, dest: Loc, msg: &Msg) -> Duration {
        (**self).handle_cost(dest, msg)
    }
}

/// The receive side of a driver-visible mailbox created by
/// [`Runtime::port`].
///
/// Under `tcpnet` messages arrive asynchronously and
/// [`PortRx::recv_timeout`] blocks in real time; under the simulator
/// messages appear as virtual time advances and drivers read them with
/// [`PortRx::try_recv`]/[`PortRx::drain`] between `run` calls; under the
/// model checker port messages become *observations* visible to the
/// invariant instead (the receiver stays empty).
pub struct PortRx {
    rx: Receiver<Msg>,
}

impl PortRx {
    /// Wraps an existing channel receiver.
    pub fn new(rx: Receiver<Msg>) -> PortRx {
        PortRx { rx }
    }

    /// Creates a connected (sender, receiver) pair. Unbounded on purpose:
    /// the sender is a runtime's delivery loop, which must not block on a
    /// driver that stopped reading, and a message dropped at a bound
    /// would be a loss no protocol sees.
    pub fn pair() -> (Sender<Msg>, PortRx) {
        let (tx, rx) = channel::unbounded();
        (tx, PortRx { rx })
    }

    /// A receiver that never yields a message (model-checker ports, whose
    /// traffic is routed to the invariant as observations).
    pub fn closed() -> PortRx {
        let (_tx, rx) = channel::unbounded();
        PortRx { rx }
    }

    /// Receives a message, waiting up to `timeout` in real time.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Msg> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Receives a message if one is already queued.
    pub fn try_recv(&self) -> Option<Msg> {
        self.rx.try_recv().ok()
    }

    /// Drains every queued message.
    pub fn drain(&self) -> Vec<Msg> {
        let mut out = Vec::new();
        while let Ok(m) = self.rx.try_recv() {
            out.push(m);
        }
        out
    }
}

/// The node a simulated runtime hosts at a port location: forwards every
/// delivered message into the port's channel and emits nothing.
pub struct PortProcess {
    tx: Sender<Msg>,
}

impl PortProcess {
    /// Creates the forwarding node for `tx`.
    pub fn new(tx: Sender<Msg>) -> PortProcess {
        PortProcess { tx }
    }
}

impl Process for PortProcess {
    fn step_into(&mut self, _ctx: &Ctx, msg: &Msg, _out: &mut Vec<SendInstr>) {
        let _ = self.tx.send(msg.clone());
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(PortProcess {
            tx: self.tx.clone(),
        })
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        // Stateless: a constant tag suffices.
        let mut h = HasherAdapter(hasher);
        "runtime/port".hash(&mut h);
    }
}

/// An execution substrate hosting a graph of [`Process`] nodes.
///
/// Locations are allocated sequentially: every call to [`Runtime::add_node`],
/// [`Runtime::add_node_colocated`], or [`Runtime::port`] claims the next
/// `Loc`, starting from [`Runtime::node_count`] at the time of the call.
/// Deployment builders rely on this to precompute the locations of the
/// nodes they are about to add.
///
/// Time is substrate-local: virtual under the simulator and model checker,
/// `start.elapsed()` under real threads. `*_at` methods clamp past instants
/// to "now".
pub trait Runtime {
    /// Hosts `process` at the next location (on its own CPU where the
    /// substrate models CPUs) and returns that location.
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc;

    /// Hosts `process` at the next location, on the same machine as
    /// `peer` — the paper's composed broadcast machine, whose roles are
    /// separate locations. The simulator charges both to one CPU; tcpnet
    /// runs both on `peer`'s shard thread and hands messages between them
    /// in memory instead of over a socket, with the fault plane's verdicts
    /// unchanged. The model checker ignores placement (the default here,
    /// which is [`Runtime::add_node`]). The location sequence is identical
    /// on every substrate.
    fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        let _ = peer;
        self.add_node(process)
    }

    /// Hosts `process` at the next location *after the system started
    /// running* — the online-reconfiguration entry point. Every substrate
    /// here allocates nodes from a growable table, so the default simply
    /// delegates to [`Runtime::add_node`]; the separate name keeps the
    /// capability explicit at call sites (deploy-time builders use
    /// `add_node`, `ReconfigHandle` uses `add_node_late`) and gives
    /// substrates with launch-time setup (socket binding, thread spawning)
    /// a seam to override.
    fn add_node_late(&mut self, process: Box<dyn Process>) -> Loc {
        self.add_node(process)
    }

    /// Number of locations allocated so far (nodes and ports); the next
    /// allocation returns this value as its `Loc`.
    fn node_count(&self) -> u32;

    /// The node-local clock.
    fn now(&self) -> VTime;

    /// Injects `msg` from outside the system, delivered to `dest` at `at`
    /// (or as soon as possible if `at` is in the past). External injections
    /// bypass the network model.
    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg);

    /// Crashes the node at `loc` at time `at`: it loses volatile state and
    /// silently drops deliveries until restarted.
    fn crash_at(&mut self, at: VTime, loc: Loc);

    /// Restarts the node at `loc` at time `at` with a fresh process (crash
    /// failures lose volatile state; `process` starts from whatever state
    /// it was constructed with, e.g. recovered from a snapshot).
    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>);

    /// Installs a per-message CPU service-time model. Substrates whose
    /// nodes consume real CPU ignore this (the default).
    fn set_cost_model(&mut self, cost: Box<dyn CostModel>) {
        drop(cost);
    }

    /// Creates a driver-visible mailbox at the next location: messages sent
    /// to it are handed to the returned receiver instead of a process.
    fn port(&mut self) -> (Loc, PortRx);

    /// Lets the system execute for `duration` of substrate time: advances
    /// virtual time under the simulator, sleeps wall-clock under real
    /// threads. The model checker ignores this (exploration is driven by
    /// its own `explore` entry point).
    fn run_for(&mut self, duration: Duration);

    /// Installs the link-fault schedule of a [`FaultPlan`]: subsequent
    /// node-to-node deliveries consult the plan's windows. Node events in
    /// the plan are *not* applied here — use [`schedule_node_faults`],
    /// which needs a process factory for restarts. Substrates without a
    /// network model (the model checker, whose adversary already explores
    /// reorderings) ignore this — the default.
    fn install_fault_plan(&mut self, plan: FaultPlan) {
        drop(plan);
    }

    /// Counters for messages the installed fault plan acted on, as
    /// `(dropped, duplicated)`. Substrates that ignore plans report zeros.
    fn fault_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Where this substrate keeps durable per-replica state. Simulated
    /// substrates (and the model checker) default to virtual storage;
    /// real-time runtimes override with a file root.
    fn storage_mode(&self) -> StorageMode {
        StorageMode::Virtual
    }
}

/// Applies a plan's node crash/restart events to a runtime. `factory`
/// builds the process a restart comes back as, given the restart kind:
/// for [`NodeFaultKind::Restart`] a fresh amnesiac process (the disk was
/// lost with the machine), for [`NodeFaultKind::RestartDurable`] a
/// process that recovers from its surviving disk (reboot after power
/// loss). Return `None` to skip that restart.
pub fn schedule_node_faults<R: Runtime + ?Sized>(
    rt: &mut R,
    plan: &FaultPlan,
    mut factory: impl FnMut(Loc, NodeFaultKind) -> Option<Box<dyn Process>>,
) {
    for f in &plan.node_faults {
        match f.kind {
            NodeFaultKind::Crash => rt.crash_at(f.at, f.loc),
            NodeFaultKind::Restart | NodeFaultKind::RestartDurable => {
                if let Some(p) = factory(f.loc, f.kind) {
                    rt.restart_at(f.at, f.loc, p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_eventml::Value;

    #[test]
    fn port_process_forwards() {
        let (tx, rx) = PortRx::pair();
        let mut p = PortProcess::new(tx);
        let mut out = Vec::new();
        p.step_into(
            &Ctx::at(Loc::new(3)),
            &Msg::new("hello", Value::Int(7)),
            &mut out,
        );
        assert!(out.is_empty());
        let got = rx.try_recv().expect("forwarded");
        assert_eq!(got.header.name(), "hello");
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn closed_port_stays_empty() {
        let rx = PortRx::closed();
        assert_eq!(rx.try_recv(), None);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn boxed_cost_model_delegates() {
        let boxed: Box<dyn CostModel> =
            Box::new(FnCost(|_l: Loc, _m: &Msg| Duration::from_millis(2)));
        assert_eq!(
            boxed.handle_cost(Loc::new(0), &Msg::new("x", Value::Unit)),
            Duration::from_millis(2)
        );
        assert_eq!(
            ZeroCost.handle_cost(Loc::new(0), &Msg::new("x", Value::Unit)),
            Duration::ZERO
        );
    }

    #[test]
    fn fn_cost_dispatches_on_header() {
        let model = FnCost(|_d: Loc, m: &Msg| {
            if m.header.name() == "slow" {
                Duration::from_millis(5)
            } else {
                Duration::from_micros(10)
            }
        });
        assert_eq!(
            model.handle_cost(Loc::new(0), &Msg::new("slow", Value::Unit)),
            Duration::from_millis(5)
        );
        assert_eq!(
            model.handle_cost(Loc::new(0), &Msg::new("fast", Value::Unit)),
            Duration::from_micros(10)
        );
    }
}
