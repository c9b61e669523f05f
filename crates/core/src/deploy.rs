//! Full ShadowDB deployments into any [`Runtime`].
//!
//! Mirrors the paper's testbed (Sec. IV): the broadcast service runs on
//! three machines, "databases are co-located with the processes of the
//! broadcast service", and clients run on a separate machine. PBR deploys
//! two active replicas plus a spare; SMR deploys replicas at every service
//! machine. The builders are generic over the execution substrate: the
//! same deployment graph runs under the simulator, on real sockets
//! (`shadowdb-tcpnet`), and inside the model checker (`shadowdb-mck`).

use crate::client::{DbClient, DbClientStats, Submission};
use crate::diversity::DiversityPolicy;
use crate::msgs::{
    config_query_msg, parse_config_reply, ConfigCommand, ConfigReport, ReplicaConfig,
};
use crate::pbr::{PbrOptions, PbrReplica, TransferProbe};
use crate::shard::{GroupRoute, ShardRole, TwoPcProbe};
use crate::smr::{SmrLeaseOptions, SmrReplica};
use parking_lot::Mutex;
use shadowdb_eventml::{Process, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{PortRx, Runtime};
use shadowdb_sqldb::Database;
use shadowdb_tob::deploy::BackendKind;
use shadowdb_tob::{broadcast_msg, subscribe_msg, unsubscribe_msg};
use shadowdb_tob::{ExecutionMode, TobDeployment, TobOptions};
use shadowdb_wal::Disk;
use shadowdb_workloads::{ShardMap, TxnRequest};
use std::sync::Arc;
use std::time::Duration;

/// Loads schema and one shard's rows into a group database; the shard id
/// comes first so the same closure serves every group.
pub type ShardLoader = Box<dyn Fn(usize, &Database)>;

/// Options shared by every deployment shape.
pub struct DeployOptions {
    /// Number of clients (each gets its own location).
    pub n_clients: usize,
    /// Produces the transaction list for client `i`.
    pub client_txns: Box<dyn Fn(usize) -> Vec<TxnRequest>>,
    /// Engine assignment across replicas (applied within each group).
    pub diversity: DiversityPolicy,
    /// Loads schema and **only shard `shard`'s rows** into one of that
    /// group's databases (an unsharded deployment is shard 0 of 1).
    pub loader: ShardLoader,
    /// Broadcast-service execution mode.
    pub mode: ExecutionMode,
    /// Client retransmission timeout.
    pub client_timeout: Duration,
    /// Transactions-per-proposal bound in each broadcast service.
    pub max_batch: usize,
    /// Broadcast-service pipelining window (concurrent slot proposals per
    /// server). `None` uses the backend default (8 for Paxos, 1 for
    /// TwoThird).
    pub window: Option<usize>,
    /// PBR only: replicas in each group's active configuration (the paper
    /// runs 2, "the third database is used to replace the backup";
    /// overlapped state transfer needs 3).
    pub active_replicas: usize,
    /// Number of broadcast-service machines per group (the paper uses 3).
    pub machines: u32,
    /// Consensus module of the broadcast service. Paxos matches the paper;
    /// TwoThird keeps the state space small enough for exhaustive model
    /// checking (Paxos leader timers re-arm forever, which a checker
    /// exploring all timings cannot bound).
    pub backend: BackendKind,
    /// Whether the builder schedules the client kick-off messages itself
    /// (at 1 ms on the runtime clock). Harnesses that must do work between
    /// deployment and workload start — e.g. installing a fault plan whose
    /// windows are anchored at the workload epoch — set this to `false`
    /// and send [`DbClient::start_msg`] to each client themselves.
    pub start_clients: bool,
    /// Durability plane: when set, every replica runs a per-replica WAL
    /// over the runtime's [`shadowdb_runtime::StorageMode`] (virtual
    /// bytes with modeled fsync cost under the simulator; real files
    /// under the thread and socket runtimes). The deployment exposes the
    /// disks so harnesses can restart a replica from its durable state.
    pub durability: Option<DurabilityOptions>,
    /// SMR only: enable the lease-based read fast path on every replica
    /// and route clients' read-only (single-shard) first attempts directly
    /// to the owning group's believed holder. PBR leases ride
    /// [`PbrOptions`] instead.
    pub smr_leases: Option<SmrLeaseOptions>,
    /// Number of replica groups, each with its own broadcast service,
    /// partitioning one logical database by [`ShardMap`]. More than one
    /// group needs the clients-last layout of [`ShardedDeployment`].
    pub shards: usize,
    /// Optional cross-shard commit observer, shared by every replica of a
    /// [`ShardedDeployment`]; the chaos harness checks it with
    /// [`crate::shard::check_two_pc_atomicity`].
    pub probe: Option<TwoPcProbe>,
}

/// Per-replica durable-storage settings.
#[derive(Clone)]
pub struct DurabilityOptions {
    /// Take a durable snapshot (and truncate the log) every this many
    /// WAL records.
    pub snapshot_every: i64,
    /// Fsync latency: charged virtually per group commit under the
    /// simulator, borne for real under file-backed runtimes.
    pub fsync_cost: Duration,
    /// SMR: recent-delivery cache entries a durable replica keeps so it
    /// can serve suffix-only rejoins as a donor.
    pub recent_limit: usize,
    /// Donor-side probe recording which transfer path each rejoin took
    /// (soaks assert disk recovery never needs a full snapshot).
    pub transfer_probe: Option<TransferProbe>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            snapshot_every: 512,
            fsync_cost: Duration::from_micros(250),
            recent_limit: 4_096,
            transfer_probe: None,
        }
    }
}

impl DeployOptions {
    /// A small default: one replica group, `n_clients` clients running the
    /// given per-client transaction scripts over an unloaded H2 database.
    pub fn new(
        n_clients: usize,
        client_txns: impl Fn(usize) -> Vec<TxnRequest> + 'static,
        loader: impl Fn(&Database) + 'static,
    ) -> DeployOptions {
        DeployOptions::sharded(1, n_clients, client_txns, move |_, db| loader(db))
    }

    /// The same defaults over `shards` replica groups, with a per-shard
    /// loader (for [`ShardedDeployment`]).
    pub fn sharded(
        shards: usize,
        n_clients: usize,
        client_txns: impl Fn(usize) -> Vec<TxnRequest> + 'static,
        loader: impl Fn(usize, &Database) + 'static,
    ) -> DeployOptions {
        DeployOptions {
            n_clients,
            client_txns: Box::new(client_txns),
            diversity: DiversityPolicy::Uniform,
            loader: Box::new(loader),
            mode: ExecutionMode::Compiled,
            client_timeout: Duration::from_secs(20),
            max_batch: 64,
            window: None,
            active_replicas: 2,
            machines: 3,
            backend: BackendKind::Paxos,
            start_clients: true,
            durability: None,
            smr_leases: None,
            shards,
            probe: None,
        }
    }

    /// The options of each group's broadcast service.
    fn tob(&self) -> TobOptions {
        TobOptions {
            machines: self.machines,
            backend: self.backend,
            mode: self.mode,
            max_batch: self.max_batch,
            window: self.window,
            ..TobOptions::default()
        }
    }
}

/// Where one replica group's nodes live: the broadcast servers (each
/// followed by its co-located consensus roles), then the replicas. A pure
/// function of the group's first location, so routes to *all* groups are
/// known before any node exists.
struct GroupLayout {
    servers: Vec<Loc>,
    replicas: Vec<Loc>,
}

impl GroupLayout {
    fn at(options: &DeployOptions, pbr: bool, base: u32) -> GroupLayout {
        let n_replicas = if pbr {
            options.active_replicas as u32 + 1 // plus one spare
        } else {
            options.machines // one state machine per service machine
        };
        let replica_base = base + options.machines * options.backend.procs_per_machine();
        GroupLayout {
            servers: options.tob().server_locs(base),
            replicas: (0..n_replicas)
                .map(|i| Loc::new(replica_base + i))
                .collect(),
        }
    }

    /// How clients submit to this group.
    fn submission(&self, options: &DeployOptions, pbr: bool) -> Submission {
        if pbr {
            return Submission::Pbr {
                replicas: self.replicas.clone(),
            };
        }
        Submission::Smr {
            servers: self.servers.clone(),
            replicas: match options.smr_leases {
                Some(_) => self.replicas.clone(),
                None => Vec::new(),
            },
        }
    }
}

/// One deployed replica group.
pub struct ShardGroup {
    /// Replica locations; under PBR `[primary, backup, spare]`.
    pub replicas: Vec<Loc>,
    /// The group's broadcast service.
    pub tob: TobDeployment,
    /// One durable disk per replica (same order as `replicas`); empty
    /// unless the deployment was built with [`DeployOptions::durability`].
    pub disks: Vec<Disk>,
}

/// Instantiates one replica group at the runtime's next free locations —
/// its broadcast service, then every replica with its loaded database,
/// WAL disk, lease plane and shard role — for every deployment shape
/// alike. `pbr` selects the ordering policy. Replicas are co-located with
/// the service machines but run in their own JVM, which the quad-core
/// testbed schedules on separate cores: they get their own CPU timeline.
fn build_group<R: Runtime + ?Sized>(
    rt: &mut R,
    options: &DeployOptions,
    pbr: Option<&PbrOptions>,
    layout: &GroupLayout,
    shard: usize,
    role: Option<ShardRole>,
) -> ShardGroup {
    // PBR replicas subscribe for reconfigurations; SMR replicas *are* the
    // state machines and take every delivery.
    let tob = TobDeployment::build(rt, &options.tob(), layout.replicas.clone());
    assert_eq!(tob.servers, layout.servers);
    let (members, spares) = layout
        .replicas
        .split_at(options.active_replicas.min(layout.replicas.len()));
    let storage = rt.storage_mode();
    let mut disks = Vec::new();
    for (i, r) in layout.replicas.iter().enumerate() {
        let db = options.diversity.database(i);
        (options.loader)(shard, &db);
        let durable = options.durability.as_ref().map(|dur| {
            let name = format!("replica-{}", shard * layout.replicas.len() + i);
            (dur, Disk::open(&storage, &name, dur.fsync_cost))
        });
        disks.extend(durable.iter().map(|(_, disk)| disk.clone()));
        let node: Box<dyn Process> = match pbr {
            Some(pbr) => {
                let mut replica = PbrReplica::new(
                    db,
                    ReplicaConfig::initial(members.to_vec()),
                    spares.to_vec(),
                    layout.servers.clone(),
                    pbr.clone(),
                );
                if let Some(role) = &role {
                    replica = replica.with_role(role.clone());
                }
                if let Some((dur, disk)) = durable {
                    replica = replica.with_wal(disk, dur.snapshot_every);
                    if let Some(p) = &dur.transfer_probe {
                        replica = replica.with_transfer_probe(p.clone());
                    }
                }
                Box::new(replica)
            }
            None => {
                let mut replica = SmrReplica::new(db);
                if let Some(role) = &role {
                    replica = replica.with_role(role.clone());
                }
                if let Some((dur, disk)) = durable {
                    replica = replica.with_wal(disk, dur.snapshot_every, dur.recent_limit);
                    if let Some(p) = &dur.transfer_probe {
                        replica = replica.with_transfer_probe(p.clone());
                    }
                }
                if let Some(lease) = &options.smr_leases {
                    replica =
                        replica.with_read_leases(layout.servers.clone(), i as u64, lease.clone());
                }
                Box::new(replica)
            }
        };
        assert_eq!(rt.add_node(node), *r);
    }
    if pbr.is_none() && options.smr_leases.is_some() {
        for r in &layout.replicas {
            rt.send_at(VTime::ZERO, *r, SmrReplica::lease_start_msg());
        }
    }
    ShardGroup {
        replicas: layout.replicas.clone(),
        tob,
        disks,
    }
}

/// Client locations and their measurement handles (one per client).
type Clients = (Vec<Loc>, Vec<Arc<Mutex<DbClientStats>>>);

/// Adds the deployment's clients at the runtime's next free locations.
fn build_clients<R: Runtime + ?Sized>(
    rt: &mut R,
    options: &DeployOptions,
    submission: &Submission,
) -> Clients {
    let mut stats = Vec::new();
    let mut clients = Vec::new();
    for i in 0..options.n_clients {
        let s = Arc::new(Mutex::new(DbClientStats::default()));
        stats.push(s.clone());
        let client = DbClient::new(submission.clone(), (options.client_txns)(i), s)
            .with_timeout(options.client_timeout);
        clients.push(rt.add_node(Box::new(client)));
    }
    (clients, stats)
}

/// Kicks off PBR replicas (their heartbeat timers) and — unless the
/// harness starts them itself — the clients.
fn start<R: Runtime + ?Sized>(
    rt: &mut R,
    options: &DeployOptions,
    pbr_replicas: &[Loc],
    clients: &[Loc],
) {
    for r in pbr_replicas {
        rt.send_at(VTime::ZERO, *r, PbrReplica::start_msg());
    }
    if options.start_clients {
        for cl in clients {
            rt.send_at(VTime::from_millis(1), *cl, DbClient::start_msg());
        }
    }
}

/// Builds an unsharded deployment in the paper's layout: clients first,
/// then the one replica group.
fn build_unsharded<R: Runtime + ?Sized>(
    rt: &mut R,
    options: &DeployOptions,
    pbr: Option<&PbrOptions>,
) -> (Clients, ShardGroup) {
    assert_eq!(
        options.shards, 1,
        "the clients-first layout hosts one group; use ShardedDeployment"
    );
    let base = rt.node_count() + options.n_clients as u32;
    let layout = GroupLayout::at(options, pbr.is_some(), base);
    let clients = build_clients(rt, options, &layout.submission(options, pbr.is_some()));
    let group = build_group(rt, options, pbr, &layout, 0, None);
    let starting: &[Loc] = if pbr.is_some() { &group.replicas } else { &[] };
    start(rt, options, starting, &clients.0);
    (clients, group)
}

/// A deployed primary-backup ShadowDB.
pub struct PbrDeployment {
    /// Replica locations: `[primary, backup, spare]`.
    pub replicas: Vec<Loc>,
    /// Client locations.
    pub clients: Vec<Loc>,
    /// Client measurement handles (one per client).
    pub stats: Vec<Arc<Mutex<DbClientStats>>>,
    /// The broadcast service underneath.
    pub tob: TobDeployment,
    /// One durable disk per replica (same order as `replicas`); empty
    /// unless the deployment was built with [`DeployOptions::durability`].
    pub disks: Vec<Disk>,
}

impl PbrDeployment {
    /// Builds the deployment into `rt` and schedules the start messages.
    /// The paper runs the PBR broadcast service in the interpreter; pass
    /// [`ExecutionMode::InterpretedOpt`] in `options.mode` to match.
    pub fn build<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &DeployOptions,
        pbr: PbrOptions,
    ) -> PbrDeployment {
        let ((clients, stats), group) = build_unsharded(rt, options, Some(&pbr));
        PbrDeployment {
            replicas: group.replicas,
            clients,
            stats,
            tob: group.tob,
            disks: group.disks,
        }
    }

    /// Total committed transactions across clients.
    pub fn committed(&self) -> usize {
        self.stats.iter().map(|s| s.lock().committed()).sum()
    }

    /// A driver-side handle for reconfiguring this group online: add,
    /// remove, promote, and replace replicas while the deployment serves.
    pub fn reconfig<R: Runtime + ?Sized>(
        &self,
        rt: &mut R,
        pbr: PbrOptions,
        diversity: DiversityPolicy,
        loader: impl Fn(&Database) + 'static,
    ) -> ReconfigHandle {
        let kind = ReconfigKind::Pbr(pbr);
        ReconfigHandle::new(rt, kind, None, &self.tob, &self.replicas, diversity, loader)
    }
}

/// A deployed state-machine-replicated ShadowDB.
pub struct SmrDeployment {
    /// Replica locations (one per service machine).
    pub replicas: Vec<Loc>,
    /// Client locations.
    pub clients: Vec<Loc>,
    /// Client measurement handles.
    pub stats: Vec<Arc<Mutex<DbClientStats>>>,
    /// The broadcast service underneath.
    pub tob: TobDeployment,
    /// One durable disk per replica (same order as `replicas`); empty
    /// unless the deployment was built with [`DeployOptions::durability`].
    pub disks: Vec<Disk>,
}

impl SmrDeployment {
    /// Builds the deployment into `rt` and schedules the start messages.
    /// The paper runs the SMR broadcast service compiled (Lisp); the
    /// default [`ExecutionMode::Compiled`] matches.
    pub fn build<R: Runtime + ?Sized>(rt: &mut R, options: &DeployOptions) -> SmrDeployment {
        let ((clients, stats), group) = build_unsharded(rt, options, None);
        SmrDeployment {
            replicas: group.replicas,
            clients,
            stats,
            tob: group.tob,
            disks: group.disks,
        }
    }

    /// Total committed transactions across clients.
    pub fn committed(&self) -> usize {
        self.stats.iter().map(|s| s.lock().committed()).sum()
    }

    /// A driver-side handle for reconfiguring this group online. SMR
    /// membership is the broadcast service's subscriber set: adding a
    /// replica subscribes a snapshot-joining node, removing one
    /// unsubscribes it; there is no configuration command and promotion
    /// is meaningless (every replica executes everything).
    pub fn reconfig<R: Runtime + ?Sized>(
        &self,
        rt: &mut R,
        diversity: DiversityPolicy,
        loader: impl Fn(&Database) + 'static,
    ) -> ReconfigHandle {
        let kind = ReconfigKind::Smr;
        ReconfigHandle::new(rt, kind, None, &self.tob, &self.replicas, diversity, loader)
    }
}

/// How long each polling slice of a [`ReconfigHandle`] drives the runtime
/// before draining replies.
const RECONFIG_SLICE: Duration = Duration::from_millis(5);

/// The per-operation configuration kind of a [`ReconfigHandle`].
enum ReconfigKind {
    /// Primary-backup: membership is replicated state, changed through
    /// CAS-guarded configuration commands ordered by the TOB.
    Pbr(PbrOptions),
    /// State-machine replication: membership is the subscriber set.
    Smr,
}

/// A driver-side handle exposing online reconfiguration of one replica
/// group: adding a fresh replica (with live overlapped state transfer),
/// removing one, promoting a preferred primary, and the composite
/// replace. Operations drive the runtime in small slices ([`Runtime::
/// run_for`]) while polling replica configuration reports, so the same
/// handle works under the simulator, threads, and real sockets.
pub struct ReconfigHandle {
    /// The handle's own mailbox; configuration replies land here.
    port: Loc,
    rx: PortRx,
    kind: ReconfigKind,
    /// Sharded deployments: the group's place in the shard map, so a
    /// joiner participates in cross-shard 2PC once caught up.
    role: Option<ShardRole>,
    /// The group's broadcast-service entry points.
    servers: Vec<Loc>,
    /// Every replica location known to the handle: deploy-time members,
    /// spares, and joiners added since. Queries fan out to all of them;
    /// removed replicas stay addressable (they answer with the
    /// configuration that excluded them, which is still evidence).
    replicas: Vec<Loc>,
    diversity: DiversityPolicy,
    /// Loads schema (and initial data) into a joiner's database, exactly
    /// as the deployment loaded the original replicas — a catch-up replay
    /// from sequence zero must land on the same starting state.
    loader: Box<dyn Fn(&Database)>,
    /// Engine index for the next joiner's database (continues the
    /// deployment's diversity rotation).
    next_db: usize,
    /// Monotone msgid for configuration-command broadcasts.
    bcast_seq: i64,
}

impl ReconfigHandle {
    fn new<R: Runtime + ?Sized>(
        rt: &mut R,
        kind: ReconfigKind,
        role: Option<ShardRole>,
        tob: &TobDeployment,
        replicas: &[Loc],
        diversity: DiversityPolicy,
        loader: impl Fn(&Database) + 'static,
    ) -> ReconfigHandle {
        let (port, rx) = rt.port();
        ReconfigHandle {
            port,
            rx,
            kind,
            role,
            servers: tob.servers.clone(),
            replicas: replicas.to_vec(),
            diversity,
            loader: Box::new(loader),
            next_db: replicas.len(),
            bcast_seq: 0,
        }
    }

    /// Every replica location the handle knows of (including removed
    /// ones).
    pub fn replicas(&self) -> &[Loc] {
        &self.replicas
    }

    fn broadcast<R: Runtime + ?Sized>(&mut self, rt: &mut R, payload: Value) {
        let server = self.servers[(self.bcast_seq as usize) % self.servers.len()];
        let msgid = self.bcast_seq;
        self.bcast_seq += 1;
        let now = rt.now();
        rt.send_at(now, server, broadcast_msg(self.port, msgid, payload));
    }

    /// Polls the group for its current configuration: fans a query out to
    /// every known replica, drives the runtime, and returns the report
    /// with the highest configuration sequence (preferring Normal-mode
    /// reporters at equal sequence). Reports from unsettled joiners
    /// (negative sequence or empty membership) are ignored — acting on
    /// one would fabricate a membership. `None` after `deadline` means no
    /// settled replica answered.
    pub fn query_config<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        deadline: Duration,
    ) -> Option<ConfigReport> {
        let slices = (deadline.as_micros() / RECONFIG_SLICE.as_micros()).max(1);
        let _ = self.rx.drain();
        for _ in 0..slices {
            for r in self.replicas.clone() {
                let now = rt.now();
                rt.send_at(now, r, config_query_msg(self.port));
            }
            rt.run_for(RECONFIG_SLICE);
            let mut best: Option<ConfigReport> = None;
            for m in self.rx.drain() {
                let Some(rep) = parse_config_reply(&m) else {
                    continue;
                };
                if rep.config.seq < 0 || rep.config.members.is_empty() {
                    continue;
                }
                let better = best.as_ref().is_none_or(|b| {
                    rep.config.seq > b.config.seq
                        || (rep.config.seq == b.config.seq && rep.normal && !b.normal)
                });
                if better {
                    best = Some(rep);
                }
            }
            if best.is_some() {
                return best;
            }
        }
        None
    }

    /// Polls `loc` until it reports itself a Normal-mode member of the
    /// current configuration — i.e. its state transfer has finished and
    /// it executes live traffic. Returns whether that happened before
    /// `deadline`.
    pub fn await_member<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        loc: Loc,
        deadline: Duration,
    ) -> bool {
        let slices = (deadline.as_micros() / RECONFIG_SLICE.as_micros()).max(1);
        for _ in 0..slices {
            let now = rt.now();
            rt.send_at(now, loc, config_query_msg(self.port));
            rt.run_for(RECONFIG_SLICE);
            for m in self.rx.drain() {
                if let Some(rep) = parse_config_reply(&m) {
                    if rep.from == loc && rep.normal && rep.config.contains(loc) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Adds a fresh replica to the group while it serves, returning the
    /// new location. Under PBR this deploys a joiner, subscribes it at
    /// every broadcast server (so the configuration command that names it
    /// is guaranteed to reach it), then CAS-broadcasts `AddReplica` until
    /// a configuration containing the joiner is adopted — the state
    /// transfer itself overlaps live traffic inside the replicas. Under
    /// SMR the joiner drives its own snapshot fetch off the subscription
    /// ack; membership *is* the subscriber set, so the add is complete
    /// once subscribed (use convergence checks, not `await_member`, to
    /// observe the catch-up). Returns `None` if the configuration change
    /// was not adopted before `deadline`.
    pub fn add_replica<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        deadline: Duration,
    ) -> Option<Loc> {
        let db = self.diversity.database(self.next_db);
        self.next_db += 1;
        (self.loader)(&db);
        match &self.kind {
            ReconfigKind::Pbr(options) => {
                let mut joiner = PbrReplica::joiner(db, self.servers.clone(), options.clone());
                if let Some(role) = &self.role {
                    joiner = joiner.with_role(role.clone());
                }
                let loc = rt.add_node_late(Box::new(joiner));
                let now = rt.now();
                rt.send_at(now, loc, PbrReplica::start_msg());
                for s in self.servers.clone() {
                    let now = rt.now();
                    rt.send_at(now, s, subscribe_msg(loc));
                }
                // Let the subscription land before the command's slot can
                // decide: the joiner must see its own `AddReplica`.
                rt.run_for(RECONFIG_SLICE * 4);
                self.replicas.push(loc);
                let slices = (deadline.as_micros() / (RECONFIG_SLICE.as_micros() * 8)).max(1);
                for _ in 0..slices {
                    let Some(rep) = self.query_config(rt, RECONFIG_SLICE * 4) else {
                        continue;
                    };
                    if rep.config.contains(loc) {
                        return Some(loc);
                    }
                    if let Some(cmd) = ConfigCommand::add(&rep.config.members, loc) {
                        self.broadcast(rt, cmd.to_payload(rep.config.seq));
                    }
                    rt.run_for(RECONFIG_SLICE * 4);
                }
                None
            }
            ReconfigKind::Smr => {
                let mut joiner = SmrReplica::joining_from(db, self.replicas.clone());
                if let Some(role) = &self.role {
                    joiner = joiner.with_role(role.clone());
                }
                let loc = rt.add_node_late(Box::new(joiner));
                for s in self.servers.clone() {
                    let now = rt.now();
                    rt.send_at(now, s, subscribe_msg(loc));
                }
                self.replicas.push(loc);
                Some(loc)
            }
        }
    }

    /// Removes `loc` from the group's membership while it serves. Under
    /// PBR this CAS-broadcasts `RemoveReplica` until a configuration
    /// without `loc` is adopted; under SMR it unsubscribes `loc` from
    /// every broadcast server. Returns whether the removal was adopted
    /// before `deadline` (vacuously true if `loc` was not a member).
    pub fn remove_replica<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        loc: Loc,
        deadline: Duration,
    ) -> bool {
        match &self.kind {
            ReconfigKind::Pbr(_) => {
                let slices = (deadline.as_micros() / (RECONFIG_SLICE.as_micros() * 8)).max(1);
                for _ in 0..slices {
                    let Some(rep) = self.query_config(rt, RECONFIG_SLICE * 4) else {
                        continue;
                    };
                    if !rep.config.contains(loc) {
                        return true;
                    }
                    if let Some(cmd) = ConfigCommand::remove(&rep.config.members, loc) {
                        self.broadcast(rt, cmd.to_payload(rep.config.seq));
                    }
                    rt.run_for(RECONFIG_SLICE * 4);
                }
                false
            }
            ReconfigKind::Smr => {
                for s in self.servers.clone() {
                    let now = rt.now();
                    rt.send_at(now, s, unsubscribe_msg(loc));
                }
                self.replicas.retain(|r| *r != loc);
                true
            }
        }
    }

    /// CAS-broadcasts `Promote` until the configuration sequence
    /// advances, installing `loc` as the election's tie-break preference.
    /// The highest-executed member still wins outright — a
    /// promoted-but-behind replica must not cost committed transactions —
    /// so the new primary is `loc` only if it is fully caught up. Under
    /// SMR this is a no-op (there is no primary). Returns whether the
    /// command was adopted before `deadline`.
    pub fn promote<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        loc: Loc,
        deadline: Duration,
    ) -> bool {
        match &self.kind {
            ReconfigKind::Pbr(_) => {
                let Some(start) = self.query_config(rt, deadline) else {
                    return false;
                };
                let slices = (deadline.as_micros() / (RECONFIG_SLICE.as_micros() * 8)).max(1);
                for _ in 0..slices {
                    let Some(rep) = self.query_config(rt, RECONFIG_SLICE * 4) else {
                        continue;
                    };
                    if rep.config.seq > start.config.seq {
                        return true;
                    }
                    if let Some(cmd) = ConfigCommand::promote(&rep.config.members, loc) {
                        self.broadcast(rt, cmd.to_payload(rep.config.seq));
                    } else {
                        return false; // not a member: nothing to promote
                    }
                    rt.run_for(RECONFIG_SLICE * 4);
                }
                false
            }
            ReconfigKind::Smr => true,
        }
    }

    /// The acceptance scenario's composite: add a fresh replica, wait for
    /// its transfer to finish, then remove `victim` — one replica of the
    /// group replaced under live load, with no point at which the group
    /// dropped below its original redundancy. Returns the new location,
    /// or `None` if any phase missed its share of `deadline`.
    pub fn replace_replica<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        victim: Loc,
        deadline: Duration,
    ) -> Option<Loc> {
        let share = deadline / 3;
        let added = self.add_replica(rt, share)?;
        match &self.kind {
            ReconfigKind::Pbr(_) => {
                if !self.await_member(rt, added, share) {
                    return None;
                }
            }
            // SMR joins converge on their own; the delivery stream the
            // joiner subscribed to is the group's state.
            ReconfigKind::Smr => rt.run_for(share),
        }
        self.remove_replica(rt, victim, share).then_some(added)
    }
}

/// A deployed sharded ShadowDB: `shards` independent replica groups over
/// one [`Runtime`], with clients routing single-shard transactions
/// straight to the owning group and cross-shard transactions through
/// deterministic 2PC-over-TOB (see [`crate::shard`]).
///
/// Layout: groups first (each group's broadcast servers then its
/// replicas), clients **last** — the opposite of the unsharded builders —
/// so fault harnesses can target the contiguous core prefix.
pub struct ShardedDeployment {
    /// The keyspace partitioning.
    pub map: ShardMap,
    /// One entry per shard.
    pub groups: Vec<ShardGroup>,
    /// Client locations.
    pub clients: Vec<Loc>,
    /// Client measurement handles.
    pub stats: Vec<Arc<Mutex<DbClientStats>>>,
    /// Routes to every group (for rebuilding a joiner's [`ShardRole`]).
    routes: Vec<GroupRoute>,
    /// The deployment's cross-shard commit observer, if any.
    probe: Option<TwoPcProbe>,
    /// The PBR options groups were built with (`None` for SMR groups).
    pbr: Option<PbrOptions>,
}

impl ShardedDeployment {
    /// Builds `options.shards` primary-backup groups.
    pub fn build_pbr<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &DeployOptions,
        pbr: PbrOptions,
    ) -> ShardedDeployment {
        Self::build(rt, options, Some(pbr))
    }

    /// Builds `options.shards` state-machine-replicated groups.
    pub fn build_smr<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &DeployOptions,
    ) -> ShardedDeployment {
        Self::build(rt, options, None)
    }

    fn build<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &DeployOptions,
        pbr: Option<PbrOptions>,
    ) -> ShardedDeployment {
        let map = ShardMap::new(options.shards);
        let base = rt.node_count();
        let first = GroupLayout::at(options, pbr.is_some(), base);
        let span = (first.replicas.last().expect("replicas").index() + 1) - base;
        let layouts: Vec<GroupLayout> = (0..options.shards as u32)
            .map(|g| GroupLayout::at(options, pbr.is_some(), base + g * span))
            .collect();
        // Replicas need routes to every group to address 2PC records at
        // peers.
        let routes: Vec<GroupRoute> = layouts
            .iter()
            .map(|l| match &pbr {
                Some(_) => GroupRoute::Pbr {
                    replicas: l.replicas.clone(),
                },
                None => GroupRoute::Smr {
                    servers: l.servers.clone(),
                },
            })
            .collect();
        let mut groups = Vec::new();
        for (shard, layout) in layouts.iter().enumerate() {
            let role = ShardRole {
                map,
                shard,
                routes: routes.clone(),
                probe: options.probe.clone(),
            };
            groups.push(build_group(
                rt,
                options,
                pbr.as_ref(),
                layout,
                shard,
                Some(role),
            ));
        }

        // Clients last.
        let submission = Submission::Sharded {
            map,
            groups: layouts
                .iter()
                .map(|l| l.submission(options, pbr.is_some()))
                .collect(),
        };
        let (clients, stats) = build_clients(rt, options, &submission);
        let starting: Vec<Loc> = match pbr {
            Some(_) => groups.iter().flat_map(|g| g.replicas.clone()).collect(),
            None => Vec::new(),
        };
        start(rt, options, &starting, &clients);
        ShardedDeployment {
            map,
            groups,
            clients,
            stats,
            routes,
            probe: options.probe.clone(),
            pbr,
        }
    }

    /// Total committed transactions across clients.
    pub fn committed(&self) -> usize {
        self.stats.iter().map(|s| s.lock().committed()).sum()
    }

    /// Shard group `group`'s place in the deployment: what a joiner — or a
    /// replica rebooted from its disk — must be built with to take part
    /// in cross-shard 2PC.
    pub fn role(&self, group: usize) -> ShardRole {
        ShardRole {
            map: self.map,
            shard: group,
            routes: self.routes.clone(),
            probe: self.probe.clone(),
        }
    }

    /// A reconfiguration handle scoped to shard group `group`: replace
    /// one replica of that group while every other group serves
    /// untouched. The joiner is built with the group's [`ShardRole`], so
    /// it participates in cross-shard 2PC once caught up.
    pub fn reconfig_group<R: Runtime + ?Sized>(
        &self,
        rt: &mut R,
        group: usize,
        diversity: DiversityPolicy,
        loader: impl Fn(&Database) + 'static,
    ) -> ReconfigHandle {
        let kind = match &self.pbr {
            Some(options) => ReconfigKind::Pbr(options.clone()),
            None => ReconfigKind::Smr,
        };
        let (g, role) = (&self.groups[group], Some(self.role(group)));
        ReconfigHandle::new(rt, kind, role, &g.tob, &g.replicas, diversity, loader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_workloads::bank;

    fn bank_options(n_clients: usize, txns_each: usize) -> DeployOptions {
        DeployOptions::new(
            n_clients,
            move |i| {
                let mut g = bank::BankGen::new(100 + i as u64, 1_000);
                (0..txns_each).map(|_| g.next_txn()).collect()
            },
            |db| bank::load(db, 1_000).expect("bank loads"),
        )
    }

    #[test]
    fn pbr_normal_case_commits_everything() {
        let mut sim = shadowdb_simnet::testing::default_net(3);
        let d = PbrDeployment::build(&mut sim, &bank_options(2, 15), PbrOptions::default());
        sim.run_until_quiescent(VTime::from_secs(120));
        assert_eq!(d.committed(), 30);
        for s in &d.stats {
            assert_eq!(s.lock().resends, 0, "no failures, no resends");
        }
    }

    #[test]
    fn smr_commits_everything() {
        let mut sim = shadowdb_simnet::testing::default_net(4);
        let d = SmrDeployment::build(&mut sim, &bank_options(2, 12));
        sim.run_until_quiescent(VTime::from_secs(300));
        assert_eq!(d.committed(), 24);
    }

    #[test]
    fn smr_replica_crash_is_transparent() {
        let mut sim = shadowdb_simnet::testing::default_net(5);
        let d = SmrDeployment::build(&mut sim, &bank_options(2, 20));
        // Crash one replica early: clients still get all answers from the
        // survivors, with no retransmissions needed beyond the timeout-free
        // path.
        sim.crash_at(VTime::from_millis(50), d.replicas[2]);
        sim.run_until_quiescent(VTime::from_secs(300));
        assert_eq!(d.committed(), 40);
    }

    #[test]
    fn pbr_primary_crash_recovers_and_resumes() {
        let mut sim = shadowdb_simnet::testing::default_net(6);
        let pbr = PbrOptions {
            detect_after: Duration::from_millis(500),
            heartbeat_every: Duration::from_millis(100),
            ..PbrOptions::default()
        };
        let mut options = bank_options(2, 150);
        options.client_timeout = Duration::from_secs(2);
        options.mode = ExecutionMode::InterpretedOpt;
        let d = PbrDeployment::build(&mut sim, &options, pbr);
        // Let some transactions through, then kill the primary mid-run.
        let mut t = 10;
        while d.committed() < 10 {
            sim.run_until(VTime::from_millis(t));
            t += 10;
            assert!(t < 10_000, "no progress before the crash");
        }
        let before = d.committed();
        assert!(before < 300, "the crash must interrupt the run");
        sim.crash_at(sim.now(), d.replicas[0]);
        sim.run_until_quiescent(VTime::from_secs(600));
        assert_eq!(
            d.committed(),
            300,
            "all transactions answered after failover"
        );
        let resends: u64 = d.stats.iter().map(|s| s.lock().resends).sum();
        assert!(resends > 0, "clients must have retried during the outage");
    }

    fn sharded_bank_options(
        shards: usize,
        n_clients: usize,
        txns_each: usize,
        transfer_every: usize,
    ) -> DeployOptions {
        const ROWS: usize = 64;
        DeployOptions::sharded(
            shards,
            n_clients,
            move |i| {
                let mut g = bank::BankGen::new(500 + i as u64, ROWS);
                (0..txns_each)
                    .map(|k| {
                        if transfer_every > 0 && k % transfer_every == 0 {
                            g.next_transfer()
                        } else {
                            g.next_txn()
                        }
                    })
                    .collect()
            },
            move |shard, db| bank::load_shard(db, ROWS, shards, shard).expect("bank shard loads"),
        )
    }

    #[test]
    fn sharded_single_shard_never_runs_two_pc() {
        let mut sim = shadowdb_simnet::testing::default_net(8);
        let probe: TwoPcProbe = Arc::new(Mutex::new(Vec::new()));
        let mut options = sharded_bank_options(1, 2, 12, 3);
        options.probe = Some(probe.clone());
        let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
        sim.run_until_quiescent(VTime::from_secs(120));
        assert_eq!(d.committed(), 24);
        assert!(
            probe.lock().is_empty(),
            "one shard means every transaction is single-shard: no 2PC"
        );
    }

    #[test]
    fn sharded_pbr_cross_shard_commits_atomically() {
        let mut sim = shadowdb_simnet::testing::default_net(9);
        let probe: TwoPcProbe = Arc::new(Mutex::new(Vec::new()));
        let mut options = sharded_bank_options(2, 2, 12, 2);
        options.probe = Some(probe.clone());
        let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
        sim.run_until_quiescent(VTime::from_secs(300));
        assert_eq!(d.committed(), 24);
        let events = probe.lock();
        assert!(
            !events.is_empty(),
            "the workload must actually exercise cross-shard commit"
        );
        crate::shard::check_two_pc_atomicity(&events).expect("atomic cross-shard histories");
    }

    #[test]
    fn sharded_smr_cross_shard_commits_atomically() {
        let mut sim = shadowdb_simnet::testing::default_net(10);
        let probe: TwoPcProbe = Arc::new(Mutex::new(Vec::new()));
        let mut options = sharded_bank_options(2, 2, 10, 2);
        options.probe = Some(probe.clone());
        let d = ShardedDeployment::build_smr(&mut sim, &options);
        sim.run_until_quiescent(VTime::from_secs(300));
        assert_eq!(d.committed(), 20);
        let events = probe.lock();
        assert!(!events.is_empty(), "cross-shard transfers must appear");
        crate::shard::check_two_pc_atomicity(&events).expect("atomic cross-shard histories");
    }

    /// The tentpole acceptance path in miniature: a serving PBR group has
    /// one replica replaced — joiner added through an ordered
    /// `AddReplica`, caught up by overlapped transfer, old backup removed
    /// through `RemoveReplica` — while clients keep committing. Every
    /// transaction answers and the final configuration names the new
    /// replica and not the victim.
    #[test]
    fn pbr_replace_replica_under_live_load() {
        let mut sim = shadowdb_simnet::testing::default_net(11);
        let pbr = PbrOptions {
            detect_after: Duration::from_millis(500),
            heartbeat_every: Duration::from_millis(100),
            ..PbrOptions::default()
        };
        let mut options = bank_options(2, 120);
        options.client_timeout = Duration::from_secs(2);
        let d = PbrDeployment::build(&mut sim, &options, pbr.clone());
        let mut handle = d.reconfig(&mut sim, pbr, DiversityPolicy::Uniform, |db| {
            bank::load(db, 1_000).expect("bank loads")
        });
        // Let the group serve before touching membership.
        let mut ms = 5;
        while d.committed() < 10 {
            sim.run_until(VTime::from_millis(ms));
            ms += 5;
            assert!(ms < 60_000, "no progress before the reconfiguration");
        }
        let victim = d.replicas[1];
        let added = handle
            .replace_replica(&mut sim, victim, Duration::from_secs(60))
            .expect("replacement adopted under load");
        sim.run_until_quiescent(VTime::from_secs(1_200));
        assert_eq!(d.committed(), 240, "every transaction answered");
        let rep = handle
            .query_config(&mut sim, Duration::from_secs(5))
            .expect("a settled configuration report");
        assert!(rep.config.contains(added), "joiner is a member: {rep:?}");
        assert!(!rep.config.contains(victim), "victim removed: {rep:?}");
    }

    /// SMR online add: a snapshot-joining replica subscribed mid-run
    /// fetches its snapshot off the subscription ack and converges to the
    /// survivors' state with no client disruption.
    #[test]
    fn smr_add_replica_catches_up_online() {
        let mut sim = shadowdb_simnet::testing::default_net(12);
        let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
        let captured = dbs.clone();
        let options = DeployOptions::new(
            2,
            |i| {
                let mut g = bank::BankGen::new(100 + i as u64, 1_000);
                (0..40).map(|_| g.next_txn()).collect()
            },
            move |db| {
                bank::load(db, 1_000).expect("bank loads");
                captured.lock().push(db.clone());
            },
        );
        let d = SmrDeployment::build(&mut sim, &options);
        let captured = dbs.clone();
        let mut handle = d.reconfig(&mut sim, DiversityPolicy::Uniform, move |db| {
            bank::load(db, 1_000).expect("bank loads");
            captured.lock().push(db.clone());
        });
        let mut ms = 5;
        while d.committed() < 10 {
            sim.run_until(VTime::from_millis(ms));
            ms += 5;
            assert!(ms < 60_000, "no progress before the add");
        }
        handle
            .add_replica(&mut sim, Duration::from_secs(10))
            .expect("smr adds unconditionally");
        sim.run_until_quiescent(VTime::from_secs(1_200));
        assert_eq!(d.committed(), 80, "every transaction answered");
        let dbs = dbs.lock();
        assert_eq!(dbs.len(), 4, "three originals plus the joiner");
        let sums: Vec<i64> = dbs
            .iter()
            .map(|db| {
                db.execute("SELECT SUM(balance) FROM accounts")
                    .expect("sums")
                    .rows[0][0]
                    .as_int()
                    .expect("int")
            })
            .collect();
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "joiner agrees with the group: {sums:?}"
        );
    }

    #[test]
    fn pbr_backup_crash_recovers_with_spare() {
        let mut sim = shadowdb_simnet::testing::default_net(7);
        let pbr = PbrOptions {
            detect_after: Duration::from_millis(500),
            heartbeat_every: Duration::from_millis(100),
            ..PbrOptions::default()
        };
        let mut options = bank_options(1, 30);
        options.client_timeout = Duration::from_secs(2);
        let d = PbrDeployment::build(&mut sim, &options, pbr);
        sim.run_until(VTime::from_secs(1));
        sim.crash_at(VTime::from_secs(1), d.replicas[1]);
        sim.run_until_quiescent(VTime::from_secs(600));
        assert_eq!(d.committed(), 30);
    }
}
