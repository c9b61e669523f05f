//! Full ShadowDB deployments into any [`Runtime`].
//!
//! Mirrors the paper's testbed (Sec. IV): the broadcast service runs on
//! three machines, "databases are co-located with the processes of the
//! broadcast service", and clients run on a separate machine. PBR deploys
//! two active replicas plus a spare; SMR deploys replicas at every service
//! machine. The builders are generic over the execution substrate: the
//! same deployment graph runs under the simulator, on real sockets
//! (`shadowdb-tcpnet`), and inside the model checker (`shadowdb-mck`).

use crate::client::{DbClient, DbClientStats};
use crate::diversity::DiversityPolicy;
use crate::msgs::{
    config_query_msg, parse_config_reply, ConfigCommand, ConfigReport, ReplicaConfig,
    LEASE_TIMER_HEADER,
};
use crate::pbr::{PbrOptions, PbrReplica};
use crate::probe::Probe;
use crate::route::{GroupRoute, Policy, Routes};
use crate::shard::ShardRole;
use crate::smr::{SmrLeaseOptions, SmrReplica};
use parking_lot::Mutex;
use shadowdb_eventml::{Msg, Process, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{PortRx, Runtime, StorageMode};
use shadowdb_sqldb::Database;
use shadowdb_tob::deploy::BackendKind;
use shadowdb_tob::{broadcast_msg, subscribe_msg, unsubscribe_msg};
use shadowdb_tob::{ExecutionMode, TobDeployment, TobOptions};
use shadowdb_wal::Disk;
use shadowdb_workloads::{ShardMap, TxnRequest};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Loads schema and one shard's rows into a group database; the shard id
/// comes first so the same closure serves every group. Shared: the
/// deployment keeps it to load the database of every replica it later
/// reboots or adds.
pub type ShardLoader = Rc<dyn Fn(usize, &Database)>;

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
    /// under the thread and socket runtimes). The deployment keeps the
    /// disks and reboots a replica from its durable state itself
    /// ([`PbrDeployment::reboot`] and its twins), which catches up from a
    /// peer's window (PBR's `cache_limit`; 4 096 SMR deliveries).
    pub durability: Option<DurabilityOptions>,
    /// The read lease, under either ordering policy: when set, every
    /// replica runs the lease-based read fast path (`ReplicaCore`'s one
    /// lease, its marker ordered through the group's stream). Under SMR
    /// clients send read-only (single-shard) first attempts directly to
    /// the owning group's believed holder; under PBR the holder is the
    /// primary, whom clients address anyway.
    pub smr_leases: Option<SmrLeaseOptions>,
    /// Number of replica groups, each with its own broadcast service,
    /// partitioning one logical database by [`ShardMap`]. More than one
    /// group needs the clients-last layout of [`ShardedDeployment`].
    pub shards: usize,
    /// The event log every replica the deployment makes — first boot,
    /// reboot and join — records into; the checks of [`crate::probe`]
    /// read it.
    pub probe: Option<Probe>,
    /// The model checker's lease-audit sink: every lease read is also
    /// announced to this location as an `sdb/lease` message. Under state
    /// forking a shared log would mix branches; messages fork with the
    /// execution.
    pub lease_audit: Option<Loc>,
}

/// Per-replica durable-storage settings.
#[derive(Clone)]
pub struct DurabilityOptions {
    /// The minimum spacing between durable snapshots, in WAL records. A
    /// snapshot (which truncates the log) is taken once this many records
    /// were logged since the last one *and* the log written since then is
    /// at least as large as that snapshot, so recovery replays at most
    /// about one image's worth of log.
    pub snapshot_every: i64,
    /// Fsync latency: under the simulator, how long after a replica hands
    /// a sync off its `sdb/synced` arrives (the replica's CPU is not
    /// held meanwhile); borne for real under file-backed runtimes.
    pub fsync_cost: Duration,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            snapshot_every: 512,
            fsync_cost: Duration::from_micros(250),
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
            loader: Rc::new(loader),
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
            lease_audit: None,
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

/// The route to a replica group whose first node is at `base`: the
/// broadcast servers (each followed by its co-located consensus roles),
/// then the replicas. A pure function of `base`, so routes to *all* groups
/// are known before any node exists; clients and every group's replicas
/// start from clones of it.
fn group_route(options: &DeployOptions, pbr: bool, base: u32) -> GroupRoute {
    let (policy, n_replicas) = match pbr {
        true => (Policy::Pbr, options.active_replicas as u32 + 1), // plus one spare
        false => {
            let read_leases = options.smr_leases.is_some();
            // One state machine per service machine.
            (Policy::Smr { read_leases }, options.machines)
        }
    };
    let replica_base = base + options.machines * options.backend.procs_per_machine();
    let replicas = (0..n_replicas).map(|i| Loc::new(replica_base + i));
    GroupRoute::new(policy, options.tob().server_locs(base), replicas.collect())
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
    /// How this group's replicas are made — and re-made.
    recipe: Rc<Recipe>,
}

impl ShardGroup {
    /// The route to this group as deployed (joiners are not on it).
    pub fn route(&self) -> &GroupRoute {
        &self.recipe.route
    }

    /// Every replica the group ever had, joiners included, with the
    /// database its latest incarnation runs on: where a harness compares
    /// the replicas' states.
    pub(crate) fn databases(&self) -> Vec<(Loc, Database)> {
        let replicas = self.recipe.replicas.borrow();
        replicas
            .iter()
            .copied()
            .zip(self.recipe.dbs.borrow().clone())
            .collect()
    }
}

/// How a replica built by a [`Recipe`] comes into the world.
enum Boot {
    /// At deployment, on an empty disk.
    First,
    /// Back from a power loss, onto the disk it crashed with; the seed
    /// tears that disk's unsynced tail ([`Disk::begin_recovery`]).
    Reboot(u64),
    /// Into a serving group; under SMR it fetches its snapshot from these
    /// donors.
    Join(Vec<Loc>),
}

/// How long after a reboot its kick is delivered: the restarted process
/// must exist before the message that starts it moving arrives.
const REBOOT_KICK: Duration = Duration::from_millis(2);

/// Everything the replicas of one group are made of: engine rotation,
/// loader, ordering policy, shard role, disks, lease plane and observers.
/// Replicas are indexed in engine-rotation order — the deploy-time ones,
/// then every joiner — and the one body, [`Recipe::replica`], builds all
/// three of a replica's lives: first boot, reboot from its disk, join.
struct Recipe {
    diversity: DiversityPolicy,
    loader: ShardLoader,
    shard: usize,
    role: Option<ShardRole>,
    /// `Some` selects primary-backup; `None` state-machine replication.
    pbr: Option<PbrOptions>,
    durability: Option<DurabilityOptions>,
    storage: StorageMode,
    /// The read lease, under either policy.
    leases: Option<SmrLeaseOptions>,
    /// The deployment's event log and lease-audit sink.
    probe: Option<Probe>,
    lease_audit: Option<Loc>,
    /// The route to this group as deployed: its broadcast-service entry
    /// points and deploy-time replicas.
    route: GroupRoute,
    /// How many of the deploy-time replicas form PBR's initial
    /// configuration (the rest are spares), and how many there are.
    active: usize,
    deployed: usize,
    /// Every replica the group ever had, by index; removed ones keep
    /// their slot (and their disk).
    replicas: RefCell<Vec<Loc>>,
    disks: RefCell<Vec<Disk>>,
    /// Every replica's database, by index: the latest incarnation's.
    dbs: RefCell<Vec<Database>>,
}

impl Recipe {
    /// The process replica `i` runs as.
    fn replica(&self, i: usize, boot: Boot) -> Box<dyn Process> {
        let db = self.diversity.database(i);
        (self.loader)(self.shard, &db);
        let mut dbs = self.dbs.borrow_mut();
        match dbs.get_mut(i) {
            Some(latest) => *latest = db.clone(),
            None => dbs.push(db.clone()),
        }
        drop(dbs);
        // Replica `i`'s disk is opened the first time it is built.
        let durable = self.durability.as_ref().map(|dur| {
            let mut disks = self.disks.borrow_mut();
            if i == disks.len() {
                let name = match i < self.deployed {
                    true => format!("replica-{}", self.shard * self.deployed + i),
                    false => format!("joiner-{}-{i}", self.shard),
                };
                disks.push(Disk::open(&self.storage, &name, dur.fsync_cost));
            }
            (dur, disks[i].clone())
        });
        let replicas = self.replicas.borrow();
        match &self.pbr {
            Some(pbr) => {
                let mut replica = if i < self.deployed {
                    let (members, spares) = replicas[..self.deployed].split_at(self.active);
                    PbrReplica::new(
                        db,
                        ReplicaConfig::initial(members.to_vec()),
                        spares.to_vec(),
                        self.route.servers().to_vec(),
                        pbr.clone(),
                    )
                } else {
                    PbrReplica::joiner(db, self.route.servers().to_vec(), pbr.clone())
                };
                replica = replica.with_observers(self.probe.clone(), self.lease_audit);
                if let Some(role) = &self.role {
                    replica = replica.with_role(role.clone());
                }
                if let Some((dur, disk)) = durable {
                    replica = replica.with_wal(disk, dur.snapshot_every);
                }
                if let Some(lease) = &self.leases {
                    replica = replica.with_read_leases(lease.clone());
                }
                if let Boot::Reboot(tear) = boot {
                    replica = replica.rebooted(tear);
                }
                Box::new(replica)
            }
            None => {
                // A replica that is behind fetches from its peers.
                let peers = replicas.iter().copied().filter(|r| *r != replicas[i]);
                let mut replica = match boot {
                    Boot::Join(donors) => SmrReplica::joining_from(db, donors),
                    Boot::Reboot(tear) => SmrReplica::new(db).rebooted(peers.collect(), tear),
                    Boot::First => SmrReplica::new(db).with_donors(peers.collect()),
                }
                .with_observers(self.probe.clone(), self.lease_audit);
                if let Some(role) = &self.role {
                    replica = replica.with_role(role.clone());
                }
                if let Some((dur, disk)) = durable {
                    replica = replica.with_wal(disk, dur.snapshot_every);
                }
                if let Some(lease) = &self.leases {
                    let servers = self.route.servers().to_vec();
                    replica = replica.with_read_leases(servers, i as u64, lease.clone());
                }
                Box::new(replica)
            }
        }
    }

    /// Power-cycles the replica at `loc`: at `at` it comes back as the
    /// process that recovers from its disk and, right after, rejoins the
    /// way a joiner does under either policy — subscribed anew at every
    /// broadcast server, whose ack opens (or, under PBR, re-aims) its
    /// fetch, and kicked.
    fn reboot<R: Runtime + ?Sized>(&self, rt: &mut R, loc: Loc, at: VTime, tear: u64) {
        assert!(self.durability.is_some(), "a reboot needs a disk");
        let i = self.replicas.borrow().iter().position(|r| *r == loc);
        let i = i.expect("reboot: not a replica of this group");
        rt.restart_at(at, loc, self.replica(i, Boot::Reboot(tear)));
        for s in self.route.servers() {
            rt.send_at(at + REBOOT_KICK, *s, subscribe_msg(loc));
        }
        self.kick(rt, loc, at + REBOOT_KICK);
    }

    /// Deploys a joiner into the serving group and starts its timers;
    /// subscribing it (and, under PBR, the configuration change) is the
    /// [`ReconfigHandle`]'s part.
    fn join<R: Runtime + ?Sized>(&self, rt: &mut R, donors: Vec<Loc>) -> Loc {
        let i = self.replicas.borrow().len();
        let loc = rt.add_node_late(self.replica(i, Boot::Join(donors)));
        self.replicas.borrow_mut().push(loc);
        self.kick(rt, loc, rt.now());
        loc
    }

    /// Starts a reborn or joining replica's timers at `at`: PBR's
    /// heartbeat loop (a reboot reads its disk there), then the lease tick.
    fn kick<R: Runtime + ?Sized>(&self, rt: &mut R, loc: Loc, at: VTime) {
        if self.pbr.is_some() {
            rt.send_at(at, loc, PbrReplica::start_msg());
        }
        self.start_lease(rt, loc, at);
    }

    /// Starts the lease's self-rearming tick at `loc`, if leases are on.
    fn start_lease<R: Runtime + ?Sized>(&self, rt: &mut R, loc: Loc, at: VTime) {
        if self.leases.is_some() {
            rt.send_at(at, loc, Msg::new(LEASE_TIMER_HEADER, Value::Unit));
        }
    }
}

/// Instantiates one replica group at the runtime's next free locations —
/// its broadcast service, then every replica as the group's [`Recipe`]
/// makes it — for every deployment shape alike. `pbr` selects the
/// ordering policy. Replicas are co-located with the service machines but
/// run in their own JVM, which the quad-core testbed schedules on separate
/// cores: they get their own CPU timeline.
fn build_group<R: Runtime + ?Sized>(
    rt: &mut R,
    options: &DeployOptions,
    pbr: Option<&PbrOptions>,
    route: GroupRoute,
    shard: usize,
    role: Option<ShardRole>,
) -> ShardGroup {
    let replicas = route.replicas().to_vec();
    // PBR replicas subscribe for reconfigurations; SMR replicas *are* the
    // state machines and take every delivery.
    let tob = TobDeployment::build(rt, &options.tob(), replicas.clone());
    assert_eq!(tob.servers, route.servers());
    let recipe = Rc::new(Recipe {
        diversity: options.diversity.clone(),
        loader: options.loader.clone(),
        shard,
        role,
        pbr: pbr.cloned(),
        durability: options.durability.clone(),
        storage: rt.storage_mode(),
        leases: options.smr_leases.clone(),
        probe: options.probe.clone(),
        lease_audit: options.lease_audit,
        route,
        active: options.active_replicas.min(replicas.len()),
        deployed: replicas.len(),
        replicas: RefCell::new(replicas.clone()),
        disks: RefCell::new(Vec::new()),
        dbs: RefCell::new(Vec::new()),
    });
    for (i, r) in replicas.iter().enumerate() {
        assert_eq!(rt.add_node(recipe.replica(i, Boot::First)), *r);
    }
    for r in &replicas {
        recipe.start_lease(rt, *r, VTime::ZERO);
    }
    let disks = recipe.disks.borrow().clone();
    ShardGroup {
        replicas,
        tob,
        disks,
        recipe,
    }
}

/// Client locations and their measurement handles (one per client).
type Clients = (Vec<Loc>, Vec<Arc<Mutex<DbClientStats>>>);

/// Adds the deployment's clients at the runtime's next free locations.
fn build_clients<R: Runtime + ?Sized>(
    rt: &mut R,
    options: &DeployOptions,
    routes: &Routes,
) -> Clients {
    let mut stats = Vec::new();
    let mut clients = Vec::new();
    for i in 0..options.n_clients {
        let s = Arc::new(Mutex::new(DbClientStats::default()));
        stats.push(s.clone());
        let client = DbClient::new(routes.clone(), (options.client_txns)(i), s)
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

/// A deployed unsharded ShadowDB under ordering policy `P` ([`Pbr`] or
/// [`Smr`]), in the paper's layout: clients first, then the one replica
/// group.
pub struct Deployment<P> {
    /// Replica locations: under PBR `[primary, backup, spare]`, under SMR
    /// one per service machine.
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
    recipe: Rc<Recipe>,
    policy: PhantomData<P>,
}

/// Primary-backup replication, as a [`Deployment`]'s policy.
pub struct Pbr;
/// State machine replication, as a [`Deployment`]'s policy.
pub struct Smr;
/// A deployed primary-backup ShadowDB.
pub type PbrDeployment = Deployment<Pbr>;
/// A deployed state-machine-replicated ShadowDB.
pub type SmrDeployment = Deployment<Smr>;

impl PbrDeployment {
    /// Builds the deployment into `rt` and schedules the start messages.
    /// The paper runs the PBR broadcast service in the interpreter; pass
    /// [`ExecutionMode::InterpretedOpt`] in `options.mode` to match.
    pub fn build<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &DeployOptions,
        pbr: PbrOptions,
    ) -> PbrDeployment {
        Deployment::unsharded(rt, options, Some(&pbr))
    }
}

impl SmrDeployment {
    /// Builds the deployment into `rt` and schedules the start messages.
    /// The paper runs the SMR broadcast service compiled (Lisp); the
    /// default [`ExecutionMode::Compiled`] matches.
    pub fn build<R: Runtime + ?Sized>(rt: &mut R, options: &DeployOptions) -> SmrDeployment {
        Deployment::unsharded(rt, options, None)
    }
}

impl<P> Deployment<P> {
    fn unsharded<R: Runtime + ?Sized>(
        rt: &mut R,
        options: &DeployOptions,
        pbr: Option<&PbrOptions>,
    ) -> Deployment<P> {
        assert_eq!(
            options.shards, 1,
            "the clients-first layout hosts one group; use ShardedDeployment"
        );
        let base = rt.node_count() + options.n_clients as u32;
        let route = group_route(options, pbr.is_some(), base);
        let (clients, stats) = build_clients(rt, options, &Routes::single(route.clone()));
        let group = build_group(rt, options, pbr, route, 0, None);
        let starting: &[Loc] = if pbr.is_some() { &group.replicas } else { &[] };
        start(rt, options, starting, &clients);
        Deployment {
            replicas: group.replicas,
            clients,
            stats,
            tob: group.tob,
            disks: group.disks,
            recipe: group.recipe,
            policy: PhantomData,
        }
    }

    /// Total committed transactions across clients.
    pub fn committed(&self) -> usize {
        self.stats.iter().map(|s| s.lock().committed()).sum()
    }

    /// A driver-side handle for reconfiguring this group online: add,
    /// remove, promote, and replace replicas while the deployment serves.
    /// Joiners are made as the deployment made its own replicas — same
    /// options, loader, engine rotation, and every plane it runs. SMR
    /// membership is the broadcast service's subscriber set: there is no
    /// configuration command, and promotion is meaningless.
    pub fn reconfig<R: Runtime + ?Sized>(&self, rt: &mut R) -> ReconfigHandle {
        ReconfigHandle::new(rt, &self.recipe)
    }

    /// Power-cycles the replica at `loc` (a deploy-time one or a joiner):
    /// at `at` it restarts from its disk — whose unsynced tail `tear`
    /// tears, as the power loss did — as the replica it was built as, and
    /// is kicked into rejoining the group. Crash it first
    /// ([`Runtime::crash_at`]); needs [`DeployOptions::durability`].
    pub fn reboot<R: Runtime + ?Sized>(&self, rt: &mut R, loc: Loc, at: VTime, tear: u64) {
        self.recipe.reboot(rt, loc, at, tear);
    }
}

/// An unsharded deployment *is* shard 0 of 1: the same group, seen
/// through the sharded deployment's fields (clients stay where the
/// unsharded layout put them — first).
impl<P> From<Deployment<P>> for ShardedDeployment {
    fn from(d: Deployment<P>) -> ShardedDeployment {
        let (replicas, tob, disks, recipe) = (d.replicas, d.tob, d.disks, d.recipe);
        let group = ShardGroup {
            replicas,
            tob,
            disks,
            recipe,
        };
        ShardedDeployment {
            map: ShardMap::new(1),
            groups: vec![group],
            clients: d.clients,
            stats: d.stats,
        }
    }
}

/// How long each polling slice of a [`ReconfigHandle`] drives the runtime
/// before draining replies.
const RECONFIG_SLICE: Duration = Duration::from_millis(5);

/// A driver-side handle exposing online reconfiguration of one replica
/// group: adding a fresh replica (with live overlapped state transfer),
/// removing one, promoting a preferred primary, and the composite
/// replace. Operations drive the runtime in small slices ([`Runtime::
/// run_for`]) while polling replica configuration reports, so the same
/// handle works under the simulator, threads, and real sockets.
///
/// Primary-backup membership is replicated state, changed through
/// CAS-guarded configuration commands ordered by the TOB; under
/// state-machine replication it is the subscriber set.
pub struct ReconfigHandle {
    /// The handle's own mailbox; configuration replies land here.
    port: Loc,
    rx: PortRx,
    /// The group's recipe: what a joiner is made of, exactly as the
    /// deployment made the original replicas — a catch-up replay from
    /// sequence zero must land on the same starting state.
    recipe: Rc<Recipe>,
    /// Every replica location known to the handle: deploy-time members,
    /// spares, and joiners added since. Queries fan out to all of them;
    /// removed replicas stay addressable (they answer with the
    /// configuration that excluded them, which is still evidence).
    replicas: Vec<Loc>,
    /// Monotone msgid for configuration-command broadcasts.
    bcast_seq: i64,
}

impl ReconfigHandle {
    fn new<R: Runtime + ?Sized>(rt: &mut R, recipe: &Rc<Recipe>) -> ReconfigHandle {
        let (port, rx) = rt.port();
        ReconfigHandle {
            port,
            rx,
            recipe: recipe.clone(),
            replicas: recipe.replicas.borrow().clone(),
            bcast_seq: 0,
        }
    }

    /// Whether the group is primary-backup (else state-machine
    /// replication).
    fn is_pbr(&self) -> bool {
        self.recipe.pbr.is_some()
    }

    /// Every replica location the handle knows of (including removed
    /// ones).
    pub fn replicas(&self) -> &[Loc] {
        &self.replicas
    }

    fn broadcast<R: Runtime + ?Sized>(&mut self, rt: &mut R, payload: Value) {
        let servers = self.recipe.route.servers();
        let server = servers[(self.bcast_seq as usize) % servers.len()];
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

    /// CAS-broadcasts the command `next` derives from the group's current
    /// membership — tagged with the configuration sequence it was read
    /// at, so a concurrent change makes it a no-op and the next round
    /// re-derives it — until `done` holds of the adopted configuration.
    /// `false` when `deadline` passes first, or no command applies.
    fn cas_until<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        deadline: Duration,
        done: impl Fn(&ReplicaConfig) -> bool,
        next: impl Fn(&[Loc]) -> Option<ConfigCommand>,
    ) -> bool {
        let slices = (deadline.as_micros() / (RECONFIG_SLICE.as_micros() * 8)).max(1);
        for _ in 0..slices {
            let Some(rep) = self.query_config(rt, RECONFIG_SLICE * 4) else {
                continue;
            };
            if done(&rep.config) {
                return true;
            }
            let Some(cmd) = next(&rep.config.members) else {
                return false;
            };
            self.broadcast(rt, cmd.to_payload(rep.config.seq));
            rt.run_for(RECONFIG_SLICE * 4);
        }
        false
    }

    /// Adds a fresh replica to the group while it serves, returning the
    /// new location. Under PBR this deploys a joiner, subscribes it at
    /// every broadcast server (so the configuration command that names it
    /// is guaranteed to reach it), then CAS-broadcasts `AddReplica` until
    /// a configuration containing the joiner is adopted — the state
    /// transfer itself overlaps live traffic inside the replicas. Under
    /// SMR the joiner drives its own image fetch off the subscription
    /// ack; membership *is* the subscriber set, so the add is complete
    /// once subscribed (use convergence checks, not `await_member`, to
    /// observe the catch-up). Returns `None` if the configuration change
    /// was not adopted before `deadline`.
    pub fn add_replica<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        deadline: Duration,
    ) -> Option<Loc> {
        let loc = self.recipe.join(rt, self.replicas.clone());
        for s in self.recipe.route.servers() {
            let now = rt.now();
            rt.send_at(now, *s, subscribe_msg(loc));
        }
        if self.is_pbr() {
            // Let the subscription land before the command's slot can
            // decide: the joiner must see its own `AddReplica`.
            rt.run_for(RECONFIG_SLICE * 4);
        }
        self.replicas.push(loc);
        let adopted = !self.is_pbr()
            || self.cas_until(
                rt,
                deadline,
                |config| config.contains(loc),
                |members| ConfigCommand::add(members, loc),
            );
        adopted.then_some(loc)
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
        if self.is_pbr() {
            return self.cas_until(
                rt,
                deadline,
                |config| !config.contains(loc),
                |members| ConfigCommand::remove(members, loc),
            );
        }
        for s in self.recipe.route.servers() {
            let now = rt.now();
            rt.send_at(now, *s, unsubscribe_msg(loc));
        }
        self.replicas.retain(|r| *r != loc);
        true
    }

    /// CAS-broadcasts `Promote` until the configuration sequence
    /// advances: the election that follows makes `loc` primary, once the
    /// member with the highest report has brought it up to date, so no
    /// acknowledged transaction is lost. Under SMR this is a no-op (there
    /// is no primary). Returns whether the command was adopted before
    /// `deadline` (`false` at once if `loc` is not a member: nothing to
    /// promote).
    pub fn promote<R: Runtime + ?Sized>(
        &mut self,
        rt: &mut R,
        loc: Loc,
        deadline: Duration,
    ) -> bool {
        if !self.is_pbr() {
            return true;
        }
        let Some(start) = self.query_config(rt, deadline) else {
            return false;
        };
        self.cas_until(
            rt,
            deadline,
            |config| config.seq > start.config.seq,
            |members| ConfigCommand::promote(members, loc),
        )
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
        if !self.is_pbr() {
            // SMR joins converge on their own; the delivery stream the
            // joiner subscribed to is the group's state.
            rt.run_for(share);
        } else if !self.await_member(rt, added, share) {
            return None;
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
        let first = group_route(options, pbr.is_some(), base);
        let span = (first.replicas().last().expect("replicas").index() + 1) - base;
        let groups = (0..options.shards as u32)
            .map(|g| group_route(options, pbr.is_some(), base + g * span))
            .collect();
        // One set of routes: every replica starts from it to address 2PC
        // records at its peers, and so does every client.
        let routes = Routes::new(map, groups);
        let mut groups = Vec::new();
        for (shard, route) in routes.groups().iter().enumerate() {
            let role = ShardRole {
                shard,
                routes: routes.clone(),
            };
            groups.push(build_group(
                rt,
                options,
                pbr.as_ref(),
                route.clone(),
                shard,
                Some(role),
            ));
        }

        // Clients last.
        let (clients, stats) = build_clients(rt, options, &routes);
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
        }
    }

    /// Total committed transactions across clients.
    pub fn committed(&self) -> usize {
        self.stats.iter().map(|s| s.lock().committed()).sum()
    }

    /// A reconfiguration handle scoped to shard group `group`: replace
    /// one replica of that group while every other group serves
    /// untouched. The joiner is built with the group's [`ShardRole`], so
    /// it participates in cross-shard 2PC once caught up.
    pub fn reconfig_group<R: Runtime + ?Sized>(&self, rt: &mut R, group: usize) -> ReconfigHandle {
        ReconfigHandle::new(rt, &self.groups[group].recipe)
    }

    /// Power-cycles the replica at `loc`, whichever group it belongs to;
    /// see [`PbrDeployment::reboot`]. It comes back with its group's
    /// [`ShardRole`], so the replayed WAL rebuilds the 2PC engine and
    /// emission counters it crashed with.
    pub fn reboot<R: Runtime + ?Sized>(&self, rt: &mut R, loc: Loc, at: VTime, tear: u64) {
        let group = self
            .groups
            .iter()
            .find(|g| g.recipe.replicas.borrow().contains(&loc));
        group
            .expect("reboot: not a replica of this deployment")
            .recipe
            .reboot(rt, loc, at, tear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{check_catchup_only, check_two_pc_atomicity, Event, TransferKind};
    use shadowdb_eventml::{Ctx, Msg};
    use shadowdb_tob::SUBOK_HEADER;
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

    /// The 2PC steps a deployment's log recorded.
    fn two_pc_steps(probe: &Probe) -> usize {
        let events = probe.events();
        events
            .iter()
            .filter(|e| matches!(e, Event::TwoPc(_)))
            .count()
    }

    #[test]
    fn sharded_single_shard_never_runs_two_pc() {
        let mut sim = shadowdb_simnet::testing::default_net(8);
        let probe = Probe::default();
        let mut options = sharded_bank_options(1, 2, 12, 3);
        options.probe = Some(probe.clone());
        let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
        sim.run_until_quiescent(VTime::from_secs(120));
        assert_eq!(d.committed(), 24);
        assert_eq!(
            two_pc_steps(&probe),
            0,
            "one shard means every transaction is single-shard: no 2PC"
        );
    }

    #[test]
    fn sharded_pbr_cross_shard_commits_atomically() {
        let mut sim = shadowdb_simnet::testing::default_net(9);
        let probe = Probe::default();
        let mut options = sharded_bank_options(2, 2, 12, 2);
        options.probe = Some(probe.clone());
        let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
        sim.run_until_quiescent(VTime::from_secs(300));
        assert_eq!(d.committed(), 24);
        assert!(
            two_pc_steps(&probe) > 0,
            "the workload must actually exercise cross-shard commit"
        );
        check_two_pc_atomicity(&probe.events()).expect("atomic cross-shard histories");
    }

    #[test]
    fn sharded_smr_cross_shard_commits_atomically() {
        let mut sim = shadowdb_simnet::testing::default_net(10);
        let probe = Probe::default();
        let mut options = sharded_bank_options(2, 2, 10, 2);
        options.probe = Some(probe.clone());
        let d = ShardedDeployment::build_smr(&mut sim, &options);
        sim.run_until_quiescent(VTime::from_secs(300));
        assert_eq!(d.committed(), 20);
        assert!(
            two_pc_steps(&probe) > 0,
            "cross-shard transfers must appear"
        );
        check_two_pc_atomicity(&probe.events()).expect("atomic cross-shard histories");
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
        let d = PbrDeployment::build(&mut sim, &options, pbr);
        let mut handle = d.reconfig(&mut sim);
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
    /// survivors' state with no client disruption; the donor's answer is
    /// in the log as a snapshot to the joiner.
    #[test]
    fn smr_add_replica_catches_up_online() {
        let mut sim = shadowdb_simnet::testing::default_net(12);
        let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
        let captured = dbs.clone();
        let probe = Probe::default();
        let mut options = DeployOptions::new(
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
        options.probe = Some(probe.clone());
        let d = SmrDeployment::build(&mut sim, &options);
        let mut handle = d.reconfig(&mut sim);
        let mut ms = 5;
        while d.committed() < 10 {
            sim.run_until(VTime::from_millis(ms));
            ms += 5;
            assert!(ms < 60_000, "no progress before the add");
        }
        let joiner = handle
            .add_replica(&mut sim, Duration::from_secs(10))
            .expect("smr adds unconditionally");
        sim.run_until_quiescent(VTime::from_secs(1_200));
        assert_eq!(d.committed(), 80, "every transaction answered");
        let joined = Event::Transfer {
            to: joiner,
            kind: TransferKind::Snapshot,
        };
        assert!(probe.events().contains(&joined), "the join is a snapshot");
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

    /// A durable bank deployment under the paper's diverse engine trio
    /// whose loader records the engine each replica was built on, in
    /// build order.
    fn durable_trio_options(engines: &Arc<Mutex<Vec<&'static str>>>) -> DeployOptions {
        let engines = engines.clone();
        let mut options = DeployOptions::new(
            2,
            |i| {
                let mut g = bank::BankGen::new(100 + i as u64, 1_000);
                (0..40).map(|_| g.next_txn()).collect()
            },
            move |db| {
                bank::load(db, 1_000).expect("bank loads");
                engines.lock().push(db.profile().name);
            },
        );
        options.diversity = DiversityPolicy::Trio;
        options.durability = Some(DurabilityOptions::default());
        options
    }

    /// A reboot keeps its engine, and a joiner continues the rotation:
    /// the recipe indexes the diversity policy by the replica's slot,
    /// never by how many replicas it has built.
    #[test]
    fn reboot_keeps_its_engine_and_a_joiner_continues_the_rotation() {
        let mut sim = shadowdb_simnet::testing::default_net(13);
        let engines = Arc::default();
        let d = SmrDeployment::build(&mut sim, &durable_trio_options(&engines));
        let trio = DiversityPolicy::Trio;
        let name = |i: usize| trio.profile(i).name;
        assert_eq!(*engines.lock(), [name(0), name(1), name(2)]);
        d.recipe.replica(1, Boot::Reboot(7));
        assert_eq!(engines.lock()[3], name(1), "rebooted on its own engine");
        let mut handle = d.reconfig(&mut sim);
        let joiner = handle.add_replica(&mut sim, Duration::from_secs(1));
        assert_eq!(engines.lock()[4], name(3), "the rotation continues");
        d.recipe.replica(3, Boot::Reboot(7));
        assert_eq!(engines.lock()[5], name(3), "joiners reboot alike");
        assert_eq!(d.recipe.replicas.borrow()[3], joiner.expect("added"));
        assert_eq!(d.recipe.disks.borrow().len(), 4, "a disk per replica");
    }

    /// Recovery is lazy — a rebooted replica reads its disk in its first
    /// step — and lazy recovery is fork-safe: a clone taken before that
    /// step recovers the same state from the same disk and answers the
    /// same message with the same sends.
    #[test]
    fn a_rebooted_replica_forks_before_its_first_step() {
        use shadowdb_eventml::process::fingerprint;
        let engines = Arc::default();
        let options = durable_trio_options(&engines);
        let mut sim = shadowdb_simnet::testing::default_net(14);
        let pbr = PbrDeployment::build(&mut sim, &options, PbrOptions::default());
        let smr = SmrDeployment::build(&mut sim, &options);
        while pbr.committed().min(smr.committed()) < 10 {
            sim.run_for(Duration::from_millis(5));
            assert!(sim.now() < VTime::from_secs(60), "no progress to recover");
        }
        let forks = [
            (&pbr.recipe, pbr.replicas[1], PbrReplica::start_msg()),
            (
                &smr.recipe,
                smr.replicas[2],
                Msg::new(SUBOK_HEADER, Value::Int(99)),
            ),
        ];
        for (recipe, loc, msg) in forks {
            let i = recipe.replicas.borrow().iter().position(|r| *r == loc);
            let mut original = recipe.replica(i.expect("deployed"), Boot::Reboot(9));
            let mut fork = original.clone_box();
            assert_eq!(fingerprint(&*original), fingerprint(&*fork));
            let unstepped = fingerprint(&*original);
            let ctx = Ctx::new(loc, sim.now());
            let sends = original.step(&ctx, &msg);
            assert!(!sends.is_empty(), "the reboot's kick starts the rejoin");
            assert_ne!(fingerprint(&*original), unstepped, "the disk was read");
            assert_eq!(fork.step(&ctx, &msg), sends);
            assert_eq!(fingerprint(&*original), fingerprint(&*fork));
        }
    }

    /// A rebooted PBR member asks its recovered configuration's members
    /// one at a time, in order. Its disk logged the configuration as it was
    /// adopted, before `Promote` reordered it, so the first member it asks
    /// is a backup, which answers with the configuration alone. Its
    /// subscription's ack re-aims the fetch at the next member, the
    /// primary, and the member rejoins by catch-up within a heartbeat
    /// period.
    #[test]
    fn a_rebooted_backup_whose_first_ask_misses_the_primary_rejoins_by_catch_up() {
        let mut sim = shadowdb_simnet::testing::default_net(15);
        let probe = Probe::default();
        let mut options = bank_options(2, 100);
        options.active_replicas = 3;
        options.durability = Some(DurabilityOptions::default());
        options.probe = Some(probe.clone());
        let pbr = PbrOptions::default();
        let d = PbrDeployment::build(&mut sim, &options, pbr.clone());
        let [first, victim, promoted] = d.replicas[..3] else {
            unreachable!()
        };
        let mut handle = d.reconfig(&mut sim);
        assert!(handle.promote(&mut sim, promoted, Duration::from_secs(10)));
        let settled = handle.query_config(&mut sim, Duration::from_secs(10));
        let members = settled.expect("a settled configuration").config.members;
        assert_eq!(members, [promoted, first, victim], "elected out of order");

        let reboot = sim.now() + Duration::from_millis(40);
        sim.crash_at(sim.now() + Duration::from_millis(5), victim);
        d.reboot(&mut sim, victim, reboot, 13);
        let caught_up = Event::Transfer {
            to: victim,
            kind: TransferKind::Catchup,
        };
        let catch_ups = || probe.events().iter().filter(|e| **e == caught_up).count();
        let before = catch_ups(); // the election after `Promote` caught it up
        while catch_ups() == before {
            sim.run_for(Duration::from_millis(1));
            assert!(
                sim.now() < reboot + Duration::from_secs(10),
                "never rejoined"
            );
        }
        let rejoined = sim.now().saturating_since(reboot);
        assert!(rejoined >= REBOOT_KICK, "rejoined before it was kicked");
        assert!(
            rejoined < pbr.heartbeat_every * 2,
            "the retry was not: {rejoined:?}"
        );
        check_catchup_only(&probe.events(), victim).expect("rejoins by catch-up");
    }

    /// A rebooted member takes the group's configuration from the answer
    /// to its fetch, in elected order, not the order its disk logged at
    /// adoption: its acknowledgments reach the primary `Promote` elected,
    /// and every transaction commits. A member that trusted its disk sent
    /// them to a backup, and 28 of 800 committed.
    #[test]
    fn a_rebooted_backup_acknowledges_the_elected_primary() {
        let mut sim = shadowdb_simnet::testing::default_net(15);
        let mut options = bank_options(2, 400);
        options.active_replicas = 3;
        options.durability = Some(DurabilityOptions::default());
        let d = PbrDeployment::build(&mut sim, &options, PbrOptions::default());
        let [_, victim, promoted] = d.replicas[..3] else {
            unreachable!()
        };
        let mut handle = d.reconfig(&mut sim);
        assert!(handle.promote(&mut sim, promoted, Duration::from_secs(10)));
        let now = sim.now();
        sim.crash_at(now + Duration::from_millis(5), victim);
        d.reboot(&mut sim, victim, now + Duration::from_millis(40), 13);
        sim.run_for(Duration::from_secs(60));
        assert_eq!(d.committed(), 800, "every transaction answered");
    }

    /// A member rebooted once the stream has moved past its start
    /// subscribes anew and is anchored by its fetch's answer, so it
    /// delivers the next configuration command and reports: the election
    /// that `Promote` starts completes, with it as a member. A member that
    /// never re-subscribed delivered nothing more, and the election waited
    /// for its report for ever.
    #[test]
    fn a_member_rebooted_after_a_reconfiguration_counts_in_the_next_election() {
        let mut sim = shadowdb_simnet::testing::default_net(16);
        let mut options = bank_options(2, 100);
        options.active_replicas = 3;
        options.durability = Some(DurabilityOptions::default());
        let d = PbrDeployment::build(&mut sim, &options, PbrOptions::default());
        let [first, rebooted, promoted] = d.replicas[..3] else {
            unreachable!()
        };
        let mut handle = d.reconfig(&mut sim);
        let second = Duration::from_secs(1);
        assert!(
            handle.promote(&mut sim, promoted, second * 10),
            "reconfigured"
        );
        let now = sim.now();
        sim.crash_at(now + Duration::from_millis(5), rebooted);
        d.reboot(&mut sim, rebooted, now + Duration::from_millis(40), 13);
        sim.run_for(second / 2);
        assert!(handle.promote(&mut sim, first, second * 10), "promoted");
        for m in [first, rebooted, promoted] {
            assert!(
                handle.await_member(&mut sim, m, second * 10),
                "{m:?} settled"
            );
        }
        let settled = handle.query_config(&mut sim, second * 10).expect("settled");
        assert_eq!(settled.config.seq, 2, "two reconfigurations: {settled:?}");
        assert_eq!(settled.config.primary(), first, "the promoted member leads");
    }

    /// A backup rebooted once its primary is gone for good: no member
    /// answers its fetch, but the spare, outside the group and settled,
    /// answers with the configuration alone. That anchors the member, so it
    /// delivers its own proposal to replace the primary, reports, and leads
    /// with every transaction it acknowledged. Unanchored, it never saw its
    /// proposal, and the spare replaced it too and led with its own empty
    /// state.
    #[test]
    fn a_rebooted_member_whose_primary_is_gone_is_placed_by_the_spare() {
        let mut sim = shadowdb_simnet::testing::default_net(17);
        let pbr = PbrOptions {
            detect_after: Duration::from_millis(500),
            heartbeat_every: Duration::from_millis(100),
            ..PbrOptions::default()
        };
        let mut options = bank_options(2, 100);
        options.client_timeout = Duration::from_secs(2);
        options.durability = Some(DurabilityOptions::default());
        let d = PbrDeployment::build(&mut sim, &options, pbr);
        let [primary, backup, spare] = d.replicas[..3] else {
            unreachable!()
        };
        let mut handle = d.reconfig(&mut sim);
        assert!(handle.promote(&mut sim, primary, Duration::from_secs(10)));
        let now = sim.now();
        sim.crash_at(now + Duration::from_millis(5), backup);
        sim.crash_at(now + Duration::from_millis(10), primary);
        d.reboot(&mut sim, backup, now + Duration::from_millis(40), 13);
        sim.run_for(Duration::from_secs(120));
        assert_eq!(d.committed(), 200, "every transaction answered");
        let settled = handle.query_config(&mut sim, Duration::from_secs(1));
        let settled = settled.expect("a settled configuration");
        assert_eq!(settled.config.members, [backup, spare], "{settled:?}");
        assert_eq!(settled.executed, 200, "the leader holds every transaction");
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
