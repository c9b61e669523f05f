//! Chaos soak harness: a bank workload driven under a seeded nemesis
//! schedule, with end-to-end safety assertions.
//!
//! The harness is generic over the [`Runtime`] seam, so the *same*
//! `(seed, profile, duration)` triple exercises the simulator (virtual
//! time) and the TCP runtime (real time) — the nemesis expands to a
//! byte-identical [`FaultPlan`] on each. After the schedule's last
//! fault heals (by `0.85 × duration`), the harness requires:
//!
//! * **Convergence** — every client eventually gets an answer for every
//!   transaction (the paper's liveness claim under "correct processes can
//!   eventually communicate");
//! * **Strict serializability** — every committed read satisfies the
//!   real-time bounds of
//!   [`crate::serializability::check_bank_history_concurrent`] (answers
//!   can be reordered by retransmission, so answer-order replay would be
//!   unsound here); a transaction executed twice (a resent deposit not
//!   deduplicated by cseq) inflates a balance that a post-heal read
//!   exposes, so this assertion doubles as the no-duplicate-execution
//!   check;
//! * **The probe invariants.** Every soak installs one [`Probe`] in its
//!   deployment — every replica, joiners and reboots included, records
//!   into it — and checks every invariant of [`crate::probe`] over it:
//!   at most one primary per configuration sequence number (per group
//!   when sharded), pairwise-disjoint lease intervals, 2PC atomicity and,
//!   after a power loss, a rejoin by catch-up only. A check holds
//!   vacuously where the log has no evidence for it (SMR records no
//!   primaries), so the legs that exist to exercise one also require
//!   evidence: the lease-read legs must serve fast reads, the sharded legs
//!   must run cross-shard commits. A failed check prints the log's last
//!   [`crate::probe::TAIL`] events;
//! * **Equal states (SMR)** — every replica still up, in each group,
//!   ends with the same accounts: each one executes every delivery, so a
//!   replica that missed some must have fetched them.
//!
//! Crashes are applied as scheduled, and a plan's restarts
//! (`RestartDurable`, the power-loss profile, which also gives the
//! deployment its disks) go through the deployment's own reboot call,
//! which brings the replica back from its disk and kicks it into
//! rejoining — the one way back from a crash. A replica with neither
//! state nor disk joins only through the reconfiguration path (a spare,
//! a joiner), never under its old identity.

use crate::client::{DbClient, DbClientStats};
use crate::deploy::{
    DeployOptions, DurabilityOptions, PbrDeployment, ShardGroup, ShardedDeployment, SmrDeployment,
};
use crate::pbr::PbrOptions;
use crate::probe::{
    check_catchup_only, check_lease_intervals_disjoint, check_one_primary_per_seq,
    check_two_pc_atomicity, timeline, Event, Probe, ProbeViolation, TransferKind,
};
use crate::serializability::check_bank_history_concurrent;
use crate::smr::SmrLeaseOptions;
use parking_lot::Mutex;
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::fault::mix64;
use shadowdb_runtime::{FaultTopology, Nemesis, NemesisProfile, NodeFaultKind, Runtime};
use shadowdb_sqldb::Database;
use shadowdb_workloads::{bank, KvGen, KvOptions, TxnRequest};
use std::sync::Arc;
use std::time::Duration;

/// Initial per-account balance loaded by [`bank::load`].
const INITIAL_BALANCE: i64 = 1_000;

/// Tuning for one chaos soak run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Schedule seed: same seed + profile + duration → same fault plan on
    /// every substrate.
    pub seed: u64,
    /// The nemesis scenario.
    pub profile: NemesisProfile,
    /// The nemesis window; every fault heals by `0.85 ×` this.
    pub duration: Duration,
    /// Total time budget (nemesis window plus convergence tail). The
    /// harness panics if clients have unanswered transactions past this.
    pub deadline: Duration,
    /// Number of closed-loop clients.
    pub n_clients: usize,
    /// Transactions per client (deposits with a read every third).
    pub txns_per_client: usize,
    /// Bank accounts; small keeps reads landing on written accounts.
    pub rows: usize,
    /// PBR failure-detection silence threshold.
    pub detect_after: Duration,
    /// PBR heartbeat period.
    pub heartbeat_every: Duration,
    /// Client retransmission base timeout (backs off exponentially).
    pub client_timeout: Duration,
    /// Broadcast-service pipelining window (`None` = backend default).
    pub window: Option<usize>,
}

impl ChaosOptions {
    /// A soak sized for CI: a short nemesis window, a convergence tail of
    /// 4× the window, and a workload small enough for real-time runtimes.
    pub fn quick(seed: u64, profile: NemesisProfile, duration: Duration) -> ChaosOptions {
        ChaosOptions {
            seed,
            profile,
            duration,
            deadline: duration * 4,
            n_clients: 2,
            txns_per_client: 40,
            rows: 64,
            detect_after: duration.mul_f64(0.10).max(Duration::from_millis(300)),
            heartbeat_every: duration.mul_f64(0.02).max(Duration::from_millis(50)),
            client_timeout: duration.mul_f64(0.05).max(Duration::from_millis(150)),
            window: None,
        }
    }

    /// Overrides the broadcast-service pipelining window.
    pub fn with_window(mut self, window: usize) -> ChaosOptions {
        self.window = Some(window);
        self
    }
}

/// What a soak run observed (assertions have already passed when this is
/// returned).
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Committed transactions (equals the total submitted).
    pub committed: usize,
    /// Client retransmissions — a proxy for how much the nemesis bit.
    pub resends: u64,
    /// Runtime fault-plane counters: messages/frames dropped.
    pub dropped: u64,
    /// Runtime fault-plane counters: messages/frames duplicated.
    pub duplicated: u64,
    /// PBR: the probe's `(config seq, primary)` rows, in recording order
    /// (empty for SMR).
    pub primaries: Vec<(i64, Loc)>,
}

/// The per-client transaction script: deposits with a read every third
/// transaction, on a deterministic account, so the serializability
/// checker has balances to pin the order with.
pub fn mixed_txns(seed: u64, n: usize, rows: usize) -> Vec<TxnRequest> {
    let mut gen = bank::BankGen::new(seed, rows);
    (0..n)
        .map(|k| {
            if k % 3 == 2 {
                TxnRequest::BankRead {
                    account: (mix64(seed ^ (k as u64) << 16) % rows as u64) as i64,
                }
            } else {
                gen.next_txn()
            }
        })
        .collect()
}

/// The sharded per-client script: a transfer every third transaction and
/// a read every third, deposits in between. Transfers draw both accounts
/// uniformly, so with `s` shards a fraction `(s-1)/s` of them are
/// cross-shard — the traffic the 2PC path and its atomicity assertions
/// need.
pub fn sharded_mixed_txns(seed: u64, n: usize, rows: usize) -> Vec<TxnRequest> {
    let mut gen = bank::BankGen::new(seed, rows);
    (0..n)
        .map(|k| match k % 3 {
            2 => TxnRequest::BankRead {
                account: (mix64(seed ^ (k as u64) << 16) % rows as u64) as i64,
            },
            1 => gen.next_transfer(),
            _ => gen.next_txn(),
        })
        .collect()
}

/// A 95%-read zipfian read/update mix (YCSB-B-shaped) instead of the
/// deposit-heavy bank scripts, so most transactions are eligible for the
/// lease fast path while the updates still give the serializability
/// checker balances to pin the order with.
fn read_mostly_txns(seed: u64, n: usize, rows: usize) -> Vec<TxnRequest> {
    KvGen::new(seed, KvOptions::ycsb_b(rows)).script(n)
}

/// The scripts every client runs (`script` per client seed) and the
/// options of the deployment that runs them, over `shards` groups
/// (`None`: an unsharded deployment).
fn deploy_options(
    opts: &ChaosOptions,
    shards: Option<usize>,
    script: fn(u64, usize, usize) -> Vec<TxnRequest>,
) -> (Vec<Vec<TxnRequest>>, DeployOptions) {
    let seed = |i: usize| opts.seed.wrapping_add(7919 * (i as u64 + 1));
    let scripts: Vec<Vec<TxnRequest>> = (0..opts.n_clients)
        .map(|i| script(seed(i), opts.txns_per_client, opts.rows))
        .collect();
    let (per_client, rows) = (scripts.clone(), opts.rows);
    let mut dopts = DeployOptions::sharded(
        shards.unwrap_or(1),
        opts.n_clients,
        move |i| per_client[i].clone(),
        move |shard, db| {
            let loaded = match shards {
                Some(n) => bank::load_shard(db, rows, n, shard),
                None => bank::load(db, rows),
            };
            loaded.expect("bank loads")
        },
    );
    dopts.client_timeout = opts.client_timeout;
    dopts.window = opts.window;
    // The harness starts the clients itself, *after* the fault plan is
    // armed: on a real-time runtime the clock runs during deployment, so
    // a builder-scheduled kick-off would race the workload against the
    // nemesis installation.
    dopts.start_clients = false;
    (scripts, dopts)
}

/// Installs the expanded plan (anchored at `epoch`, the workload start),
/// applies its node schedule, then kicks off the clients at `epoch`;
/// returns the epoch. `reconfig` names a `(joiner, donor)` pair — the
/// joiner may be a location that does not exist yet (plans address by
/// location, so the schedule is expressible before the node is), the
/// donor the incumbent that will stream its snapshot. Crashes are applied
/// as scheduled; each restart of the victim is handed to `reboot` — the
/// deployment's own reboot call — with its instant and a fresh tear seed.
/// Also returns the nodes the plan leaves down: crashed last, not
/// rebooted.
fn arm_nemesis<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    victim: Loc,
    clients: &[Loc],
    groups: Vec<Vec<Loc>>,
    reconfig: Option<(Loc, Loc)>,
    reboot: impl Fn(&mut R, VTime, u64),
) -> (VTime, Vec<Loc>) {
    // Core = every node that is not a client. (Sharded deployments lay
    // clients out *last*, unsharded ones first; membership, not position,
    // decides.)
    let core: Vec<Loc> = (0..rt.node_count())
        .map(Loc::new)
        .filter(|l| !clients.contains(l))
        .collect();
    let topo = FaultTopology {
        clients: clients.to_vec(),
        core,
        victim,
        groups,
        joiner: reconfig.map(|(joiner, _)| joiner),
        donor: reconfig.map(|(_, donor)| donor),
    };
    let epoch = rt.now() + Duration::from_millis(5);
    let plan = Nemesis::new(opts.seed, opts.profile, opts.duration)
        .plan(&topo)
        .shifted(Duration::from_micros(epoch.as_micros()));
    let mut reboots = 0u64;
    for f in &plan.node_faults {
        match f.kind {
            NodeFaultKind::Crash => rt.crash_at(f.at, f.loc),
            NodeFaultKind::RestartDurable => {
                assert_eq!(f.loc, victim, "power loss is the victim's");
                reboots += 1;
                reboot(rt, f.at, mix64(opts.seed ^ reboots));
            }
        }
    }
    let last = |loc: Loc| {
        plan.node_faults
            .iter()
            .filter(|f| f.loc == loc)
            .max_by_key(|f| f.at)
    };
    let mut down: Vec<Loc> = plan.node_faults.iter().map(|f| f.loc).collect();
    down.retain(|l| last(*l).is_some_and(|f| f.kind != NodeFaultKind::RestartDurable));
    rt.install_fault_plan(plan);
    for cl in clients {
        rt.send_at(epoch, *cl, DbClient::start_msg());
    }
    (epoch, down)
}

/// Σ(id·balance) over a database's accounts: equal states, equal sums.
fn checksum(db: &Database) -> i64 {
    let rows = db
        .execute("SELECT id, balance FROM accounts")
        .expect("accounts");
    let int = |v: &shadowdb_sqldb::SqlValue| v.as_int().expect("an integer");
    rows.rows.iter().map(|r| int(&r[0]) * int(&r[1])).sum()
}

/// Runs the runtime until the `replicas`' databases agree on every
/// account, or the deadline passes, and fails the soak if they do not.
fn assert_states_agree<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    kind: &str,
    replicas: &[(Loc, Database)],
) {
    let sums =
        || -> Vec<(Loc, i64)> { replicas.iter().map(|(l, db)| (*l, checksum(db))).collect() };
    let deadline = rt.now() + opts.deadline;
    let mut now = sums();
    while now.iter().any(|s| s.1 != now[0].1) && rt.now() < deadline {
        rt.run_for(Duration::from_millis(20));
        now = sums();
    }
    assert!(
        now.iter().all(|s| s.1 == now[0].1),
        "{kind} soak: the replicas' final states differ, Σ(id·balance) {now:?} (seed {}, {:?})",
        opts.seed,
        opts.profile
    );
}

/// Runs the runtime in slices until every transaction is answered or the
/// deadline passes; returns the number answered.
fn drive<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    stats: &[Arc<Mutex<DbClientStats>>],
) -> usize {
    let total = opts.n_clients * opts.txns_per_client;
    let slice = (opts.deadline / 64).max(Duration::from_millis(10));
    let deadline = rt.now() + opts.deadline;
    let answered =
        |stats: &[Arc<Mutex<DbClientStats>>]| stats.iter().map(|s| s.lock().completed.len()).sum();
    let mut done: usize = answered(stats);
    while done < total && rt.now() < deadline {
        rt.run_for(slice);
        done = answered(stats);
    }
    done
}

/// Checks convergence, strict serializability, and (when observations
/// disagree) reports exactly which invariant broke.
fn assert_history(
    opts: &ChaosOptions,
    kind: &str,
    answered: usize,
    scripts: &[Vec<TxnRequest>],
    stats: &[Arc<Mutex<DbClientStats>>],
) -> usize {
    let total = opts.n_clients * opts.txns_per_client;
    assert_eq!(
        answered, total,
        "{kind} soak did not converge after heal: {answered}/{total} answered \
         (seed {}, {:?})",
        opts.seed, opts.profile
    );
    let mut observations = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        observations.extend(s.lock().observations(&scripts[i]));
    }
    let committed = observations.len();
    assert_eq!(
        committed,
        total,
        "{kind} soak: {} transactions aborted (seed {}, {:?})",
        total - committed,
        opts.seed,
        opts.profile
    );
    if let Err(v) = check_bank_history_concurrent(&observations, INITIAL_BALANCE) {
        panic!(
            "{kind} soak history not strictly serializable (seed {}, {:?}): {v} \
             — a duplicated or lost transaction execution",
            opts.seed, opts.profile
        );
    }
    committed
}

/// Soaks a primary-backup deployment under the nemesis and asserts the
/// safety properties listed in the module docs. The victim is the
/// primary.
///
/// Under [`NemesisProfile::PowerLoss`] the deployment is durable and the
/// victim is the *backup*, repeatedly killed and rebooted from its disk
/// (WAL + snapshot, with a possibly torn unsynced tail) below the
/// failure-detection window, so membership never changes; the probe must
/// show it rejoined through the catch-up path only — recovery from disk
/// plus a short network suffix, never a full state transfer.
pub fn soak_pbr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "pbr", true, None, Stress::Faults)
}

/// The nodes of each shard for the nemesis topology: everything the
/// group's route addresses — replicas *and* broadcast servers — so a
/// group-to-group partition severs every cross-group path (PBR routes 2PC
/// records replica→replica, SMR routes them replica→target-group
/// broadcast server).
fn shard_groups(groups: &[ShardGroup]) -> Vec<Vec<Loc>> {
    groups.iter().map(|g| g.route().locs().collect()).collect()
}

/// Soaks a sharded primary-backup deployment — `shards` independent PBR
/// groups plus the deterministic 2PC-over-TOB cross-shard path — under
/// the nemesis. The victim handed to the nemesis is **shard 0's
/// primary**: shard 0 coordinates every 2PC it participates in, so
/// crash/partition profiles hit the protocol where its recovery argument
/// lives. On top of the unsharded assertions, the run must keep the 2PC
/// probe's event log atomic: no transaction half-committed across
/// groups.
///
/// Under [`NemesisProfile::PowerLoss`] the victim is shard 0's backup — a
/// 2PC participant power-cycled mid-protocol; the deployment reboots it
/// from its disk *with its shard role*, so the replayed WAL rebuilds the
/// 2PC engine and emission counters it crashed with.
pub fn soak_sharded_pbr<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    shards: usize,
) -> ChaosReport {
    soak(rt, opts, "sharded-pbr", true, Some(shards), Stress::Faults)
}

/// Soaks a sharded state-machine-replication deployment. The victim is a
/// replica of shard 0 (the coordinator group); under SMR any single
/// replica is expendable, so the interesting profiles are the
/// group-to-group partitions. Under [`NemesisProfile::PowerLoss`] it is
/// rebooted from its disk with its shard role (see [`soak_sharded_pbr`]).
pub fn soak_sharded_smr<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    shards: usize,
) -> ChaosReport {
    soak(rt, opts, "sharded-smr", false, Some(shards), Stress::Faults)
}

/// Drives the runtime in small slices until its clock reaches `until`.
fn drive_until<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions, until: VTime) {
    let slice = (opts.duration / 50).max(Duration::from_millis(1));
    while rt.now() < until {
        rt.run_for(slice);
    }
}

/// Soaks a primary-backup deployment through an *online replacement*
/// under the nemesis: shortly after the workload starts, the harness
/// replaces the last backup via
/// [`crate::deploy::ReconfigHandle::replace_replica`] — add a joiner,
/// wait out the overlapped transfer, remove the victim — retrying until
/// a replacement lands. Under
/// [`NemesisProfile::CrashDuringTransfer`] the first joiner is crashed
/// mid-stream and, in a later window, so is the donor primary; the
/// group must reconfigure past both losses (abandoning the dead joiner,
/// electing past the dead donor) with the usual [`soak_pbr`] safety
/// assertions holding *across* the configuration changes.
pub fn soak_reconfig_pbr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "reconfig-pbr", true, None, Stress::Replace)
}

/// Soaks a durable primary-backup deployment through power cycles of its
/// backup and then a reconfiguration: once the nemesis has healed, the
/// harness `Promote`s the rebooted member. The election that follows
/// counts it — it cannot complete without the member's report — so the
/// member must end up settled, as primary, in the new configuration, on
/// top of the [`soak_pbr`] assertions. Needs
/// [`NemesisProfile::PowerLoss`].
pub fn soak_power_cycle_reconfig_pbr<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
) -> ChaosReport {
    assert_eq!(opts.profile, NemesisProfile::PowerLoss, "a power cycle");
    soak(
        rt,
        opts,
        "power-cycle-reconfig-pbr",
        true,
        None,
        Stress::Reelect,
    )
}

/// Soaks a state-machine-replication deployment through an online
/// replacement. SMR membership is the broadcast subscriber set, so the
/// replace itself cannot fail — a joiner lost mid-fetch is just a dead
/// subscriber — and the assertion is the survivors' convergence and the
/// history's strict serializability across the subscription change.
pub fn soak_reconfig_smr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "reconfig-smr", false, None, Stress::Replace)
}

/// Sharding × reconfiguration under PBR: [`soak_reconfig_pbr`] over
/// `shards` groups with cross-shard transfers in flight, replacing shard
/// 0's **primary** — so the group elects a new one (possibly the joiner)
/// while it coordinates every 2PC it takes part in, and the other groups'
/// votes and completion marks must follow its configuration chain. Adds
/// the 2PC atomicity assertion of [`soak_sharded_pbr`].
pub fn soak_sharded_reconfig_pbr<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    shards: usize,
) -> ChaosReport {
    soak(
        rt,
        opts,
        "sharded-reconfig-pbr",
        true,
        Some(shards),
        Stress::Replace,
    )
}

/// Sharding × reconfiguration under SMR: [`soak_reconfig_smr`] over
/// `shards` groups; the joiner adopts the group's 2PC engine with its
/// snapshot and emits under its own location from then on.
pub fn soak_sharded_reconfig_smr<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    shards: usize,
) -> ChaosReport {
    soak(
        rt,
        opts,
        "sharded-reconfig-smr",
        false,
        Some(shards),
        Stress::Replace,
    )
}

/// Drives the runtime past the end of the workload until the probe shows
/// a catch-up served to the rebooted `victim` (bounded by the soak's
/// deadline, which only turns a rejoin that never happens into a failed
/// check instead of a hang): the clients can finish before the last
/// reboot's fetch is answered — a PBR fetch that asks a backup first
/// waits a heartbeat period for its retry, and on the real-time runtimes
/// a loaded machine can slide the whole power cycle past the last
/// answered transaction.
fn await_catchup<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions, probe: &Probe, victim: Loc) {
    let caught_up = Event::Transfer {
        to: victim,
        kind: TransferKind::Catchup,
    };
    let deadline = rt.now() + opts.deadline;
    while !probe.events().contains(&caught_up) && rt.now() < deadline {
        rt.run_for(Duration::from_millis(20));
    }
}

/// What a soak does to the deployment besides running the nemesis.
#[derive(Clone, Copy, PartialEq)]
enum Stress {
    /// Nothing: the nemesis' link faults, crashes and power cycles only.
    /// Its victim is the PBR primary — or, under power loss, the *backup*:
    /// outages are shorter than failure detection, so the primary keeps
    /// serving and the rebooted backup must re-enter the same
    /// configuration from its disk — or the last SMR replica (any single
    /// one is expendable: clients take the first answer from a survivor).
    Faults,
    /// Shortly after the workload starts a replica is replaced online —
    /// the last one, or in a sharded PBR deployment shard 0's primary, so
    /// that the group other shards address changes its leader; the
    /// nemesis aims at the joiner and at replica 0, the donor (the
    /// incumbent primary, or the first in an SMR joiner's snapshot-fetch
    /// rotation).
    Replace,
    /// The clients run a 95%-read mix instead of the bank scripts, with
    /// the lease read fast path on: leases of four heartbeats, renewed
    /// every heartbeat. The victim is the lease holder — the PBR
    /// primary, SMR's rank-0 claimant — so the partition profiles cut
    /// exactly the node whose lease must run out before a successor
    /// serves, while clients keep sending it reads.
    LeaseReads,
    /// Power cycles of the PBR backup, then `Promote` of that rebooted
    /// member once the nemesis has healed.
    Reelect,
}

/// The one soak body, for every deployment shape: either ordering policy,
/// sharded or not, under each [`Stress`]. The deployment gets disks
/// exactly when the profile is [`NemesisProfile::PowerLoss`], whose plan
/// reboots its victim from them.
fn soak<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    kind: &str,
    primary_backup: bool,
    shards: Option<usize>,
    stress: Stress,
) -> ChaosReport {
    let probe = Probe::default();
    let durable = opts.profile == NemesisProfile::PowerLoss;
    let leases = stress == Stress::LeaseReads;
    let script = match (leases, shards) {
        (true, _) => read_mostly_txns as fn(_, _, _) -> _,
        (false, Some(_)) => sharded_mixed_txns,
        (false, None) => mixed_txns,
    };
    let (scripts, mut dopts) = deploy_options(opts, shards, script);
    dopts.probe = Some(probe.clone());
    // Snapshots often enough to land inside the run.
    dopts.durability = durable.then(|| DurabilityOptions {
        snapshot_every: 64,
        ..DurabilityOptions::default()
    });
    // Leases of four heartbeats, renewed every heartbeat.
    dopts.smr_leases = leases.then(|| SmrLeaseOptions {
        lease_duration: opts.heartbeat_every * 4,
        renew_every: opts.heartbeat_every,
        ..SmrLeaseOptions::default()
    });
    let pbr = primary_backup.then(|| PbrOptions {
        heartbeat_every: opts.heartbeat_every,
        detect_after: opts.detect_after,
        ..PbrOptions::default()
    });
    // An unsharded deployment is its one group.
    let d: ShardedDeployment = match (pbr, shards) {
        (Some(pbr), Some(_)) => ShardedDeployment::build_pbr(rt, &dopts, pbr),
        (None, Some(_)) => ShardedDeployment::build_smr(rt, &dopts),
        (Some(pbr), None) => PbrDeployment::build(rt, &dopts, pbr).into(),
        (None, None) => SmrDeployment::build(rt, &dopts).into(),
    };
    // Shard 0 coordinates every 2PC it participates in, so its replicas
    // are where crash and partition profiles hit the protocol hardest.
    let replicas = &d.groups[0].replicas;
    let victim = match (primary_backup, stress) {
        (_, Stress::LeaseReads) => replicas[0],
        (true, Stress::Faults | Stress::Reelect) if durable => replicas[1],
        (true, Stress::Faults) => replicas[0],
        (true, Stress::Replace) if shards.is_some() => replicas[0],
        _ => replicas[replicas.len() - 1],
    };
    // Locations are allocated sequentially on every runtime, so the first
    // joiner's location is knowable before the node exists — which is how
    // the fault plan can target a node born mid-run.
    let mut handle = (stress == Stress::Replace).then(|| d.reconfig_group(rt, 0));
    let reconfig = handle
        .as_ref()
        .map(|_| (Loc::new(rt.node_count()), replicas[0]));
    let groups = shard_groups(&d.groups);
    let reboot = |rt: &mut R, at, tear| d.reboot(rt, victim, at, tear);
    let (epoch, down) = arm_nemesis(rt, opts, victim, &d.clients, groups, reconfig, reboot);
    if let Some(handle) = handle.as_mut() {
        // Start the replacement at ~0.10 of the nemesis window (the
        // CrashDuringTransfer joiner-crash window opens at 0.15, so the
        // first transfer is in flight when it lands) and retry until a
        // replacement succeeds: a joiner lost mid-transfer is abandoned by
        // the group and the harness re-replaces — the operator behavior
        // the profile stresses. An SMR replace cannot fail (a joiner lost
        // mid-fetch is just a dead subscriber); a PBR one that trips over
        // a crash cannot finish faster than failure detection, so each
        // attempt gets at least several detection periods regardless of
        // how short the nemesis window is.
        drive_until(rt, opts, epoch + opts.duration.mul_f64(0.10));
        let attempt = match primary_backup {
            true => opts.duration.max(opts.detect_after * 4),
            false => opts.duration,
        };
        let mut added = None;
        while added.is_none() && rt.now() < epoch + attempt * 3 {
            added = handle.replace_replica(rt, victim, attempt);
        }
        assert!(
            added.is_some(),
            "{kind} soak never completed a replacement (seed {}, {:?})",
            opts.seed,
            opts.profile
        );
        if let Some(added) = added.filter(|_| victim == replicas[0]) {
            // The primary was replaced: the highest report wins the
            // election, ties to the smallest id, so the joiner — caught up
            // from the others, and the newest location — does not. Promote
            // it, so the group the other shards address is led from a
            // location none of them was deployed with. Best effort — a
            // crash racing the command may leave it unadopted.
            handle.promote(rt, added, attempt);
        }
    }
    if stress == Stress::Reelect {
        drive_until(rt, opts, epoch + opts.duration);
        await_catchup(rt, opts, &probe, victim);
        let attempt = opts.duration.max(opts.detect_after * 4);
        let mut handle = d.reconfig_group(rt, 0);
        let counted =
            handle.promote(rt, victim, attempt) && handle.await_member(rt, victim, attempt);
        let led = handle.query_config(rt, attempt).map(|r| r.config.primary());
        assert!(
            counted && led == Some(victim),
            "{kind} soak: the rebooted member {victim:?} was not counted in the next \
             election, which elected {led:?} (seed {}, {:?})",
            opts.seed,
            opts.profile
        );
    }
    let answered = drive(rt, opts, &d.stats);
    if durable {
        await_catchup(rt, opts, &probe, victim);
    }
    let committed = assert_history(opts, kind, answered, &scripts, &d.stats);
    if !primary_backup {
        // A replaced SMR replica left its group; the joiner took its place.
        let left = (stress == Stress::Replace).then_some(victim);
        for g in &d.groups {
            let mut up = g.databases();
            up.retain(|(l, _)| !down.contains(l) && Some(*l) != left);
            assert_states_agree(rt, opts, kind, &up);
        }
    }

    let events = probe.events();
    let fail =
        |v: ProbeViolation| panic!("{kind} soak (seed {}, {:?}): {v}", opts.seed, opts.profile);
    // Joiners belong to no deploy-time group: an unsharded deployment's
    // primaries are all one group's.
    let primary_groups: Vec<Vec<Loc>> = match shards {
        Some(_) => d.groups.iter().map(|g| g.replicas.clone()).collect(),
        None => Vec::new(),
    };
    check_one_primary_per_seq(&events, &primary_groups).unwrap_or_else(fail);
    check_lease_intervals_disjoint(&events).unwrap_or_else(fail);
    check_two_pc_atomicity(&events).unwrap_or_else(fail);
    if durable {
        check_catchup_only(&events, victim).unwrap_or_else(fail);
    }
    // The legs that exist to exercise a check must hand it evidence: the
    // nemesis must not have silently pushed every read onto the ordered
    // path, nor every transfer onto one shard.
    let never = |what: &str, seen: fn(&Event) -> bool| {
        assert!(
            events.iter().any(seen),
            "{kind} soak never {what} (seed {}, {:?})\n{}",
            opts.seed,
            opts.profile,
            timeline(&events)
        );
    };
    if leases {
        never("served a fast-path read", |e| {
            matches!(e, Event::LeaseRead { .. })
        });
    }
    if d.map.shards() > 1 {
        never("exercised cross-shard commit", |e| {
            matches!(e, Event::TwoPc(_))
        });
    }
    let primaries = events.iter().filter_map(|e| match *e {
        Event::Primary { seq, loc } => Some((seq, loc)),
        _ => None,
    });
    let (dropped, duplicated) = rt.fault_stats();
    ChaosReport {
        committed,
        resends: d.stats.iter().map(|s| s.lock().resends).sum(),
        dropped,
        duplicated,
        primaries: primaries.collect(),
    }
}

/// Soaks a primary-backup deployment with the lease-read fast path
/// enabled under a 95%-read mix: under [`NemesisProfile::
/// StalePrimaryReads`] the initial primary — the lease holder — is cut
/// off, and its stale lease must self-expire before the promoted
/// successor starts answering. On top of the [`soak_pbr`] assertions,
/// fast reads must have been served under pairwise-disjoint lease
/// intervals.
pub fn soak_reads_pbr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "reads-pbr", true, None, Stress::LeaseReads)
}

/// Soaks a state-machine-replication deployment with the lease-read fast
/// path enabled under a 95%-read mix. The victim is replica 0, the
/// steady-state holder: the partition profiles separate it from the
/// broadcast service while clients keep sending it reads, and its
/// marker-stamped window must run out before a surviving replica's claim
/// takes effect. Assertions as in [`soak_smr`], plus served fast reads
/// under disjoint intervals.
///
/// Under [`NemesisProfile::PowerLoss`] the deployment is durable as well
/// (durability × leases): the holder itself loses power and the
/// deployment reboots it from its disk, lease plane included — for one
/// lease length after the reboot it must neither serve fast reads nor
/// acknowledge writes, whatever markers its WAL replayed — and every
/// rejoin must be served as a catch-up.
pub fn soak_reads_smr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "reads-smr", false, None, Stress::LeaseReads)
}

/// Soaks a state-machine-replication deployment under the nemesis and
/// asserts convergence plus strict serializability. The victim is the
/// last replica. Under [`NemesisProfile::PowerLoss`] it is repeatedly
/// power-cycled, recovers from its WAL + snapshot and fetches the
/// delivery suffix it missed from a peer's window; the probe must show
/// every rejoin was served as a catch-up, never a snapshot.
pub fn soak_smr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "smr", false, None, Stress::Faults)
}
