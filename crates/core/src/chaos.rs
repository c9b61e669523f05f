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
//! * **PBR only: at most one primary per configuration** — via the
//!   [`PrimaryProbe`], no two replicas ever execute client transactions
//!   as primary of the same configuration sequence number.
//!
//! Crashes are applied as scheduled, and a plan's durable restarts
//! (`RestartDurable`, the power-loss profile) go through the deployment's
//! own reboot call, which brings the replica back from its disk and kicks
//! it into rejoining. Only the amnesiac `Restart` is skipped: a replica
//! restarted with neither state nor disk would rejoin in the initial
//! configuration with an empty database, which the protocols support only
//! through the reconfiguration path (a spare, a joiner), not amnesiac
//! resurrection.

use crate::client::{DbClient, DbClientStats};
use crate::deploy::{
    DeployOptions, DurabilityOptions, PbrDeployment, ShardGroup, ShardedDeployment, SmrDeployment,
};
use crate::pbr::{LeaseProbe, PbrOptions, PrimaryProbe, TransferKind, TransferProbe};
use crate::serializability::check_bank_history_concurrent;
use crate::shard::{check_two_pc_atomicity, TwoPcProbe};
use crate::smr::SmrLeaseOptions;
use parking_lot::Mutex;
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::fault::mix64;
use shadowdb_runtime::{FaultTopology, Nemesis, NemesisProfile, NodeFaultKind, Runtime};
use shadowdb_workloads::{bank, KvGen, KvOptions, ShardMap, TxnRequest};
use std::collections::HashMap;
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
    /// PBR: the probe's `(config seq, primary)` log (empty for SMR).
    pub primaries: Vec<(i64, Loc)>,
}

/// Assembles the report of a soak whose assertions have all passed.
fn report<R: Runtime + ?Sized>(
    rt: &R,
    stats: &[Arc<Mutex<DbClientStats>>],
    committed: usize,
    primaries: Vec<(i64, Loc)>,
) -> ChaosReport {
    let (dropped, duplicated) = rt.fault_stats();
    ChaosReport {
        committed,
        resends: stats.iter().map(|s| s.lock().resends).sum(),
        dropped,
        duplicated,
        primaries,
    }
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

/// The soak's failure-detection timing, observed by the primary probe.
fn pbr_options(opts: &ChaosOptions, probe: &PrimaryProbe) -> PbrOptions {
    PbrOptions {
        heartbeat_every: opts.heartbeat_every,
        detect_after: opts.detect_after,
        probe: Some(probe.clone()),
        ..PbrOptions::default()
    }
}

/// Installs the expanded plan (anchored at `epoch`, the workload start),
/// applies its node schedule, then kicks off the clients at `epoch`;
/// returns the epoch. `reconfig` names a `(joiner, donor)` pair — the
/// joiner may be a location that does not exist yet (plans address by
/// location, so the schedule is expressible before the node is), the
/// donor the incumbent that will stream its snapshot. Crashes are applied
/// as scheduled; each durable restart of the victim is handed to `reboot`
/// — the deployment's own reboot call — with its instant and a fresh tear
/// seed; amnesiac restarts are skipped (see the module docs).
fn arm_nemesis<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    victim: Loc,
    clients: &[Loc],
    groups: Vec<Vec<Loc>>,
    reconfig: Option<(Loc, Loc)>,
    reboot: impl Fn(&mut R, VTime, u64),
) -> VTime {
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
            NodeFaultKind::Restart => {}
        }
    }
    rt.install_fault_plan(plan);
    for cl in clients {
        rt.send_at(epoch, *cl, DbClient::start_msg());
    }
    epoch
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
pub fn soak_pbr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "pbr", true, None, Stress::Faults)
}

/// Election safety, observed end to end: no configuration sequence
/// number ever had two distinct replicas executing as its primary.
/// Config sequence numbers are group-local, so in a sharded deployment
/// uniqueness is asserted per `(group, seq)`; `groups` is empty for an
/// unsharded one (every probe entry, joiners included, is one group's).
/// Returns the probe's `(config seq, primary)` log for the report.
fn assert_one_primary_per_seq(
    opts: &ChaosOptions,
    probe: &PrimaryProbe,
    groups: &[ShardGroup],
) -> Vec<(i64, Loc)> {
    let primaries = probe.lock().clone();
    let group_of = |loc: Loc| groups.iter().position(|g| g.replicas.contains(&loc));
    let mut by_seq: HashMap<(Option<usize>, i64), Loc> = HashMap::new();
    for (seq, loc) in &primaries {
        if let Some(prev) = by_seq.insert((group_of(*loc), *seq), *loc) {
            assert_eq!(
                prev, *loc,
                "two primaries executed in one group's config {seq}: {prev:?} and {loc:?} \
                 (seed {}, {:?})",
                opts.seed, opts.profile
            );
        }
    }
    primaries
}

/// The nodes of each shard for the nemesis topology: everything the
/// group's route addresses — replicas *and* broadcast servers — so a
/// group-to-group partition severs every cross-group path (PBR routes 2PC
/// records replica→replica, SMR routes them replica→target-group
/// broadcast server).
fn shard_groups(groups: &[ShardGroup]) -> Vec<Vec<Loc>> {
    groups.iter().map(|g| g.route().locs().collect()).collect()
}

/// Asserts the cross-shard invariants on the 2PC probe: the event log is
/// internally consistent (no conflicting votes/decisions/applies) and no
/// transaction committed on one shard while aborting — or never landing —
/// on another.
fn assert_two_pc(opts: &ChaosOptions, kind: &str, probe: &TwoPcProbe, map: ShardMap) {
    let events = probe.lock();
    if map.shards() > 1 {
        assert!(
            !events.is_empty(),
            "{kind} soak never exercised cross-shard commit (seed {}, {:?})",
            opts.seed,
            opts.profile
        );
    }
    if let Err(e) = check_two_pc_atomicity(&events) {
        panic!(
            "{kind} soak violated cross-shard atomicity (seed {}, {:?}): {e}",
            opts.seed, opts.profile
        );
    }
}

/// Soaks a sharded primary-backup deployment — `shards` independent PBR
/// groups plus the deterministic 2PC-over-TOB cross-shard path — under
/// the nemesis. The victim handed to the nemesis is **shard 0's
/// primary**: shard 0 coordinates every 2PC it participates in, so
/// crash/partition profiles hit the protocol where its recovery argument
/// lives. On top of the unsharded assertions, the run must keep the 2PC
/// probe's event log atomic: no transaction half-committed across
/// groups.
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
/// group-to-group partitions.
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

/// The durability plane's central claim, asserted on the donor-side
/// transfer probe: every time the rebooted victim rejoined, it was served
/// the *suffix it missed* (catch-up / delta), never a full state
/// transfer. The runtime is first driven past the end of the workload
/// until a catch-up shows (bounded by the soak's deadline, which only
/// turns a rejoin that never happens into a failure instead of a hang):
/// the clients can finish before the last reboot's handshake completes —
/// the refetch runs off the heartbeat timer, and on the real-time runtimes
/// a loaded machine can slide the whole power cycle past the last
/// answered transaction.
fn assert_rejoined_without_snapshot<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    kind: &str,
    transfers: &TransferProbe,
    victim: Loc,
) {
    let served = |as_a: TransferKind| {
        let log = transfers.lock();
        log.iter().filter(|t| **t == (victim, as_a)).count()
    };
    let deadline = rt.now() + opts.deadline;
    while served(TransferKind::Catchup) == 0 && rt.now() < deadline {
        rt.run_for(Duration::from_millis(20));
    }
    assert!(
        served(TransferKind::Catchup) >= 1,
        "{kind} soak: rebooted replica never completed a suffix catch-up \
         (seed {}, {:?})",
        opts.seed,
        opts.profile
    );
    assert_eq!(
        served(TransferKind::Snapshot),
        0,
        "{kind} soak: restart-from-disk fell back to a full state transfer \
         (seed {}, {:?})",
        opts.seed,
        opts.profile
    );
}

/// The durable-storage settings of every power-loss soak: snapshots
/// often enough to land inside the run, and the probe the rejoin
/// assertions read.
fn power_loss_durability(transfers: &TransferProbe) -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every: 64,
        transfer_probe: Some(transfers.clone()),
        ..DurabilityOptions::default()
    }
}

/// Soaks a durability-enabled primary-backup deployment under
/// [`NemesisProfile::PowerLoss`]: the backup is repeatedly killed and
/// rebooted *from its disk* (WAL + snapshot, with a possibly torn
/// unsynced tail), below the failure-detection window so membership
/// never changes. On top of the [`soak_pbr`] assertions, the transfer
/// probe must show the rebooted backup rejoined through the catch-up
/// path only — recovery from disk plus a short network suffix, never a
/// full state transfer.
pub fn soak_durability_pbr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "durability-pbr", true, None, Stress::PowerLoss)
}

/// Sharding × durability: [`soak_durability_pbr`] over `shards` PBR
/// groups with cross-shard transfers in flight. The victim is shard 0's
/// backup — a 2PC participant (and, shard 0 being the smallest,
/// coordinator-group member) power-cycled mid-protocol; the deployment
/// reboots it from its disk *with its shard role*, so the replayed WAL
/// rebuilds the 2PC engine and emission counters it crashed with. Adds
/// the 2PC atomicity assertion of [`soak_sharded_pbr`].
pub fn soak_sharded_pbr_power_loss<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    shards: usize,
) -> ChaosReport {
    soak(
        rt,
        opts,
        "sharded-pbr-power-loss",
        true,
        Some(shards),
        Stress::PowerLoss,
    )
}

/// Soaks a durability-enabled state-machine-replication deployment under
/// [`NemesisProfile::PowerLoss`]: one replica is repeatedly power-cycled
/// and recovers from its WAL + snapshot, then fetches the delivery
/// suffix it missed from a peer's recent-delivery cache. The transfer
/// probe must show every rejoin was served as a delta, never a snapshot.
pub fn soak_durability_smr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "durability-smr", false, None, Stress::PowerLoss)
}

/// Sharding × durability under SMR: [`soak_durability_smr`] over
/// `shards` groups with cross-shard transfers in flight; the victim is
/// shard 0's last replica, rebooted with its shard role (see
/// [`soak_sharded_pbr_power_loss`]).
pub fn soak_sharded_smr_power_loss<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    shards: usize,
) -> ChaosReport {
    soak(
        rt,
        opts,
        "sharded-smr-power-loss",
        false,
        Some(shards),
        Stress::PowerLoss,
    )
}

/// What a soak does to the deployment besides running the nemesis.
#[derive(Clone, Copy, PartialEq)]
enum Stress {
    /// Nothing: the nemesis' link faults and crashes only. Its victim is
    /// the PBR primary, or the last SMR replica (any single one is
    /// expendable: clients take the first answer from a survivor).
    Faults,
    /// The deployment has disks, and the victim's power cycles go through
    /// the deployment's own reboot call. Under PBR that victim is the
    /// *backup*: outages are shorter than failure detection, so the
    /// primary keeps serving and the rebooted backup must re-enter the
    /// same configuration from its disk.
    PowerLoss,
    /// Shortly after the workload starts a replica is replaced online —
    /// the last one, or in a sharded PBR deployment shard 0's primary, so
    /// that the group other shards address changes its leader; the
    /// nemesis aims at the joiner and at replica 0, the donor (the
    /// incumbent primary, or the first in an SMR joiner's snapshot-fetch
    /// rotation).
    Replace,
}

/// The one soak body, for every deployment shape: either ordering policy,
/// sharded or not, under each [`Stress`].
fn soak<R: Runtime + ?Sized>(
    rt: &mut R,
    opts: &ChaosOptions,
    kind: &str,
    primary_backup: bool,
    shards: Option<usize>,
    stress: Stress,
) -> ChaosReport {
    let probe: PrimaryProbe = Arc::new(Mutex::new(Vec::new()));
    let twopc: TwoPcProbe = Arc::new(Mutex::new(Vec::new()));
    let transfers: TransferProbe = Arc::new(Mutex::new(Vec::new()));
    let durable = stress == Stress::PowerLoss;
    let script = shards.map_or(mixed_txns as fn(_, _, _) -> _, |_| sharded_mixed_txns);
    let (scripts, mut dopts) = deploy_options(opts, shards, script);
    dopts.probe = shards.map(|_| twopc.clone());
    dopts.durability = durable.then(|| power_loss_durability(&transfers));
    let pbr = primary_backup.then(|| pbr_options(opts, &probe));
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
        (true, Stress::Faults) => replicas[0],
        (true, Stress::PowerLoss) => replicas[1],
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
    let epoch = arm_nemesis(rt, opts, victim, &d.clients, groups, reconfig, reboot);
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
            // The primary was replaced: the survivors elect the smallest
            // id among the caught-up, never the joiner. Prefer it, so the
            // group the other shards address is led from a location none
            // of them was deployed with. Best effort — a crash racing the
            // command may leave the preference unadopted.
            handle.promote(rt, added, attempt);
        }
    }
    let answered = drive(rt, opts, &d.stats);
    if durable {
        assert_rejoined_without_snapshot(rt, opts, kind, &transfers, victim);
    }
    let committed = assert_history(opts, kind, answered, &scripts, &d.stats);
    // Joiners belong to no deploy-time group: an unsharded deployment's
    // probe entries are all one group's.
    let probed = shards.map_or(&[][..], |_| &d.groups[..]);
    let primaries = assert_one_primary_per_seq(opts, &probe, probed);
    assert_two_pc(opts, kind, &twopc, d.map);
    report(rt, &d.stats, committed, primaries)
}

/// The single-holder guarantee, asserted on the lease probe: no two
/// nodes ever served fast-path reads under overlapping lease intervals.
/// Intervals are compared across *all* configurations — a successor must
/// wait out its predecessor's lease, so even cross-config overlap is a
/// violation — and the probe must be non-empty (the nemesis must not
/// have silently pushed every read onto the ordered path).
fn assert_lease_intervals_disjoint(opts: &ChaosOptions, kind: &str, probe: &LeaseProbe) {
    let rows = probe.lock();
    assert!(
        !rows.is_empty(),
        "{kind} soak never served a fast-path read (seed {}, {:?})",
        opts.seed,
        opts.profile
    );
    for a in rows.iter() {
        for b in rows.iter() {
            if a.1 != b.1 {
                assert!(
                    !(a.2 < b.3 && b.2 < a.3),
                    "{kind} soak: two holders served fast reads under overlapping \
                     lease intervals: {a:?} vs {b:?} (seed {}, {:?})",
                    opts.seed,
                    opts.profile
                );
            }
        }
    }
}

/// Soaks a primary-backup deployment with the lease-read fast path
/// enabled under a 95%-read mix. The victim handed to the nemesis is the
/// initial primary — the lease holder — so [`NemesisProfile::
/// StalePrimaryReads`] cuts exactly the node whose stale lease must
/// self-expire before the promoted successor starts answering. Leases
/// are sized *below* the failure-detection window: by the time a
/// successor can possibly finish recovery, the deposed holder has
/// already stopped serving. On top of the [`soak_pbr`] assertions, the
/// lease probe must show fast reads were served and that no two holders'
/// intervals ever overlapped.
pub fn soak_reads_pbr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    let probe: PrimaryProbe = Arc::new(Mutex::new(Vec::new()));
    let leases: LeaseProbe = Arc::new(Mutex::new(Vec::new()));
    let pbr = PbrOptions {
        read_leases: true,
        lease_duration: opts.heartbeat_every * 4,
        lease_probe: Some(leases.clone()),
        ..pbr_options(opts, &probe)
    };
    let (scripts, dopts) = deploy_options(opts, None, read_mostly_txns);
    let d = PbrDeployment::build(rt, &dopts, pbr);
    // No disks, and no durable restart in the read-soak profiles.
    let victim = d.replicas[0];
    arm_nemesis(rt, opts, victim, &d.clients, Vec::new(), None, |_, _, _| {});
    let answered = drive(rt, opts, &d.stats);
    let committed = assert_history(opts, "reads-pbr", answered, &scripts, &d.stats);
    let primaries = assert_one_primary_per_seq(opts, &probe, &[]);
    assert_lease_intervals_disjoint(opts, "reads-pbr", &leases);
    report(rt, &d.stats, committed, primaries)
}

/// Soaks a state-machine-replication deployment with the lease-read fast
/// path enabled under a 95%-read mix. The victim is replica 0 — the
/// rank-0 claimant, i.e. the steady-state lease holder — so the
/// partition profiles separate the holder from the broadcast service
/// while clients keep sending it reads; its marker-stamped window must
/// run out before a surviving replica's claim takes effect. Assertions
/// as in [`soak_smr`], plus the lease probe's non-emptiness and
/// holder-interval disjointness.
///
/// Under [`NemesisProfile::PowerLoss`] the deployment is durable as well
/// (durability × leases): the holder itself loses power and the
/// deployment reboots it from its disk, lease plane included — for one
/// lease length after the reboot it must neither serve fast reads nor
/// acknowledge writes, whatever markers its WAL replayed — and every
/// rejoin must be served as a delta.
pub fn soak_reads_smr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    let leases: LeaseProbe = Arc::new(Mutex::new(Vec::new()));
    let transfers: TransferProbe = Arc::new(Mutex::new(Vec::new()));
    let power_loss = opts.profile == NemesisProfile::PowerLoss;
    let (scripts, mut dopts) = deploy_options(opts, None, read_mostly_txns);
    dopts.smr_leases = Some(SmrLeaseOptions {
        lease_duration: opts.heartbeat_every * 4,
        renew_every: opts.heartbeat_every,
        lease_probe: Some(leases.clone()),
        ..SmrLeaseOptions::default()
    });
    dopts.durability = power_loss.then(|| power_loss_durability(&transfers));
    let d = SmrDeployment::build(rt, &dopts);
    let victim = d.replicas[0];
    let reboot = |rt: &mut R, at, tear| d.reboot(rt, victim, at, tear);
    arm_nemesis(rt, opts, victim, &d.clients, Vec::new(), None, reboot);
    let answered = drive(rt, opts, &d.stats);
    if power_loss {
        assert_rejoined_without_snapshot(rt, opts, "reads-smr", &transfers, victim);
    }
    let committed = assert_history(opts, "reads-smr", answered, &scripts, &d.stats);
    assert_lease_intervals_disjoint(opts, "reads-smr", &leases);
    report(rt, &d.stats, committed, Vec::new())
}

/// Soaks a state-machine-replication deployment under the nemesis and
/// asserts convergence plus strict serializability. The victim is the
/// last replica.
pub fn soak_smr<R: Runtime + ?Sized>(rt: &mut R, opts: &ChaosOptions) -> ChaosReport {
    soak(rt, opts, "smr", false, None, Stress::Faults)
}
