//! Deterministic restart-from-disk acceptance tests (simulator).
//!
//! One replica is killed mid-workload and rebooted *from its disk*: the
//! recovery path must install the latest durable snapshot, replay the
//! WAL suffix (surviving whatever the power loss tore off the unsynced
//! tail), and rejoin the group through the catch-up path — a short
//! network suffix, never a full state transfer. The client-observed
//! history must stay strictly serializable across the power cycle: no
//! acked transaction lost to the reboot, none executed twice by the
//! replay. The randomized version of this scenario is the `PowerLoss`
//! soak in `chaos_soak.rs`; this file pins one schedule so failures
//! bisect cleanly.

use parking_lot::Mutex;
use shadowdb::chaos::mixed_txns;
use shadowdb::client::{DbClient, DbClientStats};
use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment, SmrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_catchup_only, Event, Probe, TransferKind};
use shadowdb::serializability::check_bank_history_concurrent;
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;
use shadowdb_workloads::{bank, TxnRequest};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 64;
const CLIENTS: usize = 2;
const TXNS: usize = 150;
const INITIAL_BALANCE: i64 = 1_000;
const SNAPSHOT_EVERY: i64 = 32;

fn scripts(seed: u64) -> Vec<Vec<TxnRequest>> {
    (0..CLIENTS)
        .map(|i| mixed_txns(seed.wrapping_add(7919 * (i as u64 + 1)), TXNS, ROWS))
        .collect()
}

fn options(scripts: Vec<Vec<TxnRequest>>, probe: &Probe) -> DeployOptions {
    let mut o = DeployOptions::new(
        CLIENTS,
        move |i| scripts[i].clone(),
        |db| bank::load(db, ROWS).expect("bank loads"),
    );
    o.client_timeout = Duration::from_millis(150);
    o.start_clients = false; // started explicitly, after faults are armed
    o.durability = Some(DurabilityOptions {
        snapshot_every: SNAPSHOT_EVERY,
        ..DurabilityOptions::default()
    });
    o.probe = Some(probe.clone());
    o
}

/// Detection far slower than the 80 ms outages below, so membership never
/// changes and a stalled primary simply waits for its backup.
fn pbr_options(cache_limit: usize) -> PbrOptions {
    PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(400),
        cache_limit,
        ..PbrOptions::default()
    }
}

fn start_clients(sim: &mut shadowdb_simnet::Simulation, clients: &[Loc]) {
    for c in clients {
        sim.send_at(VTime::from_millis(1), *c, DbClient::start_msg());
    }
}

/// Drives the workload to its end: every transaction answered, and the
/// history strictly serializable across the power cycle.
fn assert_converged<R: Runtime + ?Sized>(
    rt: &mut R,
    scripts: &[Vec<TxnRequest>],
    stats: &[Arc<Mutex<DbClientStats>>],
) {
    let total = CLIENTS * TXNS;
    let deadline = rt.now() + Duration::from_secs(120);
    let answered = || -> usize { stats.iter().map(|s| s.lock().completed.len()).sum() };
    while answered() < total && rt.now() < deadline {
        rt.run_for(Duration::from_millis(50));
    }
    assert_eq!(answered(), total, "did not converge after the reboot");
    let mut observations = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        observations.extend(s.lock().observations(&scripts[i]));
    }
    assert_eq!(observations.len(), total, "some transactions aborted");
    if let Err(v) = check_bank_history_concurrent(&observations, INITIAL_BALANCE) {
        panic!("history not strictly serializable across the power cycle: {v}");
    }
}

/// The durable state the reboot actually used, asserted on the disk
/// itself: group commits fsynced, and the snapshot branch ran (so the
/// replay was snapshot + suffix, not a from-scratch log scan).
fn assert_disk_exercised(disk: &shadowdb_wal::Disk) {
    assert!(disk.sync_count() > 0, "group commits never fsynced");
    let rec = shadowdb_wal::recover(disk);
    assert!(
        rec.snapshot.is_some(),
        "snapshot branch never taken ({SNAPSHOT_EVERY}-record interval over a {}-txn run)",
        CLIENTS * TXNS
    );
}

#[test]
fn pbr_power_cycle_replays_wal_and_rejoins_by_catchup() {
    let mut sim = shadowdb_simnet::testing::default_net(4_242);
    let probe = Probe::default();
    let pbr = pbr_options(PbrOptions::default().cache_limit);
    let scripts = scripts(97);
    let d = PbrDeployment::build(&mut sim, &options(scripts.clone(), &probe), pbr);

    // Kill the backup mid-workload; the deployment reboots it from its
    // disk 80 ms later — well under the 400 ms detection threshold, so
    // membership never changes and the primary simply stalls until the
    // backup acks again. The power loss may have torn the unsynced tail.
    let victim = d.replicas[1];
    let disk = d.disks[1].clone();
    sim.crash_at(VTime::from_millis(80), victim);
    d.reboot(&mut sim, victim, VTime::from_millis(160), 9);
    start_clients(&mut sim, &d.clients);

    assert_converged(&mut sim, &scripts, &d.stats);
    assert_disk_exercised(&disk);
    check_catchup_only(&probe.events(), victim).expect("rejoined by catch-up");
}

#[test]
fn smr_power_cycle_replays_wal_and_rejoins_by_delta() {
    let mut sim = shadowdb_simnet::testing::default_net(5_353);
    let probe = Probe::default();
    let scripts = scripts(98);
    let d = SmrDeployment::build(&mut sim, &options(scripts.clone(), &probe));

    // Kill the last replica mid-workload. Under SMR the survivors keep
    // answering, so the group's frontier moves on during the outage and
    // the rebooted replica genuinely has a suffix to fetch.
    let victim = d.replicas[d.replicas.len() - 1];
    let disk = d.disks[d.replicas.len() - 1].clone();
    sim.crash_at(VTime::from_millis(80), victim);
    d.reboot(&mut sim, victim, VTime::from_millis(160), 9);
    start_clients(&mut sim, &d.clients);

    assert_converged(&mut sim, &scripts, &d.stats);
    assert_disk_exercised(&disk);
    check_catchup_only(&probe.events(), victim).expect("rejoined by catch-up");
}

/// Reconfiguration × durability: a replica added to a durable deployment
/// gets a disk of its own, like every replica the deployment built. The
/// joiner replaces the backup, settles as a member, and then loses power
/// — it must come back from *its* disk (the network image it joined by,
/// folded into a durable snapshot, plus the logged suffix) and rejoin by
/// catch-up, never by a second full state transfer.
#[test]
fn pbr_joiner_power_cycle_rejoins_from_its_own_disk() {
    let mut sim = shadowdb_simnet::testing::default_net(6_464);
    let probe = Probe::default();
    // A cache small enough that the join cannot be served from it, large
    // enough to cover what the group executes during an outage.
    let pbr = pbr_options(64);
    let scripts = scripts(99);
    let d = PbrDeployment::build(&mut sim, &options(scripts.clone(), &probe), pbr);
    let mut handle = d.reconfig(&mut sim);
    start_clients(&mut sim, &d.clients);
    while d.committed() < 100 {
        sim.run_for(Duration::from_millis(5));
    }

    let minute = Duration::from_secs(60);
    let joiner = handle
        .replace_replica(&mut sim, d.replicas[1], minute)
        .expect("replacement adopted under load");
    assert!(handle.await_member(&mut sim, joiner, minute));
    let joined = Event::Transfer {
        to: joiner,
        kind: TransferKind::Snapshot,
    };
    assert!(
        probe.events().contains(&joined),
        "the join itself is a full state transfer"
    );
    // The power cycle is judged on what the log records from here on.
    let rebooted = probe.events().len();

    assert!(
        d.committed() < CLIENTS * TXNS,
        "the power cycle must overlap the workload"
    );
    let crash = sim.now() + Duration::from_millis(20);
    sim.crash_at(crash, joiner);
    d.reboot(&mut sim, joiner, crash + Duration::from_millis(80), 9);

    assert_converged(&mut sim, &scripts, &d.stats);
    assert!(handle.await_member(&mut sim, joiner, minute));
    check_catchup_only(&probe.events()[rebooted..], joiner).expect("rejoined by catch-up");
}
