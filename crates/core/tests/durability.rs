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
use shadowdb::deploy::{
    DeployOptions, Deployment, DurabilityOptions, PbrDeployment, SmrDeployment,
};
use shadowdb::msgs::{TxnEnvelope, ACK_HEADER, SYNCED_HEADER};
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_catchup_only, Event, Probe, TransferKind};
use shadowdb::serializability::check_bank_history_concurrent;
use shadowdb_eventml::codec::encode_value;
use shadowdb_eventml::Msg;
use shadowdb_eventml::Value;
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{Runtime, StorageMode};
use shadowdb_simnet::{NetworkConfig, SimBuilder, Simulation};
use shadowdb_wal::{Disk, Wal, SEGMENT};
use shadowdb_workloads::{bank, TxnRequest};
use std::collections::HashSet;
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

/// A simulation that records every delivery, so a test can count the
/// `sdb/synced` steps and follow an acknowledgment to the step that sent
/// it.
fn traced_net(seed: u64) -> Simulation {
    SimBuilder::new(seed)
        .network(NetworkConfig::lan())
        .capture_trace(true)
        .build()
}

/// Options with no periodic snapshot, so every record a disk took stays
/// in its log and can be looked up by transaction.
fn unsnapshotted(scripts: Vec<Vec<TxnRequest>>, probe: &Probe) -> DeployOptions {
    let mut o = options(scripts, probe);
    o.durability = Some(DurabilityOptions {
        snapshot_every: i64::MAX,
        ..DurabilityOptions::default()
    });
    o
}

/// The `(client, cseq)` of every transaction record on `disk`: a PBR
/// record is `<tag, envelope>`, an SMR one the delivered envelope itself.
fn logged(disk: &Disk) -> HashSet<(Loc, i64)> {
    shadowdb_wal::recover(disk)
        .records
        .iter()
        .filter_map(|(_, body)| {
            TxnEnvelope::from_value(body).or_else(|| TxnEnvelope::from_value(body.snd()?))
        })
        .map(|env| (env.client, env.cseq))
        .collect()
}

/// Runs the workload to its end, 5 ms at a time. After each slice, every
/// transaction a client has been answered must be on `at_least` of
/// `disks`, and in the end every transaction is answered.
fn run_checking_disks(
    sim: &mut Simulation,
    clients: &[Loc],
    stats: &[Arc<Mutex<DbClientStats>>],
    disks: &[Disk],
    at_least: usize,
) {
    let deadline = sim.now() + Duration::from_secs(120);
    loop {
        sim.run_for(Duration::from_millis(5));
        let on_disk: Vec<HashSet<(Loc, i64)>> = disks.iter().map(logged).collect();
        let mut answered = 0;
        for (client, s) in clients.iter().zip(stats) {
            let n = s.lock().completed.len();
            answered += n;
            for cseq in 0..n as i64 {
                let holders = on_disk
                    .iter()
                    .filter(|d| d.contains(&(*client, cseq)))
                    .count();
                assert!(
                    holders >= at_least,
                    "{client:?}'s transaction {cseq} was answered from {holders} disks"
                );
            }
        }
        if answered == CLIENTS * TXNS {
            return;
        }
        assert!(
            sim.now() < deadline,
            "did not converge: {answered} answered"
        );
    }
}

/// The `sdb/synced` steps `loc` took.
fn synced_steps(sim: &Simulation, loc: Loc) -> usize {
    let trace = sim.trace().expect("traced");
    trace
        .at(loc)
        .filter(|e| e.msg().header.name() == SYNCED_HEADER)
        .count()
}

/// The simulator runs the release path the file backend ships: every
/// acknowledgment a durable PBR member sends waits for the `sdb/synced`
/// its disk posts after the modeled fsync, and the primary answers a
/// transaction only once the record is on every member's disk.
#[test]
fn pbr_members_release_acknowledgments_through_sdb_synced() {
    let mut sim = traced_net(3_131);
    let scripts = scripts(93);
    let options = unsnapshotted(scripts, &Probe::default());
    let members = options.active_replicas;
    let d = PbrDeployment::build(&mut sim, &options, pbr_options(256));
    start_clients(&mut sim, &d.clients);
    run_checking_disks(&mut sim, &d.clients, &d.stats, &d.disks[..members], members);
    for r in &d.replicas[..members] {
        assert!(
            synced_steps(&sim, *r) > 0,
            "{r:?} never stepped on `sdb/synced`"
        );
    }
}

/// The same under SMR, where each replica answers after its own sync: an
/// answered transaction is on at least one disk.
#[test]
fn smr_replicas_release_replies_through_sdb_synced() {
    let mut sim = traced_net(3_232);
    let scripts = scripts(94);
    let d = SmrDeployment::build(&mut sim, &unsnapshotted(scripts, &Probe::default()));
    start_clients(&mut sim, &d.clients);
    run_checking_disks(&mut sim, &d.clients, &d.stats, &d.disks, 1);
    for r in &d.replicas {
        assert!(
            synced_steps(&sim, *r) > 0,
            "{r:?} never stepped on `sdb/synced`"
        );
    }
}

/// A completion is for the incarnation that handed the sync off. The
/// backup loses power inside a sync's modeled fsync and is back before
/// the sync would have reported: the simulator still delivers the old
/// incarnation's `sdb/synced` at its time, and drops it there, by
/// incarnation, as tcpnet does. The new incarnation's first ack leaves
/// no earlier than its own first `sdb/synced`.
#[test]
fn a_completion_posted_before_a_restart_releases_nothing() {
    let mut sim = traced_net(7_575);
    let probe = Probe::default();
    let scripts = scripts(96);
    let mut options = options(scripts.clone(), &probe);
    let fsync = Duration::from_millis(10);
    options.durability = Some(DurabilityOptions {
        snapshot_every: SNAPSHOT_EVERY,
        fsync_cost: fsync,
    });
    let d = PbrDeployment::build(&mut sim, &options, pbr_options(256));
    let (victim, disk) = (d.replicas[1], d.disks[1].clone());
    start_clients(&mut sim, &d.clients);
    // A virtual disk takes the bytes at hand-off and reports `fsync`
    // later: the first sync the backup hands off is in that window now.
    while disk.sync_count() == 0 {
        sim.run_for(Duration::from_micros(100));
    }
    let reboot = sim.now() + fsync / 2;
    sim.crash_at(sim.now(), victim);
    d.reboot(&mut sim, victim, reboot, 9);
    assert_converged(&mut sim, &scripts, &d.stats);
    assert_eq!(
        sim.stats().dropped_stale,
        1,
        "the dead incarnation's completion was posted, and dropped"
    );

    let trace = sim.trace().expect("traced");
    let after_reboot = |e: &&shadowdb_loe::Event<Msg>| e.time() >= reboot;
    let first_synced = trace
        .at(victim)
        .filter(after_reboot)
        .find(|e| e.msg().header.name() == SYNCED_HEADER)
        .expect("the new incarnation synced");
    let first_ack = trace
        .iter()
        .filter(after_reboot)
        .find(|e| e.sender() == Some(victim) && e.msg().header.name() == ACK_HEADER)
        .expect("the new incarnation acknowledged");
    let sent_by = first_ack.cause().expect("an ack is sent");
    assert!(
        sent_by == first_synced.id() || trace.happens_before(first_synced.id(), sent_by),
        "the first ack left before the new incarnation's first sync reported"
    );
}

/// A file-backed disk handle recovers what its files hold: a synced
/// segment file cut short behind the handle's back — by `std::fs`, not
/// through the disk — loses the records past the cut to the next recovery
/// through the same handle, as it would to a fresh opening.
#[test]
fn a_file_backed_handle_recovers_what_its_files_hold() {
    let root = StorageMode::fresh_file_root("durability-files");
    let disk = Disk::open(
        &StorageMode::File { root: root.clone() },
        "r",
        Duration::ZERO,
    );
    let mut wal = Wal::open(disk.clone());
    let record = |i: i64| Value::pair(Value::Int(i), Value::str("a committed transaction"));
    for i in 0..10 {
        wal.append(i, &record(i));
    }
    wal.commit();
    drop(wal);
    let frame = disk.synced_len() / 10;
    let segment = std::fs::OpenOptions::new()
        .write(true)
        .open(root.join("r").join("log-00000001.seg"))
        .expect("the first segment");
    segment.set_len(4 * frame as u64 + 3).expect("cut short");
    disk.begin_recovery(0);
    let recovered = shadowdb_wal::recover(&disk).records;
    assert_eq!(
        recovered,
        (0..4).map(|i| (i, record(i))).collect::<Vec<_>>()
    );
    drop(disk);
    shadowdb_wal::settle_disks(&root);
    let _ = std::fs::remove_dir_all(root);
}

/// The bytes `records` take in a log: each one's frame header and the
/// encoding of `<index, body>`.
fn framed_len(records: &[(i64, Value)]) -> usize {
    let mut buf = bytes::BytesMut::new();
    for (i, body) in records {
        encode_value(&Value::pair(Value::Int(*i), body.clone()), &mut buf);
    }
    buf.len() + 8 * records.len()
}

/// Transactions per client in a run whose log outgrows a segment.
const LONG: usize = 3_000;

/// Unsnapshotted options for `LONG` transactions per client.
fn long_run(probe: &Probe) -> DeployOptions {
    let scripts: Vec<Vec<TxnRequest>> = (0..CLIENTS)
        .map(|i| mixed_txns(4_000 + i as u64, LONG, ROWS))
        .collect();
    unsnapshotted(scripts, probe)
}

/// A durable reboot whose log spans two segments or more: replica `i`'s
/// disk holds no snapshot, and its log outgrew one [`SEGMENT`] before the
/// power went. What it recovers is every record the disk held — the
/// records read back fill the synced log byte for byte, before the reboot
/// and after it — and it rejoins by catch-up.
fn reboot_recovers_a_log_over_segments<P>(
    sim: &mut Simulation,
    d: &Deployment<P>,
    i: usize,
    probe: &Probe,
) {
    let (victim, disk) = (d.replicas[i], d.disks[i].clone());
    start_clients(sim, &d.clients);
    let deadline = sim.now() + Duration::from_secs(120);
    while disk.synced_len() <= SEGMENT {
        assert!(sim.now() < deadline, "the log never outgrew a segment");
        sim.run_for(Duration::from_millis(5));
    }
    sim.crash_at(sim.now(), victim);
    sim.run_for(Duration::from_millis(1));
    let held = shadowdb_wal::recover(&disk).records;
    assert_eq!(
        framed_len(&held),
        disk.synced_len(),
        "read every synced byte"
    );
    d.reboot(sim, victim, sim.now() + Duration::from_millis(80), 9);
    while d.committed() < CLIENTS * LONG {
        assert!(sim.now() < deadline, "did not converge: {}", d.committed());
        sim.run_for(Duration::from_millis(50));
    }
    let after = shadowdb_wal::recover(&disk).records;
    assert_eq!(
        after[..held.len()],
        held[..],
        "the reboot kept every record"
    );
    assert_eq!(framed_len(&after), disk.synced_len());
    check_catchup_only(&probe.events(), victim).expect("rejoined by catch-up");
}

#[test]
fn pbr_reboot_recovers_a_log_over_two_segments() {
    let mut sim = shadowdb_simnet::testing::default_net(8_181);
    let probe = Probe::default();
    let d = PbrDeployment::build(&mut sim, &long_run(&probe), pbr_options(4_096));
    reboot_recovers_a_log_over_segments(&mut sim, &d, 1, &probe);
}

#[test]
fn smr_reboot_recovers_a_log_over_two_segments() {
    let mut sim = shadowdb_simnet::testing::default_net(8_282);
    let probe = Probe::default();
    let d = SmrDeployment::build(&mut sim, &long_run(&probe));
    let last = d.replicas.len() - 1;
    reboot_recovers_a_log_over_segments(&mut sim, &d, last, &probe);
}
