//! One small simulator smoke per plane that composes through the replica
//! core, so the tier-1 command (`cargo test -q` at the root) exercises the
//! seam between the ordering policies and the shared service state:
//! cross-shard 2PC, restart-from-disk, and sharding × durability. The
//! thorough versions live in `crates/core/tests`; these stay under two
//! seconds each.

use shadowdb::chaos::sharded_mixed_txns;
use shadowdb::client::DbClient;
use shadowdb::deploy::{DeployOptions, DurabilityOptions, ShardedDeployment, SmrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::pbr::{PbrOptions, TransferKind, TransferProbe};
use shadowdb::shard::{check_two_pc_atomicity, TwoPcProbe};
use shadowdb::smr::SmrReplica;
use shadowdb_eventml::Process;
use shadowdb_loe::VTime;
use shadowdb_runtime::{schedule_node_faults, FaultPlan, LazyRecover};
use shadowdb_tob::subscribe_msg;
use shadowdb_workloads::bank;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 32;
const SHARDS: usize = 2;

/// Two clients over two shards: deposits, reads, and a transfer every
/// third transaction (half of them cross-shard).
fn sharded_options(txns: usize, probe: &TwoPcProbe) -> DeployOptions {
    let mut o = DeployOptions::sharded(
        SHARDS,
        2,
        move |i| sharded_mixed_txns(11 + i as u64, txns, ROWS),
        |shard, db| bank::load_shard(db, ROWS, SHARDS, shard).expect("bank shard loads"),
    );
    o.probe = Some(probe.clone());
    o
}

#[test]
fn cross_shard_2pc_commits_atomically() {
    let mut sim = shadowdb_simnet::testing::default_net(21);
    let probe: TwoPcProbe = Arc::default();
    let d = ShardedDeployment::build_smr(&mut sim, &sharded_options(12, &probe));
    sim.run_until_quiescent(VTime::from_secs(300));
    assert_eq!(d.committed(), 24);
    let events = probe.lock();
    assert!(!events.is_empty(), "cross-shard transfers must appear");
    check_two_pc_atomicity(&events).expect("atomic cross-shard histories");
}

#[test]
fn power_loss_rejoins_by_catch_up() {
    let mut sim = shadowdb_simnet::testing::default_net(22);
    let transfers: TransferProbe = Arc::default();
    let mut options = DeployOptions::new(
        2,
        |i| {
            let mut g = bank::BankGen::new(5 + i as u64, ROWS);
            (0..60).map(|_| g.next_txn()).collect()
        },
        |db| bank::load(db, ROWS).expect("bank loads"),
    );
    options.client_timeout = Duration::from_millis(150);
    options.start_clients = false; // started after the faults are armed
    options.durability = Some(DurabilityOptions {
        snapshot_every: 16,
        transfer_probe: Some(transfers.clone()),
        ..DurabilityOptions::default()
    });
    let d = SmrDeployment::build(&mut sim, &options);

    // Power-cycle the last replica mid-workload; it reboots from its WAL
    // and snapshot and fetches only the suffix it missed.
    let victim = d.replicas[2];
    let (disk, donors) = (d.disks[2].clone(), d.replicas[..2].to_vec());
    let reboot = VTime::from_millis(60);
    let plan = FaultPlan::new(0)
        .with_crash(VTime::from_millis(30), victim)
        .with_durable_restart(reboot, victim);
    schedule_node_faults(&mut sim, &plan, move |_, _| {
        let (disk, donors) = (disk.clone(), donors.clone());
        Some(Box::new(LazyRecover::new(move || {
            disk.begin_recovery(9); // the power loss may have torn the tail
            let db = DiversityPolicy::Uniform.database(2);
            bank::load(&db, ROWS).expect("bank loads");
            let (donors, disk) = (donors.clone(), disk.clone());
            Box::new(SmrReplica::recover_from(
                db, donors, None, victim, disk, 16, 4_096,
            ))
        })) as Box<dyn Process>)
    });
    for s in &d.tob.servers {
        sim.send_at(reboot + Duration::from_millis(2), *s, subscribe_msg(victim));
    }
    for c in &d.clients {
        sim.send_at(VTime::from_millis(1), *c, DbClient::start_msg());
    }
    sim.run_until(VTime::from_secs(30));
    assert_eq!(d.committed(), 120, "did not converge after the reboot");
    let log = transfers.lock().clone();
    assert!(log.contains(&(victim, TransferKind::Catchup)), "{log:?}");
    assert!(!log.contains(&(victim, TransferKind::Snapshot)), "{log:?}");
}

#[test]
fn sharded_durable_deployment_builds_and_commits() {
    let mut sim = shadowdb_simnet::testing::default_net(23);
    let probe: TwoPcProbe = Arc::default();
    let mut options = sharded_options(12, &probe);
    options.durability = Some(DurabilityOptions::default());
    let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
    sim.run_until(VTime::from_secs(30));
    assert_eq!(d.committed(), 24);
    check_two_pc_atomicity(&probe.lock()).expect("atomic cross-shard histories");
    for g in &d.groups {
        assert_eq!(g.disks.len(), g.replicas.len(), "one disk per replica");
        // Primary and backup log (and group-commit) everything they execute.
        assert!(g.disks[0].sync_count() > 0 && g.disks[1].sync_count() > 0);
    }
}
