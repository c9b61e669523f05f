//! One small simulator smoke per plane that composes through the replica
//! core, so the tier-1 command (`cargo test -q` at the root) exercises the
//! seam between the ordering policies and the shared service state:
//! cross-shard 2PC, restart-from-disk, and sharding × durability. The
//! thorough versions live in `crates/core/tests`; these stay under two
//! seconds each.

use shadowdb::chaos::sharded_mixed_txns;
use shadowdb::client::DbClient;
use shadowdb::deploy::{DeployOptions, DurabilityOptions, ShardedDeployment, SmrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_catchup_only, check_two_pc_atomicity, Event, Probe};
use shadowdb_loe::VTime;
use shadowdb_workloads::bank;
use std::time::Duration;

const ROWS: usize = 32;
const SHARDS: usize = 2;

/// Two clients over two shards: deposits, reads, and a transfer every
/// third transaction (half of them cross-shard).
fn sharded_options(txns: usize, probe: &Probe) -> DeployOptions {
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
    let probe = Probe::default();
    let d = ShardedDeployment::build_smr(&mut sim, &sharded_options(12, &probe));
    sim.run_until_quiescent(VTime::from_secs(300));
    assert_eq!(d.committed(), 24);
    let events = probe.events();
    assert!(
        events.iter().any(|e| matches!(e, Event::TwoPc(_))),
        "cross-shard transfers must appear"
    );
    check_two_pc_atomicity(&events).expect("atomic cross-shard histories");
}

#[test]
fn power_loss_rejoins_by_catch_up() {
    let mut sim = shadowdb_simnet::testing::default_net(22);
    let probe = Probe::default();
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
        ..DurabilityOptions::default()
    });
    options.probe = Some(probe.clone());
    let d = SmrDeployment::build(&mut sim, &options);

    // Power-cycle the last replica mid-workload; the deployment reboots it
    // from its WAL and snapshot (the power loss may have torn the tail)
    // and it fetches only the suffix it missed.
    let victim = d.replicas[2];
    sim.crash_at(VTime::from_millis(30), victim);
    d.reboot(&mut sim, victim, VTime::from_millis(60), 9);
    for c in &d.clients {
        sim.send_at(VTime::from_millis(1), *c, DbClient::start_msg());
    }
    sim.run_until(VTime::from_secs(30));
    assert_eq!(d.committed(), 120, "did not converge after the reboot");
    check_catchup_only(&probe.events(), victim).expect("rejoined by catch-up");
}

#[test]
fn sharded_durable_deployment_builds_and_commits() {
    let mut sim = shadowdb_simnet::testing::default_net(23);
    let probe = Probe::default();
    let mut options = sharded_options(12, &probe);
    options.durability = Some(DurabilityOptions::default());
    let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
    sim.run_until(VTime::from_secs(30));
    assert_eq!(d.committed(), 24);
    check_two_pc_atomicity(&probe.events()).expect("atomic cross-shard histories");
    for g in &d.groups {
        assert_eq!(g.disks.len(), g.replicas.len(), "one disk per replica");
        // Primary and backup log (and group-commit) everything they execute.
        assert!(g.disks[0].sync_count() > 0 && g.disks[1].sync_count() > 0);
    }
}
