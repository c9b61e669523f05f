//! PBR replicates effects, not transactions, across a power cycle.
//!
//! A durable PBR group runs bank transfers on the simulator; its backup
//! loses power mid-run and reboots from its disk. Its log holds the
//! transactions as the group replicates them — `TxnRequest::Applied`
//! records, outcome and row effects — and the reboot replays those
//! without executing anything, then catches up. At the end the rebooted
//! backup's rows equal the primary's, row for row.

use parking_lot::Mutex;
use shadowdb::chaos::mixed_txns;
use shadowdb::client::DbClient;
use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment};
use shadowdb::msgs::TxnEnvelope;
use shadowdb::pbr::PbrOptions;
use shadowdb_loe::VTime;
use shadowdb_runtime::Runtime;
use shadowdb_sqldb::Database;
use shadowdb_workloads::{bank, TxnRequest};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 64;
const TXNS: usize = 150;

#[test]
fn a_power_cycled_backup_replays_effect_records_and_matches_the_primary() {
    let dbs: Arc<Mutex<Vec<Database>>> = Arc::default();
    let captured = dbs.clone();
    let mut o = DeployOptions::new(
        2,
        |i| mixed_txns(31 + i as u64, TXNS, ROWS),
        move |db| {
            bank::load(db, ROWS).expect("bank loads");
            captured.lock().push(db.clone());
        },
    );
    o.client_timeout = Duration::from_millis(150);
    o.start_clients = false;
    o.durability = Some(DurabilityOptions {
        snapshot_every: 32,
        ..DurabilityOptions::default()
    });
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(400),
        ..PbrOptions::default()
    };
    let mut sim = shadowdb_simnet::testing::default_net(7);
    let d = PbrDeployment::build(&mut sim, &o, pbr);
    let (primary, victim) = (d.replicas[0], d.replicas[1]);
    sim.crash_at(VTime::from_millis(80), victim);
    d.reboot(&mut sim, victim, VTime::from_millis(160), 3);
    for c in &d.clients {
        sim.send_at(VTime::from_millis(1), *c, DbClient::start_msg());
    }
    let answered = || {
        d.stats
            .iter()
            .map(|s| s.lock().completed.len())
            .sum::<usize>()
    };
    while answered() < 2 * TXNS && sim.now() < VTime::from_secs(120) {
        sim.run_for(Duration::from_millis(50));
    }
    assert_eq!(answered(), 2 * TXNS, "did not converge after the reboot");
    sim.run_for(Duration::from_millis(500));

    // The backup's log: effect records only (a bank group has no 2PC).
    let rec = shadowdb_wal::recover(&d.disks[1]);
    assert!(!rec.records.is_empty(), "the log kept a suffix to replay");
    for (i, body) in &rec.records {
        let env = body.snd().and_then(TxnEnvelope::from_value);
        assert!(
            matches!(
                env,
                Some(TxnEnvelope {
                    txn: TxnRequest::Applied(_),
                    ..
                })
            ),
            "record {i} is not an applied transaction"
        );
    }
    // Loaded databases in boot order: the primary, the backup, the spare,
    // then the backup's second life.
    let dbs = dbs.lock();
    assert_eq!(dbs.len(), 4, "one database per replica life");
    assert_eq!(d.replicas.iter().position(|r| *r == primary), Some(0));
    assert!(
        dbs[0].snapshot() == dbs[3].snapshot(),
        "the rebooted backup's rows differ from the primary's"
    );
}
