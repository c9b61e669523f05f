//! Shutting tcpnet down under a live durable deployment. The deployment
//! keeps its disks, and with them the disks' syncer and image-writer
//! threads, past the net's shutdown; the net removes its storage root
//! only once the work in flight on those threads is done, so no `wal-*`
//! thread ever finds its directory gone. Its own test binary, because the
//! panic hook it installs is process-wide.

use parking_lot::Mutex;
use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb_tcpnet::TcpNet;
use shadowdb_workloads::bank;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 10_000;
const CLIENTS: usize = 4;
const ROUNDS: u64 = 20;

/// A PBR bank that checkpoints every 16 records, so a snapshot image is
/// being written behind the commits most of the time; the clients have
/// far more work than a round lets them finish.
fn options(seed: u64) -> DeployOptions {
    let mut o = DeployOptions::new(
        CLIENTS,
        move |client| {
            let mut g = bank::BankGen::new(seed * 100 + client as u64, ROWS);
            (0..10_000).map(|_| g.next_txn()).collect()
        },
        |db| bank::load(db, ROWS).expect("bank loads"),
    );
    o.durability = Some(DurabilityOptions {
        snapshot_every: 16,
        ..DurabilityOptions::default()
    });
    o
}

#[test]
fn shutdown_under_a_live_deployment_leaves_no_disk_thread_without_its_directory() {
    let panics: Arc<Mutex<Vec<String>>> = Arc::default();
    let default_hook = std::panic::take_hook();
    {
        let panics = panics.clone();
        std::panic::set_hook(Box::new(move |info| {
            let thread = std::thread::current();
            let name = thread.name().unwrap_or_default();
            if name.starts_with("wal-") {
                panics.lock().push(format!("{name}: {info}"));
            }
            default_hook(info);
        }));
    }
    for round in 0..ROUNDS {
        let mut net = TcpNet::builder().seeded(round).spawn();
        let d = PbrDeployment::build(&mut net, &options(round), PbrOptions::default());
        let t0 = Instant::now();
        while d.committed() < 64 {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "round {round} stalled at {} transactions",
                d.committed()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        net.shutdown();
        // Dropping the deployment joins its disks' threads: whatever they
        // were going to do has been done, and recorded, by the check.
        drop(d);
    }
    let panics = panics.lock().clone();
    assert!(
        panics.is_empty(),
        "{} disk-thread panics over {ROUNDS} shutdowns: {panics:#?}",
        panics.len()
    );
}
