//! Ablation: lock granularity under contention.
//!
//! The mechanism behind Fig. 9(a)'s baseline shapes: with real concurrent
//! transactions against the embedded engine, table-level locking (H2,
//! HSQLDB, MySQL-memory) serializes writers and times out under
//! contention, while row-level locking (InnoDB-like) lets disjoint writers
//! proceed. This harness runs actual threads against the actual lock
//! manager — no simulation.

use crate::output;
use shadowdb_sqldb::{Database, EngineProfile, LockGranularity, SqlError};
use shadowdb_workloads::bank;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run(granularity: LockGranularity, threads: usize, txns_each: usize) -> (f64, u64, u64) {
    let mut profile = EngineProfile::h2();
    profile.granularity = granularity;
    profile.lock_timeout = Duration::from_millis(30);
    let db = Database::new(profile);
    bank::load(&db, 10_000).expect("loads");
    let commits = Arc::new(AtomicU64::new(0));
    let aborts = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            let commits = commits.clone();
            let aborts = aborts.clone();
            std::thread::spawn(move || {
                for i in 0..txns_each {
                    // Disjoint rows per thread: only the locking policy
                    // decides whether these conflict.
                    let account = (t * txns_each + i) % 10_000;
                    let mut txn = db.begin().expect("begins");
                    let r = txn.execute(&format!(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = {account}"
                    ));
                    match r {
                        Ok(_) => {
                            // Hold the lock briefly, as a real transaction
                            // spanning a replication round trip would.
                            std::thread::sleep(Duration::from_micros(200));
                            txn.commit().expect("commits");
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SqlError::LockTimeout { .. }) => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker finishes");
    }
    let secs = t0.elapsed().as_secs_f64();
    (
        commits.load(Ordering::Relaxed) as f64 / secs,
        commits.load(Ordering::Relaxed),
        aborts.load(Ordering::Relaxed),
    )
}

/// Compares the two granularities at 1, 4 and 8 threads.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let txns = 200;
    for threads in [1usize, 4, 8] {
        let (t_tput, t_commits, t_aborts) = run(LockGranularity::Table, threads, txns);
        let (r_tput, r_commits, r_aborts) = run(LockGranularity::Row, threads, txns);
        writeln!(out)?;
        output::kv(out, "threads", threads)?;
        output::kv(
            out,
            "table locks",
            format!("{t_tput:>8.0} commits/s ({t_commits} ok, {t_aborts} lock timeouts)"),
        )?;
        output::kv(
            out,
            "row locks  ",
            format!("{r_tput:>8.0} commits/s ({r_commits} ok, {r_aborts} lock timeouts)"),
        )?;
    }
    output::note(
        out,
        "row-level locking scales with threads on disjoint rows; table-level\n\
         locking serializes them and aborts waiters — H2's Fig. 9(a) collapse.",
    )
}
