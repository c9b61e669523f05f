//! Ablation: overlapped state transfer during PBR recovery.
//!
//! Sec. III-A: "If there are at least three replicas and at least one
//! other replica has been brought up-to-date by the primary, we can resume
//! normal execution and propagate the database snapshot to the other
//! backups in parallel." This harness crashes the primary and measures the
//! client-visible outage with and without the optimization.

use crate::output;
use crate::scenario::bank_options;
use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::pbr::PbrOptions;
use shadowdb_loe::VTime;
use shadowdb_simnet::testing::default_net;
use std::io::{self, Write};
use std::time::Duration;

const ROWS: usize = 200_000;
const CLIENTS: usize = 4;
const TXNS_EACH: usize = 8_000;

/// Runs the crash scenario; returns the longest client-visible gap (ms).
fn run(overlapped: bool) -> f64 {
    let mut sim = default_net(21);
    let options = DeployOptions {
        diversity: DiversityPolicy::Trio,
        client_timeout: Duration::from_millis(400),
        // Three active replicas: after the crash, one up-to-date backup
        // remains — the precondition for overlapping the spare's transfer.
        active_replicas: 3,
        ..bank_options(ROWS, CLIENTS, TXNS_EACH, 400)
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(100),
        // Detection must not fire while the spare is silently bulk-loading
        // its snapshot, or the spare would be expelled mid-recovery.
        detect_after: Duration::from_secs(8),
        // A small cache forces the spare to need a full snapshot.
        cache_limit: 100,
        overlapped_transfer: overlapped,
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    sim.run_until(VTime::from_millis(300));
    sim.crash_at(sim.now(), d.replicas[0]);
    sim.run_until_quiescent(VTime::from_secs(600));
    if d.committed() != CLIENTS * TXNS_EACH {
        eprintln!(
            "WARN overlapped={overlapped}: committed {} of {}",
            d.committed(),
            CLIENTS * TXNS_EACH
        );
    }

    let mut answers: Vec<VTime> = Vec::new();
    for s in &d.stats {
        answers.extend(s.lock().completed.iter().map(|(_, b, _)| *b));
    }
    answers.sort();
    answers
        .windows(2)
        .map(|w| w[1].saturating_since(w[0]).as_secs_f64() * 1e3)
        .fold(0.0, f64::max)
}

/// Measures the outage with and without the optimization.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    output::kv(
        out,
        "database",
        format!("{ROWS} rows × 16 B; spare needs a full snapshot"),
    )?;
    let blocking = run(false);
    let overlapped = run(true);
    output::kv(
        out,
        "client outage, blocking transfer  ",
        format!("{blocking:.0} ms"),
    )?;
    output::kv(
        out,
        "client outage, overlapped transfer",
        format!("{overlapped:.0} ms"),
    )?;
    output::kv(out, "improvement", format!("{:.1}×", blocking / overlapped))?;
    output::note(
        out,
        "with overlap, the primary resumes after the first recovered backup\n\
         acknowledges (the up-to-date survivor), while the spare's snapshot\n\
         streams in parallel; without it, clients wait out the full transfer.",
    )
}
