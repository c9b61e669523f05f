//! Fig. 10(a): an execution of ShadowDB-PBR across a primary crash.
//!
//! "The experiment consists of 10 clients with H2 on the primary, HSQLDB
//! on the backup, and Derby on the spare backup. After 15 seconds of
//! execution we crash the primary, and 10 seconds later the backup detects
//! this crash (detection time is configurable). The new group
//! configuration is delivered about 69ms after its broadcast, and the
//! remaining of the recovery protocol, including state transfer, takes 3.8
//! seconds (the database contains 50,000 tuples, each 16 bytes long)."
//!
//! Output: instantaneous committed-transactions-per-second per one-second
//! bin — the curve of Fig. 10(a) — plus the timeline of the three
//! annotated phases.

use crate::cost::ShadowDbCost;
use crate::measure::throughput_timeline;
use crate::output;
use crate::scenario::bank_options;
use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::pbr::PbrOptions;
use shadowdb_loe::VTime;
use shadowdb_simnet::testing::default_net;
use shadowdb_tob::ExecutionMode;
use std::io::{self, Write};
use std::time::Duration;

const ROWS: usize = 50_000;
const HORIZON_S: usize = 60;

/// Runs the crash timeline and writes the per-second throughput curve.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let mut sim = default_net(77);
    let options = DeployOptions {
        mode: ExecutionMode::InterpretedOpt,
        diversity: DiversityPolicy::Trio,
        client_timeout: Duration::from_secs(5),
        // Enough work to span the whole 60 s horizon.
        ..bank_options(ROWS, 10, 40_000, 900)
    };
    let pbr = PbrOptions {
        detect_after: Duration::from_secs(10), // the paper's configured value
        heartbeat_every: Duration::from_millis(500),
        cache_limit: 5_000,
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    sim.set_cost_model(ShadowDbCost::new(options.mode, &d.tob, &d.replicas, 400));
    // Crash the primary after 15 seconds of execution.
    sim.crash_at(VTime::from_secs(15), d.replicas[0]);
    sim.run_until(VTime::from_secs(HORIZON_S as u64));

    let timeline = throughput_timeline(&d.stats, HORIZON_S);
    let rows: Vec<(String, String)> = timeline
        .iter()
        .map(|(sec, commits)| (format!("{sec}"), format!("{commits}")))
        .collect();
    output::pairs(
        out,
        "instantaneous throughput",
        "second",
        "committed txns",
        &rows,
    )?;

    // Phase annotations (the 1/2/3 markers of the figure).
    let crash_s = 15;
    let outage: Vec<usize> = timeline
        .iter()
        .filter(|(s, c)| *s > crash_s && *c == 0)
        .map(|(s, _)| *s)
        .collect();
    let resume = timeline
        .iter()
        .find(|(s, c)| *s > crash_s + 1 && *c > 0)
        .map(|(s, _)| *s);
    writeln!(out)?;
    output::kv(
        out,
        "1: crash at",
        format!("{crash_s} s; detection configured at 10 s"),
    )?;
    output::kv(
        out,
        "2: outage window (zero-commit seconds)",
        format!("{:?}..{:?}", outage.first(), outage.last()),
    )?;
    output::kv(out, "3: clients resume at", format!("{resume:?} s"))?;
    output::kv(
        out,
        "paper timeline",
        "crash @15 s; detect @25 s; config delivered +69 ms; transfer 3.8 s; resume ≈@29–40 s",
    )?;
    let total: u64 = timeline.iter().map(|(_, c)| *c).sum();
    output::kv(out, "total committed over 60 s", total)
}
