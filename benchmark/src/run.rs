//! Drives one deployed workload from outside: waits for the measurement
//! window to open and close, samples the process at both edges, stops the
//! clients and lets the replicas settle. The driver thread only sleeps and
//! polls the clients' shared stats; all work happens on the runtime's
//! shard threads.

use crate::procfs;
use crate::window::{select_window, window_open, Answered, Window};
use crate::workload::{Deployed, Spec};
use shadowdb_runtime::Runtime;
use shadowdb_sqldb::{Snapshot, SqlValue};
use std::time::{Duration, Instant};

/// A run that has not closed its window by then has failed.
const WALL_CEILING: Duration = Duration::from_secs(120);
const POLL: Duration = Duration::from_millis(5);
/// How long replicas get to apply what was in flight when the clients
/// stopped.
const SETTLE_CEILING: Duration = Duration::from_secs(10);

/// The process start, which `setup_s` counts from.
#[derive(Clone, Copy, Debug)]
pub struct Start {
    pub at: Instant,
    /// [`procfs::stolen_s`] at the start.
    pub stolen_s: f64,
}

impl Start {
    pub fn now() -> Start {
        Start {
            at: Instant::now(),
            stolen_s: procfs::stolen_s(),
        }
    }
}

/// The part of `wall_s` the hypervisor let the machine run: wall time less
/// the seconds stolen from its CPUs meanwhile. On a shared host stolen
/// time is the dominant run-to-run noise (README, "Stolen time"), and it
/// is the kernel's own counter, independent of the program measured. The
/// estimate is floored at a quarter of the wall time: beyond that much
/// steal no correction is believable.
pub fn quiet_s(wall_s: f64, stolen_s: f64) -> f64 {
    (wall_s - stolen_s.max(0.0)).max(wall_s * 0.25)
}

/// Process accounting at one window edge.
#[derive(Clone, Debug)]
pub struct EdgeSample {
    pub at: Instant,
    pub rss_kb: u64,
    pub cpu_s: f64,
    /// Seconds stolen from the machine's CPUs so far, summed over CPUs.
    pub stolen_s: f64,
    pub threads: Vec<(u64, f64)>,
    /// `Disk::sync_count` of every replica's WAL (empty without one).
    pub syncs: Vec<u64>,
}

impl EdgeSample {
    fn take(d: &Deployed) -> EdgeSample {
        EdgeSample {
            at: Instant::now(),
            rss_kb: procfs::rss_kb(),
            cpu_s: procfs::process_cpu_s(),
            stolen_s: procfs::stolen_s(),
            threads: procfs::thread_cpu_s(),
            syncs: d.disks.iter().map(|k| k.sync_count()).collect(),
        }
    }
}

/// Everything the driver observed, before any metric is derived.
pub struct RunData {
    /// Process start to window open, wall seconds.
    pub setup_s: f64,
    /// Seconds stolen from the machine's CPUs during set-up.
    pub setup_stolen_s: f64,
    pub window: Window,
    /// Per client: every answered transaction, script order.
    pub answered: Vec<Vec<Answered>>,
    /// Per client: the answers' result values, parallel to `answered`.
    pub results: Vec<Vec<Vec<SqlValue>>>,
    pub resends: u64,
    pub redirects: u64,
    pub open: EdgeSample,
    pub close: EdgeSample,
    /// `VmHWM` at window close, KiB.
    pub peak_rss_kb: u64,
    /// The active replicas' common final state, or `None` if they still
    /// disagreed when the settle ceiling passed.
    pub settled: Option<Snapshot>,
}

impl RunData {
    /// Seconds stolen from the machine's CPUs during the window.
    pub fn window_stolen_s(&self) -> f64 {
        self.close.stolen_s - self.open.stolen_s
    }

    /// WAL syncs by all replicas during the window.
    pub fn window_syncs(&self) -> u64 {
        let (open, close) = (&self.open.syncs, &self.close.syncs);
        close.iter().zip(open).map(|(c, o)| c - o).sum()
    }

    /// The window's length net of stolen time, seconds.
    pub fn quiet_window_s(&self) -> f64 {
        quiet_s(self.window.len_us() as f64 / 1e6, self.window_stolen_s())
    }
}

/// The first `limit` answers of every client, on the clients' clock.
fn answered_of(d: &Deployed, limit: usize) -> Vec<Vec<Answered>> {
    d.stats
        .iter()
        .map(|s| {
            s.lock()
                .completed
                .iter()
                .take(limit)
                .map(|(sub, ans, committed)| Answered {
                    submitted: sub.as_micros(),
                    answered: ans.as_micros(),
                    committed: *committed,
                })
                .collect()
        })
        .collect()
}

fn answered_counts(d: &Deployed) -> Vec<usize> {
    d.stats.iter().map(|s| s.lock().completed.len()).collect()
}

/// Waits until the active replicas hold identical table contents on two
/// consecutive looks.
fn settle(d: &Deployed, spec: &Spec) -> Option<Snapshot> {
    let deadline = Instant::now() + SETTLE_CEILING;
    let active = &d.dbs[..spec.active_replicas()];
    let mut last: Option<Snapshot> = None;
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let snaps: Vec<Snapshot> = active.iter().map(|db| db.snapshot()).collect();
        let agree = snaps.windows(2).all(|w| w[0] == w[1]);
        if agree && last.as_ref() == Some(&snaps[0]) {
            return last;
        }
        last = agree.then(|| snaps[0].clone());
        if Instant::now() > deadline {
            return None;
        }
    }
}

/// Runs the deployed workload to the end of its window.
pub fn drive<R: Runtime>(
    rt: &mut R,
    d: &Deployed,
    spec: &Spec,
    script_len: usize,
    started: Start,
) -> Result<RunData, String> {
    let ceiling = Instant::now() + WALL_CEILING;
    let mut open: Option<EdgeSample> = None;
    let (mut setup_s, mut setup_stolen_s) = (0.0, 0.0);
    let close = loop {
        std::thread::sleep(POLL);
        let counts = answered_counts(d);
        if open.is_none() && counts.iter().all(|c| *c >= spec.warmup) {
            let sample = EdgeSample::take(d);
            // The clients' clock says exactly when the last warm-up answer
            // arrived; charge set-up up to then, not up to this poll.
            let late = window_open(&answered_of(d, spec.warmup), spec.warmup)
                .map(|o| rt.now().as_micros().saturating_sub(o))
                .unwrap_or(0);
            setup_s = (sample.at - started.at).as_secs_f64() - late as f64 / 1e6;
            setup_stolen_s = sample.stolen_s - started.stolen_s;
            open = Some(sample);
        }
        if counts.iter().any(|c| *c >= script_len) {
            break EdgeSample::take(d);
        }
        if Instant::now() > ceiling {
            return Err(format!(
                "wall ceiling of {}s passed with {:?} of {script_len} answered",
                WALL_CEILING.as_secs(),
                counts
            ));
        }
    };
    let peak_rss_kb = procfs::peak_rss_kb();
    let open = open.ok_or("a client finished before every client warmed up")?;

    // The run stops here: take the clients off the network, then let the
    // replicas finish applying what was already in flight.
    let now = rt.now();
    for c in &d.clients {
        rt.crash_at(now, *c);
    }
    let settled = settle(d, spec);

    let answered = answered_of(d, usize::MAX);
    let window = select_window(&answered, spec.warmup, script_len)
        .ok_or("no measurement window: warm-up and script finish overlap")?;
    let (mut resends, mut redirects) = (0, 0);
    let results = d
        .stats
        .iter()
        .map(|s| {
            let s = s.lock();
            resends += s.resends;
            redirects += s.redirects;
            s.results.clone()
        })
        .collect();
    Ok(RunData {
        setup_s,
        setup_stolen_s,
        window,
        answered,
        results,
        resends,
        redirects,
        open,
        close,
        peak_rss_kb,
        settled,
    })
}

#[cfg(test)]
mod tests {
    use super::quiet_s;

    #[test]
    fn quiet_time_is_wall_less_stolen_with_a_floor() {
        assert_eq!(quiet_s(20.0, 0.0), 20.0);
        assert_eq!(quiet_s(20.0, 5.0), 15.0);
        // A counter that ran backwards corrects nothing.
        assert_eq!(quiet_s(20.0, -1.0), 20.0);
        // More than three quarters stolen: the floor holds.
        assert_eq!(quiet_s(20.0, 19.0), 5.0);
    }
}
