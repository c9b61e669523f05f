//! Steady-state measurement over client statistics.

use parking_lot::Mutex;
use shadowdb::DbClientStats;
use shadowdb_loe::VTime;
use shadowdb_tob::ClientStats;
use std::sync::Arc;

/// One point of a latency-vs-throughput curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Offered concurrency (number of clients).
    pub clients: usize,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean commit latency in milliseconds.
    pub latency_ms: f64,
    /// Fraction of answered transactions that aborted.
    pub abort_rate: f64,
}

/// A client's answered requests, oldest first, as `(sent, answered,
/// committed)` — what the broadcast clients' [`ClientStats`] (every
/// delivery counts as committed) and the database clients'
/// [`DbClientStats`] have in common.
pub trait History {
    /// The answered requests so far.
    fn history(&self) -> Vec<(VTime, VTime, bool)>;
}

impl History for ClientStats {
    fn history(&self) -> Vec<(VTime, VTime, bool)> {
        self.completed.iter().map(|&(s, d)| (s, d, true)).collect()
    }
}

impl History for DbClientStats {
    fn history(&self) -> Vec<(VTime, VTime, bool)> {
        self.completed.clone()
    }
}

/// The steady state of a closed-loop run as one curve point: committed
/// requests over the span from the first counted submission to the last
/// counted answer, and their mean latency. `skip_warmup` drops the first
/// tenth of each client's answers (the ramp-up while queues fill).
pub fn steady_state<S: History>(stats: &[Arc<Mutex<S>>], skip_warmup: bool) -> Point {
    let mut commits: Vec<(VTime, VTime)> = Vec::new();
    let mut counted = 0usize;
    for s in stats {
        let completed = s.lock().history();
        let warmup = if skip_warmup { completed.len() / 10 } else { 0 };
        for (sent, done, committed) in completed.into_iter().skip(warmup) {
            counted += 1;
            if committed {
                commits.push((sent, done));
            }
        }
    }
    if commits.is_empty() {
        return Point {
            clients: stats.len(),
            throughput: 0.0,
            latency_ms: f64::NAN,
            abort_rate: 1.0,
        };
    }
    let first = commits.iter().map(|(s, _)| *s).min().expect("non-empty");
    let last = commits.iter().map(|(_, d)| *d).max().expect("non-empty");
    let span = last.saturating_since(first).as_secs_f64().max(1e-9);
    let mean_us: f64 = commits
        .iter()
        .map(|(s, d)| d.saturating_since(*s).as_micros() as f64)
        .sum::<f64>()
        / commits.len() as f64;
    Point {
        clients: stats.len(),
        throughput: commits.len() as f64 / span,
        latency_ms: mean_us / 1_000.0,
        abort_rate: (counted - commits.len()) as f64 / counted as f64,
    }
}

/// Transactions answered so far across all clients, committed or not —
/// the progress counter the recovery scenarios step the simulator by.
pub fn answered(stats: &[Arc<Mutex<DbClientStats>>]) -> usize {
    stats.iter().map(|s| s.lock().completed.len()).sum()
}

/// Bins commit instants into per-second counts over `[0, horizon_s)` — the
/// instantaneous-throughput timeline of Fig. 10(a).
pub fn throughput_timeline(
    stats: &[Arc<Mutex<DbClientStats>>],
    horizon_s: usize,
) -> Vec<(usize, u64)> {
    let mut bins = vec![0u64; horizon_s];
    for s in stats {
        for (_, done, committed) in &s.lock().completed {
            if *committed {
                let sec = done.as_secs_f64() as usize;
                if sec < horizon_s {
                    bins[sec] += 1;
                }
            }
        }
    }
    bins.into_iter().enumerate().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(completed: Vec<(u64, u64, bool)>) -> Arc<Mutex<DbClientStats>> {
        let s = DbClientStats {
            completed: completed
                .into_iter()
                .map(|(a, b, c)| (VTime::from_millis(a), VTime::from_millis(b), c))
                .collect(),
            ..DbClientStats::default()
        };
        Arc::new(Mutex::new(s))
    }

    /// The same history as a broadcast client records it (no abort flag).
    fn tob_stats_with(completed: Vec<(u64, u64)>) -> Arc<Mutex<ClientStats>> {
        let s = ClientStats {
            completed: completed
                .into_iter()
                .map(|(a, b)| (VTime::from_millis(a), VTime::from_millis(b)))
                .collect(),
            resends: 0,
        };
        Arc::new(Mutex::new(s))
    }

    #[test]
    fn steady_state_computes_rate_and_latency() {
        // 10 commits, 100ms apart, each taking 20ms.
        let s = stats_with((0..10).map(|i| (i * 100, i * 100 + 20, true)).collect());
        let p = steady_state(&[s], true);
        assert!((p.latency_ms - 20.0).abs() < 0.5, "{p:?}");
        // 9 post-warmup commits over ~0.92 s.
        assert!(p.throughput > 8.0 && p.throughput < 12.0, "{p:?}");
        assert_eq!(p.abort_rate, 0.0);
        assert_eq!(p.clients, 1);
    }

    #[test]
    fn aborts_counted() {
        let s = stats_with(vec![(0, 10, true), (100, 110, false), (200, 210, true)]);
        let p = steady_state(&[s], true);
        assert!((p.abort_rate - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_skip_drops_each_clients_first_tenth() {
        // 20 answers per client, one second apart, 10 ms each: skipping
        // the warm-up drops two per client, so the span starts at t = 2 s.
        let history = || (0..20).map(|i| (i * 1_000, i * 1_000 + 10));
        let db = || stats_with(history().map(|(a, b)| (a, b, true)).collect());
        let tob = || tob_stats_with(history().collect());
        let (all, steady) = (
            steady_state(&[db(), db()], false),
            steady_state(&[db(), db()], true),
        );
        assert!((all.throughput - 40.0 / 19.01).abs() < 1e-9, "{all:?}");
        assert!(
            (steady.throughput - 36.0 / 17.01).abs() < 1e-9,
            "{steady:?}"
        );
        assert_eq!(steady.clients, 2);
        // Both stats shapes read the same numbers off the same history.
        assert_eq!(all, steady_state(&[tob(), tob()], false));
        assert_eq!(steady, steady_state(&[tob(), tob()], true));
    }

    #[test]
    fn empty_history_is_a_zero_point() {
        for p in [
            steady_state(&[stats_with(vec![])], true),
            steady_state(&[tob_stats_with(vec![])], true),
            steady_state(&[stats_with(vec![(0, 10, false)])], false),
        ] {
            assert_eq!((p.clients, p.throughput, p.abort_rate), (1, 0.0, 1.0));
            assert!(p.latency_ms.is_nan());
        }
    }

    #[test]
    fn timeline_bins_by_second() {
        let s = stats_with(vec![(0, 500, true), (600, 900, true), (100, 1500, true)]);
        let t = throughput_timeline(&[s], 3);
        assert_eq!(t, vec![(0, 2), (1, 1), (2, 0)]);
    }
}
