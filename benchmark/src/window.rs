//! Measurement-window selection over the clients' own clocks.
//!
//! Every client runs a fixed script whose first `warmup` transactions are
//! set-up. The window opens when the *last* client finishes its warm-up
//! and closes when the *first* client finishes its script, so all clients
//! are submitting throughout it. A transaction is measured when it was
//! submitted at or after the open and answered at or before the close.

/// One answered transaction on the client's clock, microseconds since the
/// runtime started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answered {
    pub submitted: u64,
    pub answered: u64,
    pub committed: bool,
}

/// The measurement window, microseconds on the runtime clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    pub open: u64,
    pub close: u64,
}

impl Window {
    pub fn len_us(&self) -> u64 {
        self.close.saturating_sub(self.open)
    }

    pub fn contains(&self, a: &Answered) -> bool {
        a.submitted >= self.open && a.answered <= self.close
    }
}

/// The instant the window opens: the latest warm-up finish over all
/// clients, or `None` while some client is still warming up.
pub fn window_open(clients: &[Vec<Answered>], warmup: usize) -> Option<u64> {
    clients
        .iter()
        .map(|c| c.get(warmup.checked_sub(1)?).map(|a| a.answered))
        .collect::<Option<Vec<u64>>>()
        .and_then(|v| v.into_iter().max())
}

/// The instant the window closes: the earliest script finish over all
/// clients, or `None` while no client has finished its `script_len`
/// transactions.
pub fn window_close(clients: &[Vec<Answered>], script_len: usize) -> Option<u64> {
    clients
        .iter()
        .filter_map(|c| c.get(script_len.checked_sub(1)?).map(|a| a.answered))
        .min()
}

/// Both edges; `None` until every client has warmed up and one finished.
pub fn select_window(
    clients: &[Vec<Answered>],
    warmup: usize,
    script_len: usize,
) -> Option<Window> {
    let open = window_open(clients, warmup)?;
    let close = window_close(clients, script_len)?;
    (close > open).then_some(Window { open, close })
}

/// The measured transactions of every client, in answer order.
pub fn measured(clients: &[Vec<Answered>], w: Window) -> Vec<Answered> {
    let mut out: Vec<Answered> = clients
        .iter()
        .flat_map(|c| c.iter().filter(|a| w.contains(a)).copied())
        .collect();
    out.sort_by_key(|a| a.answered);
    out
}

/// Throughput of the last fifth of the measured transactions over the
/// first fifth (each fifth timed from its first to its last answer). Below
/// one means the system slowed down as state accumulated.
pub fn tput_last_over_first(measured: &[Answered]) -> f64 {
    let fifth = measured.len() / 5;
    if fifth < 2 {
        return 1.0;
    }
    let span = |s: &[Answered]| (s[s.len() - 1].answered - s[0].answered).max(1) as f64;
    let first = span(&measured[..fifth]);
    let last = span(&measured[measured.len() - fifth..]);
    first / last
}

/// Throughput (per second) of each of `parts` equal-count slices of the
/// measured transactions, in answer order: the drift, for people.
pub fn tput_by_part(measured: &[Answered], parts: usize) -> Vec<f64> {
    let per = measured.len() / parts.max(1);
    if per < 2 {
        return Vec::new();
    }
    measured
        .chunks_exact(per)
        .map(|s| per as f64 * 1e6 / (s[per - 1].answered - s[0].answered).max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client answering one transaction every `step` us from `start`.
    fn client(start: u64, step: u64, n: usize) -> Vec<Answered> {
        (0..n as u64)
            .map(|i| Answered {
                submitted: start + i * step,
                answered: start + (i + 1) * step,
                committed: true,
            })
            .collect()
    }

    #[test]
    fn opens_at_last_warmup_finish_and_closes_at_first_script_finish() {
        // Fast client: warm-up (2 txns) done at 20, script (10) done at 100.
        // Slow client: warm-up done at 5+60 = 65, script done at 305.
        let clients = vec![client(0, 10, 10), client(5, 30, 10)];
        let w = select_window(&clients, 2, 10).expect("both edges known");
        assert_eq!(
            w,
            Window {
                open: 65,
                close: 100
            }
        );
        let m = measured(&clients, w);
        // Fast client: submitted >= 65 and answered <= 100 -> txns at 70, 80, 90.
        // Slow client: submitted 65 answered 95.
        assert_eq!(m.len(), 4);
        assert!(m.windows(2).all(|p| p[0].answered <= p[1].answered));
        assert!(m.iter().all(|a| a.submitted >= 65 && a.answered <= 100));
    }

    #[test]
    fn no_window_while_a_client_is_warming_up_or_nobody_finished() {
        let mut clients = vec![client(0, 10, 10), client(0, 10, 1)];
        assert_eq!(window_open(&clients, 2), None);
        assert_eq!(select_window(&clients, 2, 10), None);
        clients[1] = client(0, 10, 9);
        assert_eq!(window_open(&clients, 2), Some(20));
        clients[0].truncate(9);
        assert_eq!(window_close(&clients, 10), None);
        assert_eq!(select_window(&clients, 2, 10), None);
    }

    #[test]
    fn straddling_transactions_are_not_measured() {
        let clients = vec![client(0, 10, 6)];
        let w = Window {
            open: 15,
            close: 45,
        };
        let m = measured(&clients, w);
        // Submitted at 10 (before open) and answered at 50 (after close)
        // are both out.
        assert_eq!(
            m.iter().map(|a| a.submitted).collect::<Vec<_>>(),
            vec![20, 30]
        );
    }

    #[test]
    fn drift_ratio_compares_outer_fifths() {
        // 50 answers 10 us apart, then 50 answers 20 us apart: the last
        // fifth runs at half the first fifth's rate.
        let mut all = client(0, 10, 50);
        all.extend(client(500, 20, 50));
        let r = tput_last_over_first(&all);
        assert!((r - 0.5).abs() < 1e-9, "{r}");
        assert_eq!(tput_last_over_first(&all[..3]), 1.0);
    }
}
