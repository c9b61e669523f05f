//! Ablation: batching in the broadcast service.
//!
//! The paper notes "All versions of the broadcast service implement
//! batching, that is, multiple messages can be bundled in one Paxos
//! proposal" — this harness shows why, by sweeping the batch bound
//! (1 = batching disabled) at a fixed offered load and reporting the
//! delivered throughput and latency.

use crate::scenario::{tob_closed_loop, TobLoad};
use crate::{output, scaled};
use shadowdb_simnet::NetworkConfig;
use shadowdb_tob::TobOptions;
use std::io::{self, Write};
use std::time::Duration;

/// Runs the sweep and writes one row per batch bound.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let clients = 24;
    let msgs = scaled(2_000, 10) as u64;
    output::kv(out, "clients", clients)?;
    output::kv(out, "messages per client", msgs)?;
    let rows: Vec<(String, String)> = [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&max_batch| {
            let load = TobLoad {
                seed: 4,
                net: NetworkConfig::lan(),
                clients,
                msgs_each: msgs,
                client_timeout: Duration::from_secs(5),
                spread: true,
                skip_warmup: true,
            };
            // Window 1, as in Fig. 8: with one proposal in flight per
            // server the batch bound is the only amortization, which is
            // the design choice under test (`ablation_window` crosses
            // the two).
            let options = TobOptions {
                max_batch,
                window: Some(1),
                ..TobOptions::default()
            };
            let p = tob_closed_loop(load, &options);
            (
                format!("batch ≤ {max_batch}"),
                format!("{:>8.1}/s   {:>8.2} ms", p.throughput, p.latency_ms),
            )
        })
        .collect();
    output::pairs(
        out,
        "throughput by batch bound",
        "bound",
        "delivered/s, latency",
        &rows,
    )?;
    output::note(
        out,
        "batching amortizes the fixed per-proposal consensus cost across\n\
         messages; without it the service saturates at the per-slot rate.",
    )
}
