//! Ablation: slot-window pipelining in the broadcast service.
//!
//! The service's Paxos backend (à la *Paxos Made Moderately Complex*)
//! decides many slots concurrently; this harness quantifies what that
//! buys by sweeping the in-flight window (1 = the stop-and-wait baseline:
//! one proposal in flight per server) crossed with the batch bound
//! (1 = batching disabled), at a fixed offered load. Window pipelining
//! and batching attack the same stall from different ends: batching
//! amortizes the per-proposal consensus cost, pipelining overlaps the
//! consensus round trips themselves.
//!
//! Emits a human-readable table plus one JSON line per configuration
//! (`{"window":w,"batch":b,"throughput_per_sec":t,"latency_ms":l}`) for
//! the record in `BENCH_hotpaths.json` (group `pipeline`).

use crate::measure::Point;
use crate::scenario::{tob_closed_loop, TobLoad};
use crate::{output, scaled};
use shadowdb_simnet::{Latency, NetworkConfig};
use shadowdb_tob::TobOptions;
use std::io::{self, Write};
use std::time::Duration;

/// One configuration: the load through the compiled Paxos service at the
/// given window and batch bound. `perf_smoke`'s `tob_pipeline` leg is
/// this run at smoke size.
pub fn run(load: TobLoad, window: usize, max_batch: usize) -> Point {
    let options = TobOptions {
        max_batch,
        window: Some(window),
        ..TobOptions::default()
    };
    tob_closed_loop(load, &options)
}

/// Runs the window × batch sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let clients = 24;
    let msgs = scaled(1_000, 10) as u64;
    output::kv(out, "clients", clients)?;
    output::kv(out, "messages per client", msgs)?;
    let mut json = Vec::new();
    for &batch in &[1usize, 64] {
        let rows: Vec<(String, String)> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&w| {
                let load = TobLoad {
                    seed: 4,
                    // A 2 ms hop keeps the consensus round trip — the
                    // thing pipelining overlaps — visible against the
                    // CPU cost model.
                    net: NetworkConfig {
                        latency: Latency::Jittered {
                            base: Duration::from_millis(2),
                            jitter: Duration::from_micros(100),
                        },
                        ..NetworkConfig::lan()
                    },
                    clients,
                    msgs_each: msgs,
                    client_timeout: Duration::from_secs(5),
                    spread: true,
                    skip_warmup: true,
                };
                let p = run(load, w, batch);
                let (tput, lat) = (p.throughput, p.latency_ms);
                json.push(format!(
                    "{{\"window\":{w},\"batch\":{batch},\"throughput_per_sec\":{tput:.1},\"latency_ms\":{lat:.2}}}"
                ));
                (
                    format!("window {w}"),
                    format!("{tput:>8.1}/s   {lat:>8.2} ms"),
                )
            })
            .collect();
        output::pairs(
            out,
            &format!("throughput by window (batch ≤ {batch})"),
            "window",
            "delivered/s, latency",
            &rows,
        )?;
    }
    output::json_lines(out, &json)?;
    output::note(
        out,
        "with batching disabled the window is the only concurrency, so\n\
         throughput roughly doubles from window 1 to 4 before the CPU\n\
         cost model saturates. at batch 64 under this saturating load\n\
         the trade-off inverts: stop-and-wait lets the queue build full\n\
         proposals, while a wide window drains it in fragments that each\n\
         pay a consensus round — pipelining pays off exactly when\n\
         batching cannot fill proposals (small batches or light load).",
    )
}
