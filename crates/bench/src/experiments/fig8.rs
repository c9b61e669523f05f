//! Fig. 8: performance of the broadcast service with Paxos.
//!
//! "We measure the time needed to broadcast a message and receive a
//! deliver notification from the broadcast service when running Paxos on
//! three machines (f = 1). … Each message contains 140 bytes of payload.
//! All versions of the broadcast service implement batching. … we vary
//! the number of clients broadcasting messages between 1 and 43."
//!
//! Paper anchors: Interpreted 122 ms @ 1 client, ≈27 msg/s max;
//! Inter.-Opt. 69.4 ms, ≈65 msg/s; Compiled 8.8 ms, ≈900 msg/s; all
//! CPU-bound at saturation.

use crate::scenario::{tob_closed_loop, TobLoad};
use crate::{output, scaled};
use shadowdb_simnet::NetworkConfig;
use shadowdb_tob::{ExecutionMode, TobOptions};
use std::io::{self, Write};
use std::time::Duration;

/// Runs the sweep and writes one series per execution mode.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let client_counts = [1u32, 2, 4, 8, 12, 16, 24, 32, 43];
    for mode in ExecutionMode::ALL {
        // Paper: 500 msgs/client interpreted, 10 000 compiled.
        let paper_msgs = match mode {
            ExecutionMode::Compiled => 10_000,
            _ => 500,
        };
        let msgs = scaled(paper_msgs, 10) as u64;
        // Window 1: the stop-and-wait batching service of the paper, which
        // `tob::mode`'s per-message CPU costs were calibrated against (the
        // deployed default pipelines 8 slots; `ablation_window` sweeps it).
        let options = TobOptions {
            mode,
            max_batch: 64,
            window: Some(1),
            ..TobOptions::default()
        };
        let mut rows = Vec::new();
        for &clients in &client_counts {
            let load = TobLoad {
                seed: 42,
                net: NetworkConfig::lan(),
                clients,
                msgs_each: msgs,
                client_timeout: Duration::from_secs(120),
                spread: true,
                skip_warmup: true,
            };
            let p = tob_closed_loop(load, &options);
            rows.push((
                format!("{:.1}", p.throughput),
                format!("{:.2}", p.latency_ms),
            ));
        }
        output::pairs(
            out,
            &format!("{} ({} msgs/client)", mode.label(), msgs),
            "delivered/s",
            "latency(ms)",
            &rows,
        )?;
        let anchor = match mode {
            ExecutionMode::Interpreted => "paper: 122 ms @ 1 client, max ≈ 27 msg/s",
            ExecutionMode::InterpretedOpt => "paper: 69.4 ms @ 1 client, max ≈ 65 msg/s",
            ExecutionMode::Compiled => "paper: 8.8 ms @ 1 client, max ≈ 900 msg/s",
        };
        output::kv(out, "anchor", anchor)?;
    }
    Ok(())
}
