//! Ablation: connection count × pipelining depth on the TCP event loop.
//!
//! The thread-per-core rework replaced one reader thread per link with N
//! sharded readiness loops; this harness quantifies how the transport
//! scales with both axes that rework targets: concurrent connections
//! (pinger/echo pairs, spread across shards by `loc % shards`) and the
//! pipelining depth per connection (pings in flight, i.e. how much work a
//! single readiness event can drain in one `read`).
//!
//! Depth 1 is the RTT-bound baseline — every echo pays a full
//! wake/read/step/write/wake round trip; deeper pipelines amortize the
//! event-loop overhead across frames per readiness event, and more pairs
//! exercise cross-shard parallelism.
//!
//! Emits a human-readable table plus one JSON line per configuration
//! (`{"pairs":p,"depth":d,"echoes_per_sec":r}`) for the record in
//! `BENCH_hotpaths.json` (group `netplane`).

use crate::{netload, output, scaled};
use std::io::{self, Write};

/// Runs the connections × depth sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let echoes = scaled(20_000, 10) as u64;
    let warm = (echoes / 10).max(100);
    output::kv(out, "measured echoes per pair", echoes)?;
    output::kv(out, "warm-up echoes per pair", warm)?;
    let mut json = Vec::new();
    for &depth in &[1usize, 8, 64] {
        let rows: Vec<(String, String)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&pairs| {
                let rate = netload::echo_rate(pairs, depth, warm, echoes, false);
                json.push(format!(
                    "{{\"pairs\":{pairs},\"depth\":{depth},\"echoes_per_sec\":{rate:.0}}}"
                ));
                (format!("{pairs} pairs"), format!("{rate:>10.0}/s"))
            })
            .collect();
        output::pairs(
            out,
            &format!("echo throughput (depth {depth})"),
            "connections",
            "echoes/s",
            &rows,
        )?;
    }
    output::json_lines(out, &json)?;
    output::note(
        out,
        "depth 1 is RTT-bound: each echo pays a full readiness round\n\
         trip, so adding pairs scales throughput almost linearly until\n\
         the shards saturate. deeper pipelines batch many frames into\n\
         each readiness event — one read() drains several pings, their\n\
         pongs leave in one writev — so a single pair already runs\n\
         orders above the RTT bound and extra pairs buy less.",
    )
}
