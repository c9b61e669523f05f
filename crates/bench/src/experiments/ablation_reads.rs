//! Ablation: lease-based read fast path × read fraction.
//!
//! The lease tentpole's claim is that linearizable reads need not pay
//! the ordering machinery — a backup-acknowledgment round on PBR, a full
//! total-order broadcast on SMR — as long as a time-bounded lease pins
//! the answering replica. This harness quantifies that across the read
//! mix: a YCSB-style zipfian workload (`shadowdb_workloads::kv`) swept
//! over read fractions, each point run twice on identical virtual-time
//! deployments — leases off (every transaction ordered) and leases on
//! (reads served locally by the holder) — on both replication designs.
//!
//! Virtual time makes every number deterministic: the deltas are
//! protocol costs (messages, round trips, virtual CPU), not host noise.
//! Writes always pay the ordered path, so the payoff must grow with the
//! read fraction and vanish at 0% reads — the sweep's shape is itself
//! the correctness argument for the gating in `perf_smoke`
//! (`read_leases_speedup_95r`).
//!
//! Emits a human-readable table plus one JSON line per configuration
//! (`{"mode":m,"read_pct":p,"leases":b,"throughput_per_sec":t,
//! "latency_ms":l}`) for the record in `BENCH_hotpaths.json` (group
//! `reads`).

use crate::measure::{steady_state, Point};
use crate::output;
use crate::scenario::run_to_completion;
use shadowdb::deploy::DeployOptions;
use shadowdb::pbr::PbrOptions;
use shadowdb::smr::SmrLeaseOptions;
use shadowdb_workloads::{bank, KvGen, KvOptions};
use std::io::{self, Write};

const ROWS: usize = 256;

/// The offered load of one point.
pub struct Load {
    /// Stop-and-wait clients.
    pub clients: usize,
    /// Transactions per client.
    pub txns_each: usize,
    /// Whether the measurement drops each client's first tenth.
    pub skip_warmup: bool,
}

const SWEEP: Load = Load {
    clients: 16,
    txns_each: 60,
    skip_warmup: true,
};

/// One point: the zipfian mix at `read_pct` % reads on PBR (`pbr`) or
/// SMR, with the lease fast path on or off. `perf_smoke`'s
/// `read_leases_speedup_95r` leg is the SMR run at smoke size.
pub fn run(seed: u64, load: &Load, pbr: bool, read_pct: u32, leases: bool) -> Point {
    let txns_each = load.txns_each;
    let mut options = DeployOptions::new(
        load.clients,
        move |client| {
            let opts = KvOptions {
                rows: ROWS,
                read_fraction: read_pct as f64 / 100.0,
                theta: 0.99,
            };
            KvGen::new(0x5EED + client as u64, opts).script(txns_each)
        },
        |db| bank::load(db, ROWS).expect("bank loads"),
    );
    let pbr = pbr.then(PbrOptions::default);
    if leases {
        options.smr_leases = Some(SmrLeaseOptions::default());
    }
    let stats = run_to_completion(seed, &options, pbr, None);
    steady_state(&stats, load.skip_warmup)
}

/// Runs the design × read-fraction sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    output::kv(out, "clients", SWEEP.clients)?;
    output::kv(out, "transactions per client", SWEEP.txns_each)?;
    output::kv(out, "keys (zipfian θ=0.99)", ROWS)?;
    let mut json = Vec::new();
    for (mode, pbr, seed_base) in [("pbr", true, 4_200), ("smr", false, 4_300)] {
        let rows: Vec<(String, String)> = [0u32, 50, 95, 99]
            .iter()
            .map(|&pct| {
                let mut point = |leases: bool| {
                    let seed = seed_base + pct as u64 * 2 + leases as u64;
                    let p = run(seed, &SWEEP, pbr, pct, leases);
                    json.push(format!(
                        "{{\"mode\":\"{mode}\",\"read_pct\":{pct},\"leases\":{leases},\
                         \"throughput_per_sec\":{:.1},\"latency_ms\":{:.2}}}",
                        p.throughput, p.latency_ms
                    ));
                    (p.throughput, p.latency_ms)
                };
                let (off_t, off_l) = point(false);
                let (on_t, on_l) = point(true);
                (
                    format!("{pct}% reads"),
                    format!(
                        "off {off_t:>8.1}/s {off_l:>6.2} ms   on {on_t:>8.1}/s {on_l:>6.2} ms   {:>5.2}x",
                        on_t / off_t
                    ),
                )
            })
            .collect();
        output::pairs(
            out,
            &format!("{mode}: leases off vs on"),
            "mix",
            "throughput, latency, speedup",
            &rows,
        )?;
    }
    output::json_lines(out, &json)?;
    output::note(
        out,
        "the write-only row is the no-regression control: leases touch\n\
         nothing on the ordered path, so 0% reads must not move. the\n\
         payoff then scales with the read fraction — on SMR every avoided\n\
         read is a whole total-order broadcast, so the high-read rows\n\
         gain the most; on PBR it is the backup round trip plus the\n\
         primary's forward/ack handling that the fast path sheds.",
    )
}
