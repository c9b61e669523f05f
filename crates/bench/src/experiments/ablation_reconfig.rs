//! Ablation: online replica replacement — transfer batch size ×
//! concurrent load.
//!
//! The paper transfers recovery state in batches "close to 50 kilobytes
//! in serialized form" (Sec. IV-B) and overlaps the transfer with live
//! traffic (Sec. III-A). This harness replaces one backup of a serving
//! PBR group through `ReconfigHandle::replace_replica` and sweeps the
//! two knobs that shape the rejoin time: the state-transfer batch bound,
//! and how much live load the group is carrying while the joiner catches
//! up.
//!
//! Two arrangements make the batch bound actually bite. First, the
//! replica's executed-transaction cache is kept far smaller than the
//! executed history before the replacement, so the joiner cannot replay
//! the log and must take the snapshot path — a full dump of the 50,000
//! bank rows, which is what gets batched. Second, snapshot chunks carry
//! a per-message fixed handling cost (as in `ablation_xferbatch`),
//! modeling the framing/syscall/decode work that makes tiny batches bad.
//! The model composes with the TOB deployment's `ModeCost` and must be
//! installed *after* `PbrDeployment::build` (the broadcast-service
//! deployment installs its own model, replacing whatever the builder
//! carried).
//!
//! The failure detector is deliberately slackened to 2 s: snapshot
//! preparation charges the donor a scan of every row, and a detector
//! tighter than that stall suspects the donor *because it is donating* —
//! cascading the group through bogus failovers (see DESIGN.md §11 on the
//! perfect-failure-detector assumption).
//!
//! Expected shape: tiny batches drown the transfer in per-message
//! overhead; past the ~50 KB knee the batch bound stops mattering and
//! the fixed serialization (donor) and bulk-insert (joiner) costs
//! dominate. Overlapped transfer absorbs concurrent load: rejoin time
//! stays flat across load levels while commits keep landing in every
//! loaded cell — the group never pauses.

use crate::measure::answered;
use crate::output;
use crate::scenario::bank_options;
use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::msgs::SNAPSHOT_HEADER;
use shadowdb::pbr::PbrOptions;
use shadowdb_eventml::Msg;
use shadowdb_loe::Loc;
use shadowdb_runtime::{CostModel, Runtime};
use shadowdb_simnet::testing::default_net;
use shadowdb_tob::mode::ModeCost;
use std::io::{self, Write};
use std::time::Duration;

const ROWS: usize = 50_000;
const TXNS_PER_CLIENT: usize = 300;

/// The TOB service's calibrated cost model plus a fixed per-chunk
/// handling charge on snapshot transfer messages.
struct XferCost {
    inner: ModeCost,
}

impl CostModel for XferCost {
    fn handle_cost(&self, dest: Loc, msg: &Msg) -> Duration {
        let h = msg.header.name();
        let chunk = if h == SNAPSHOT_HEADER {
            // Per-message fixed handling cost: what makes tiny batches bad.
            Duration::from_micros(400)
        } else {
            Duration::ZERO
        };
        self.inner.handle_cost(dest, msg) + chunk
    }
}

/// Deploys a PBR bank group, lets the clients get `warm` answers, then
/// replaces the backup with a fresh replica through
/// `ReconfigHandle::replace_replica` while the remaining load keeps
/// running; `chunk_cost` composes [`XferCost`] onto the service's model.
/// Returns (rejoin ms, answers during the replacement window).
/// `perf_smoke`'s `reconfig_catchup_ms` leg is this run at smoke size.
pub fn replace(
    seed: u64,
    options: &DeployOptions,
    pbr: PbrOptions,
    chunk_cost: bool,
    warm: usize,
) -> (f64, usize) {
    let mut sim = default_net(seed);
    let d = PbrDeployment::build(&mut sim, options, pbr);
    if chunk_cost {
        sim.set_cost_model(XferCost {
            inner: ModeCost::new(options.mode, d.tob.service_locs.clone()),
        });
    }
    let mut handle = d.reconfig(&mut sim);
    while answered(&d.stats) < warm {
        sim.run_for(Duration::from_millis(5));
    }
    let before = answered(&d.stats);
    let t0 = sim.now();
    handle
        .replace_replica(&mut sim, d.replicas[1], Duration::from_secs(600))
        .expect("replacement completes");
    let ms = (sim.now().as_micros() - t0.as_micros()) as f64 / 1_000.0;
    (ms, answered(&d.stats) - before)
}

/// One cell of the sweep: the given transfer batch bound with `live`
/// clients submitting during the transfer (0 = the workload fully drains
/// first, isolating the pure transfer time).
fn run(batch_bytes: usize, live: usize) -> (f64, usize) {
    let clients = live.max(2);
    let options = DeployOptions {
        client_timeout: Duration::from_millis(400),
        ..bank_options(ROWS, clients, TXNS_PER_CLIENT, 23)
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        // Slack detector: the donor stalls for the snapshot scan, and a
        // detector tighter than that stall suspects it mid-transfer.
        detect_after: Duration::from_secs(2),
        // A cache far smaller than the executed history at replacement
        // time: the joiner must take the snapshot path, which is what
        // the batch bound shapes.
        cache_limit: 100,
        transfer_batch_bytes: batch_bytes,
        // Sec. III-A overlapped transfer: the group resumes once the
        // first backup recovers; the joiner catches up under live load.
        overlapped_transfer: true,
        ..PbrOptions::default()
    };
    // Execute well past the cache limit so the join cannot replay the
    // log; with `live == 0`, drain the workload entirely first.
    let warm = if live == 0 {
        clients * TXNS_PER_CLIENT
    } else {
        (clients * TXNS_PER_CLIENT / 4).max(200)
    };
    let seed = 0x5EC0 ^ (batch_bytes as u64) ^ ((live as u64) << 40);
    replace(seed, &options, pbr, true, warm)
}

/// Runs the batch × load sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let batches = [4 * 1024usize, 50 * 1024, 500 * 1024];
    let loads = [0usize, 2, 8];
    let mut rows: Vec<(String, String)> = Vec::new();
    for &live in &loads {
        for &batch in &batches {
            let (ms, commits) = run(batch, live);
            rows.push((
                format!("{:>7} B, {live} live client(s)", batch),
                format!("{ms:>8.1} ms rejoin  ({commits} commits during)"),
            ));
        }
    }
    output::pairs(
        out,
        "replace one backup of a serving 3-replica group (50,000 rows)",
        "batch × load",
        "rejoin",
        &rows,
    )?;
    output::note(
        out,
        "Tiny batches pay per-message handling on every chunk; past the ~50 KB\n\
         knee the fixed serialize/insert costs dominate. Overlapped transfer\n\
         absorbs live load: rejoin stays flat and the group never pauses.",
    )
}
