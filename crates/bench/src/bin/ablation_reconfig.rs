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

use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::msgs::SNAPSHOT_HEADER;
use shadowdb::pbr::PbrOptions;
use shadowdb_bench::output;
use shadowdb_eventml::Msg;
use shadowdb_loe::Loc;
use shadowdb_runtime::{CostModel, Runtime};
use shadowdb_simnet::{NetworkConfig, SimBuilder};
use shadowdb_tob::mode::ModeCost;
use shadowdb_tob::ExecutionMode;
use shadowdb_workloads::bank;
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

/// Replaces a backup with the given transfer batch bound; `live` clients
/// keep submitting during the transfer (0 = the workload fully drains
/// first, isolating the pure transfer time). Returns (rejoin ms, commits
/// during the replacement window).
fn run(batch_bytes: usize, live: usize) -> (f64, usize) {
    let clients = live.max(2);
    let mut sim = SimBuilder::new(0x5EC0 ^ (batch_bytes as u64) ^ ((live as u64) << 40))
        .network(NetworkConfig::lan())
        .build();
    let options = DeployOptions {
        client_timeout: Duration::from_millis(400),
        ..DeployOptions::new(
            clients,
            |client| {
                let mut g = bank::BankGen::new(23 + client as u64, ROWS);
                (0..TXNS_PER_CLIENT).map(|_| g.next_txn()).collect()
            },
            |db| bank::load(db, ROWS).expect("loads"),
        )
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
    let d = PbrDeployment::build(&mut sim, &options, pbr.clone());
    sim.set_cost_model(XferCost {
        inner: ModeCost::new(ExecutionMode::Compiled, d.tob.service_locs.clone()),
    });
    let mut handle = d.reconfig(&mut sim, pbr, DiversityPolicy::Uniform, |db| {
        bank::load(db, ROWS).expect("loads")
    });
    let committed =
        |d: &PbrDeployment| -> usize { d.stats.iter().map(|s| s.lock().completed.len()).sum() };
    // Execute well past the cache limit so the join cannot replay the
    // log; with `live == 0`, drain the workload entirely first.
    let warm = if live == 0 {
        clients * TXNS_PER_CLIENT
    } else {
        (clients * TXNS_PER_CLIENT / 4).max(200)
    };
    while committed(&d) < warm {
        sim.run_for(Duration::from_millis(5));
    }
    let before = committed(&d);
    let t0 = sim.now();
    handle
        .replace_replica(&mut sim, d.replicas[1], Duration::from_secs(600))
        .expect("replacement completes");
    let ms = (sim.now().as_micros() - t0.as_micros()) as f64 / 1_000.0;
    (ms, committed(&d) - before)
}

fn main() {
    output::banner(
        "Ablation — online replacement: batch size × concurrent load",
        "Sec. IV-B's ~50 KB transfer batches under Sec. III-A's overlapped recovery",
    );
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
        "replace one backup of a serving 3-replica group (50,000 rows)",
        "batch × load",
        "rejoin",
        &rows,
    );
    println!();
    println!("Tiny batches pay per-message handling on every chunk; past the ~50 KB");
    println!("knee the fixed serialize/insert costs dominate. Overlapped transfer");
    println!("absorbs live load: rejoin stays flat and the group never pauses.");
}
