//! Ablation: state-transfer batch size.
//!
//! The paper chose batches "close to 50 kilobytes in serialized form"
//! (Sec. IV-B). This harness sweeps the batch bound for a 50,000-row
//! transfer and reports the transfer time and message count: tiny batches
//! drown in per-message overhead, huge ones stop pipelining serialization
//! against insertion and bloat single messages.

use crate::output;
use crate::scenario::state_transfer;
use shadowdb::smr::SmrReplica;
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_workloads::bank;
use std::io::{self, Write};
use std::time::Duration;

/// Transfers 50,000 rows at the given batch bound; returns the virtual
/// transfer time in seconds and the messages it took.
fn run(batch_bytes: usize) -> (f64, u64) {
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, 50_000).expect("loads");
    let mut donor = SmrReplica::new(db);
    donor.set_transfer_batch_bytes(batch_bytes);
    // Per-message fixed handling cost: what makes tiny batches bad.
    state_transfer(6, donor, Duration::from_micros(400))
}

/// Runs the batch-bound sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let rows: Vec<(String, String)> = [512usize, 4 * 1024, 50 * 1024, 500 * 1024, 5 * 1024 * 1024]
        .iter()
        .map(|&b| {
            let (t, msgs) = run(b);
            (
                format!("{:>8} B", b),
                format!("{t:>7.2} s  ({msgs} messages)"),
            )
        })
        .collect();
    output::pairs(out, "50,000-row transfer", "batch bound", "time", &rows)?;
    output::note(
        out,
        "~50 KB sits at the knee: little per-message overhead left to save,\n\
         and single messages stay small enough not to stall the receiver.",
    )
}
