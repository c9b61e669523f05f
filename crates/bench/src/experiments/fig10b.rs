//! Fig. 10(b): the overhead of state transfer.
//!
//! "State transfer consists in selecting the rows of each table, sending
//! the rows in batches, and inserting them in the corresponding table at
//! the destination replica. We consider rows of 16 bytes and 1 kilobyte
//! with respectively 3 and 4 columns, and a number of rows varying from
//! 500 to 500,000. For both row sizes, the batch size was chosen such
//! that it would be close to 50 kilobytes in serialized form. … In all
//! experiments, row insertion speed constitutes the bottleneck of state
//! transfer."
//!
//! Paper anchors — 16 B rows: 0.4 / 1.4 / 3.8 / 22.6 s at
//! 500 / 5 000 / 50 000 / 500 000 rows; 1 KB rows: 0.5 / 2.4 / 9.1 /
//! 69.6 s; TPC-C with 1 warehouse (≈100 MB): 54.5 s.
//!
//! The harness drives the *actual* SMR state-transfer path: a donor
//! replica snapshots and streams ~50 KB batches through the simulated
//! network; a joining replica decodes, bulk-inserts, and reports. The
//! measured time is virtual (serialization + insertion costs per the
//! engine profile, plus network).

use crate::output;
use crate::scenario::state_transfer;
use shadowdb::smr::SmrReplica;
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_workloads::{bank, tpcc};
use std::io::{self, Write};
use std::time::Duration;

/// Transfers the state of `db` to a fresh joining replica; returns the
/// virtual transfer time in seconds.
fn transfer_time(db: Database) -> f64 {
    state_transfer(5, SmrReplica::new(db), Duration::ZERO).0
}

fn sized_db(rows: usize, row_bytes: usize) -> Database {
    let db = Database::new(EngineProfile::h2());
    bank::load_sized(&db, rows, row_bytes).expect("loads");
    db
}

/// Runs the row-count sweep for both row sizes, then TPC-C.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    // Virtual time makes the full sweep cheap, so --full changes nothing.
    let row_counts: &[usize] = &[500, 5_000, 50_000, 500_000];

    for (label, row_bytes, anchors) in [
        (
            "16 B rows (3 columns)",
            16,
            "paper: 0.4 / 1.4 / 3.8 / 22.6 s",
        ),
        (
            "1 KB rows (4 columns)",
            1_024,
            "paper: 0.5 / 2.4 / 9.1 / 69.6 s",
        ),
    ] {
        let rows: Vec<(String, String)> = row_counts
            .iter()
            .map(|&n| {
                let t = transfer_time(sized_db(n, row_bytes));
                (format!("{n}"), format!("{t:.2} s"))
            })
            .collect();
        output::pairs(out, label, "rows", "transfer time", &rows)?;
        output::kv(out, "anchor", anchors)?;
    }

    // TPC-C, 1 warehouse (spec sizing regardless of --full, as above).
    let scale = tpcc::TpccScale::full();
    let db = Database::new(EngineProfile::h2());
    tpcc::load(&db, &scale, 3).expect("loads");
    let mb = db.byte_size() as f64 / 1e6;
    let t = transfer_time(db);
    writeln!(out)?;
    output::kv(
        out,
        "TPC-C 1 warehouse",
        format!("{mb:.0} MB transferred in {t:.1} s (paper: ≈100 MB in 54.5 s)"),
    )
}
