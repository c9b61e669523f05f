//! Plain-text experiment output.
//!
//! Each experiment writes a self-describing table: a title with the paper
//! reference, a header row, and one row per measurement — the same series
//! the paper plots, ready for gnuplot or a spreadsheet.

use crate::measure::Point;
use std::io::{self, Write};

/// Writes a figure/table banner.
pub fn banner(out: &mut dyn Write, title: &str, paper_ref: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "== {title} ==")?;
    writeln!(out, "   (reproduces {paper_ref})")
}

/// Writes one latency-vs-throughput series.
pub fn series(out: &mut dyn Write, name: &str, points: &[Point]) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "-- {name} --")?;
    writeln!(
        out,
        "{:>8} {:>14} {:>13} {:>11}",
        "clients", "committed/s", "latency(ms)", "abort-rate"
    )?;
    for p in points {
        writeln!(
            out,
            "{:>8} {:>14.1} {:>13.3} {:>11.3}",
            p.clients, p.throughput, p.latency_ms, p.abort_rate
        )?;
    }
    Ok(())
}

/// Writes a generic two-column series.
pub fn pairs(
    out: &mut dyn Write,
    name: &str,
    x_label: &str,
    y_label: &str,
    rows: &[(String, String)],
) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "-- {name} --")?;
    writeln!(out, "{x_label:>16} {y_label:>16}")?;
    for (x, y) in rows {
        writeln!(out, "{x:>16} {y:>16}")?;
    }
    Ok(())
}

/// Writes a key/value summary line.
pub fn kv(out: &mut dyn Write, key: &str, value: impl std::fmt::Display) -> io::Result<()> {
    writeln!(out, "   {key}: {value}")
}

/// Writes the one-JSON-object-per-configuration record of a sweep (what
/// `BENCH_hotpaths.json` quotes), set off by a blank line.
pub fn json_lines(out: &mut dyn Write, lines: &[String]) -> io::Result<()> {
    writeln!(out)?;
    for line in lines {
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Writes an experiment's closing paragraph — its reading of the numbers
/// above — set off by a blank line.
pub fn note(out: &mut dyn Write, text: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "{text}")
}
