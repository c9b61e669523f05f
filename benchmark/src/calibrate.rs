//! `calibrate <n>`: runs every workload `n` times — each run a fresh
//! process, the workload order reversed on every other round, a new seed
//! per round — and records each end-to-end metric's median, quartiles and
//! spread. The bounds in `BENCHMARK.json` were fixed from this record; it
//! is written to `calibration.json` beside the package manifest.

use crate::metrics::{field_in, metric_in, END_TO_END};
use crate::workload::WORKLOADS;
use std::path::Path;
use std::process::Command;

/// First and third quartile and median as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || field_in(&last, "correct") != Some("true") {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(last)
}

pub fn calibrate(runs: usize, seconds: u64) -> Result<(), String> {
    if runs < 2 {
        return Err("calibrate needs at least 2 runs".into());
    }
    // values[workload][metric] = one value per round.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for round in 0..runs {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let name = WORKLOADS[w].name;
            let line = one_run(name, 1_000 + round as u64, seconds)?;
            for (m, def) in END_TO_END.iter().enumerate() {
                let v = metric_in(&line, def.0).ok_or(format!("{name}: no {}", def.0))?;
                values[w][m].push(v);
            }
            println!("round {round} {name}: {line}");
        }
    }

    let mut json =
        format!("{{\n  \"runs\": {runs},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n");
    println!(
        "\n{:<16} {:<14} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (w, spec) in WORKLOADS.iter().enumerate() {
        json += &format!("    \"{}\": {{\n", spec.name);
        for (m, def) in END_TO_END.iter().enumerate() {
            let (q1, med, q3) = quartiles(&values[w][m]);
            let s = spread(&values[w][m]);
            println!(
                "{:<16} {:<14} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.2}% {:>6.0}%",
                spec.name,
                def.0,
                s * 100.0,
                def.3 * 100.0
            );
            json += &format!(
                "      \"{}\": {{\"unit\": \"{}\", \"q1\": {q1}, \"median\": {med}, \"q3\": {q3}, \"spread\": {s}, \"bound\": {}}}{}\n",
                def.0,
                def.1,
                def.3,
                if m + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        json += if w + 1 < WORKLOADS.len() {
            "    },\n"
        } else {
            "    }\n"
        };
    }
    json += "  }\n}\n";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("calibration.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Python 3:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` = `[2.75, 5.5, 8.25]`
    /// `statistics.quantiles([3,1,4,1,5,9,2,6], n=4)` = `[1.25, 3.5, 5.75]`
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(quartiles(&v), (1.25, 3.5, 5.75));
        assert!((spread(&v) - 4.5 / 3.5).abs() < 1e-12);
    }
}
