//! The experiment runner's command line (see the library's module doc).

use shadowdb_bench::experiments::{Experiment, EXPERIMENTS};
use shadowdb_bench::perf_smoke;
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--full").collect();
    let names: Vec<&str> = args.iter().map(String::as_str).collect();
    if names == ["perf_smoke"] {
        return Ok(perf_smoke::run());
    }
    let mut out = io::stdout().lock();
    if names == ["list"] {
        for e in EXPERIMENTS {
            let kind = if e.deterministic {
                "deterministic"
            } else {
                "host-dependent"
            };
            writeln!(out, "{:<20} {kind:<15} {}", e.name, e.paper)?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let selected: Option<Vec<&Experiment>> = match names[..] {
        ["all"] => Some(EXPERIMENTS.iter().collect()),
        _ => names
            .iter()
            .map(|n| EXPERIMENTS.iter().find(|e| e.name == *n))
            .collect(),
    };
    match selected {
        Some(selected) if !selected.is_empty() => {
            for e in selected {
                e.write(&mut out)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("usage: shadowdb-bench [--full] <experiment>… | all | list | perf_smoke");
            Ok(ExitCode::from(2))
        }
    }
}
