//! Wall-clock replicated-commit benchmark.
//!
//! One command per workload deploys the shipping PBR/SMR builders on
//! tcpnet (real loopback sockets, real files), runs a fixed amount of
//! closed-loop work, checks the outputs from outside, and prints every
//! metric by name with its unit. See README.md.
//!
//! ```text
//! shadowdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! shadowdb-benchmark run <name> [--seed <n>] [--seconds <s>]
//! shadowdb-benchmark trace <name> [--seed <n>] [--seconds <s>]
//! shadowdb-benchmark calibrate <n> [--seconds <s>]
//! ```

mod budget;
mod calibrate;
mod check;
mod hist;
mod metrics;
mod procfs;
mod replay;
mod run;
mod span;
mod window;
mod workload;

use metrics::Outcome;
use run::{quiet_s, RunData, Start};
use shadowdb_runtime::Runtime;
use shadowdb_tcpnet::TcpNet;
use shadowdb_workloads::TxnRequest;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workload::{Spec, RUN_SECONDS};

/// An answer still missing this long after the window closed is a failure.
const UNANSWERED_US: u64 = 1_000_000;

enum Command {
    Run {
        spec: &'static Spec,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Calibrate {
        runs: usize,
        seconds: u64,
    },
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         run|trace <name> [--seed <n>] [--seconds <s>]\n       \
         calibrate <runs> [--seconds <s>]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mut name, mut seed, mut seconds, mut trace, mut runs) =
        (None, 1u64, RUN_SECONDS, false, None);
    let mut it = args.iter();
    let num = |v: Option<&String>, what: &str| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or(format!("{what} needs a whole number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => name = it.next().cloned(),
            "--seed" => seed = num(it.next(), "--seed")?,
            "--seconds" => seconds = num(it.next(), "--seconds")?,
            "--trace" => trace = num(it.next(), "--trace")? != 0,
            "run" | "trace" => {
                trace = a == "trace";
                name = it.next().cloned();
            }
            "calibrate" => runs = Some(num(it.next(), "calibrate")? as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    if let Some(runs) = runs {
        return Ok(Command::Calibrate { runs, seconds });
    }
    let name = name.ok_or("no workload named")?;
    let spec = workload::find(&name).ok_or(format!("unknown workload {name:?}"))?;
    Ok(Command::Run {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// Where run artifacts and the WAL's scratch root go: `out/` beside the
/// package's manifest, so nothing is written outside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes this process's `shadowdb-*` storage roots, whatever happened.
struct Scratch(PathBuf);

impl Scratch {
    /// Points `TMPDIR` — where tcpnet roots its per-run storage — into the
    /// checkout. Must run before any thread exists.
    fn claim() -> std::io::Result<Scratch> {
        let dir = out_dir().join("tmp");
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let mine = format!("-{}-", std::process::id());
        let Ok(entries) = std::fs::read_dir(&self.0) else {
            return;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shadowdb-") && name.contains(&mine) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// `pbr_bank_wal` measures real `sync_all`s: on tmpfs/ramfs they are
/// no-ops, so the run is refused there.
fn storage_fs(scratch: &Path, spec: &Spec) -> Result<String, String> {
    let fs = procfs::fs_type(scratch).unwrap_or_else(|| "unknown".into());
    if spec.wal && matches!(fs.as_str(), "tmpfs" | "ramfs") {
        return Err(format!(
            "{} needs a filesystem whose sync_all reaches storage; {} is {fs}",
            spec.name,
            scratch.display()
        ));
    }
    Ok(fs)
}

fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One deployed, driven and checked run; `spans` only when traced.
struct Finished {
    deployed: workload::Deployed,
    data: RunData,
    correct: bool,
    spans: Option<(Vec<span::Span>, Vec<shadowdb_eventml::Msg>)>,
}

/// Deploys into `rt` and drives the run to the end of its window.
fn deploy_and_drive<R: Runtime>(
    rt: &mut R,
    spec: &Spec,
    seed: u64,
    scripts: &Arc<Vec<Vec<TxnRequest>>>,
    started: Start,
) -> (workload::Deployed, Result<RunData, String>) {
    let deployed = workload::deploy(rt, spec, seed, scripts.clone());
    let data = run::drive(rt, &deployed, spec, scripts[0].len(), started);
    (deployed, data)
}

fn execute(
    spec: &Spec,
    seed: u64,
    scripts: &Arc<Vec<Vec<TxnRequest>>>,
    traced: bool,
    started: Start,
) -> Result<Finished, String> {
    let net = TcpNet::builder().seeded(seed).shards(shards()).spawn();
    // The net is shut down before a failed drive is reported.
    let (deployed, data, spans) = if traced {
        let mut rt = span::SpanRuntime::new(net);
        let (deployed, data) = deploy_and_drive(&mut rt, spec, seed, scripts, started);
        let sink = rt.sink();
        rt.inner.shutdown();
        (deployed, data?, Some(sink.collect()))
    } else {
        let mut rt = net;
        let (deployed, data) = deploy_and_drive(&mut rt, spec, seed, scripts, started);
        rt.shutdown();
        (deployed, data?, None)
    };
    let check = check::check_outputs(spec, &deployed, &data, scripts);
    if let Err(e) = &check {
        eprintln!("output check FAILED: {e}");
    }
    Ok(Finished {
        deployed,
        data,
        correct: check.is_ok(),
        spans,
    })
}

impl Finished {
    fn outcome(&self, scripts: &[Vec<TxnRequest>], metrics: Vec<(&'static str, f64)>) -> Outcome {
        let (attempted, failed) = operations(&self.data, scripts, self.correct);
        Outcome {
            correct: self.correct,
            attempted,
            failed,
            metrics,
        }
    }
}

/// Attempted and failed operations of a run: attempted is every
/// transaction submitted inside the window; failed is every one of those
/// still unanswered a second after it closed, every client resend and
/// every unexpected abort — and all of them when the output check failed.
fn operations(data: &RunData, scripts: &[Vec<TxnRequest>], correct: bool) -> (u64, u64) {
    let w = data.window;
    let (mut attempted, mut failed) = (0u64, data.resends);
    for (c, answers) in data.answered.iter().enumerate() {
        for (i, a) in answers.iter().enumerate() {
            if a.submitted >= w.open && a.submitted <= w.close {
                attempted += 1;
                if !a.committed && !workload::aborts_by_design(&scripts[c][i]) {
                    failed += 1;
                }
            }
        }
        // Closed loop: the next transaction went out when the last answer
        // came in, and is in flight if the script has more.
        let last = answers.last().map_or(0, |a| a.answered);
        if answers.len() < scripts[c].len() && last <= w.close {
            attempted += 1;
            if w.close - last > UNANSWERED_US {
                failed += 1;
            }
        }
    }
    if correct {
        (attempted.max(1), failed.min(attempted))
    } else {
        (attempted.max(1), attempted.max(1))
    }
}

fn end_to_end(data: &RunData, scripts: &[Vec<TxnRequest>]) -> Vec<(&'static str, f64)> {
    let (all, _, _) = budget::latency_hists(data, scripts);
    let wall_s = data.window.len_us() as f64 / 1e6;
    println!(
        "  measured {} transactions over {wall_s:.3} s ({:.3} s of them stolen by the hypervisor); \
         p50 {:.3} ms, {} samples beyond p99 = {:.3} ms",
        all.count(),
        data.window_stolen_s(),
        all.quantile(0.5) / 1e3,
        all.samples_beyond(0.99),
        all.quantile(0.99) / 1e3,
    );
    if !data.close.syncs.is_empty() {
        println!(
            "  {:.3} WAL syncs per measured transaction",
            data.window_syncs() as f64 / all.count().max(1) as f64
        );
    }
    let by_tenth = window::tput_by_part(&window::measured(&data.answered, data.window), 10);
    let by_tenth: Vec<String> = by_tenth.iter().map(|t| format!("{t:.0}")).collect();
    println!(
        "  wall txns/s by tenth of the window: {}",
        by_tenth.join(" ")
    );
    vec![
        ("setup_s", quiet_s(data.setup_s, data.setup_stolen_s)),
        ("commit_tput", all.count() as f64 / data.quiet_window_s()),
        ("peak_rss_mb", data.peak_rss_kb as f64 / 1024.0),
    ]
}

/// The untraced run: the only source of end-to-end metrics.
fn run_untraced(spec: &Spec, seed: u64, seconds: u64, started: Start) -> Result<Outcome, String> {
    let (scripts, _) = workload::scripts(spec, seed, spec.script_len(seconds));
    let scripts = Arc::new(scripts);
    let done = execute(spec, seed, &scripts, false, started)?;
    let outcome = done.outcome(&scripts, end_to_end(&done.data, &scripts));
    // The traced run compares its throughput against this one.
    let saved = format!("{{\"seconds\": {seconds}, {}", &outcome.to_json()[1..]);
    let _ = std::fs::write(out_dir().join(format!("{}.e2e.json", spec.name)), saved);
    Ok(outcome)
}

/// `commit_tput` of the last untraced run of this workload at this length,
/// if one left its result behind.
fn saved_untraced_tput(spec: &Spec, seconds: u64) -> Option<f64> {
    let line = std::fs::read_to_string(out_dir().join(format!("{}.e2e.json", spec.name))).ok()?;
    (metrics::field_in(&line, "seconds")? == seconds.to_string()
        && metrics::field_in(&line, "correct")? == "true")
        .then(|| metrics::metric_in(&line, "commit_tput"))?
}

/// The traced run plus the layer replay: the per-layer metrics.
fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    started: Start,
) -> Result<Outcome, String> {
    let untraced_tput = match saved_untraced_tput(spec, seconds) {
        Some(t) => t,
        None => {
            println!(
                "no untraced result for {} at {seconds} s yet: running one first",
                spec.name
            );
            let o = run_untraced(spec, seed, seconds, Start::now())?;
            o.metrics
                .iter()
                .find(|(n, _)| *n == "commit_tput")
                .map_or(0.0, |(_, v)| *v)
        }
    };
    let (scripts, gen_s) = workload::scripts(spec, seed, spec.script_len(seconds));
    let scripts = Arc::new(scripts);
    let done = execute(spec, seed, &scripts, true, started)?;
    let (spans, frames) = done.spans.as_ref().expect("traced run collects spans");

    let apply = replay::apply_replay(spec, seed, &scripts);
    let (codec_us_per_frame, mean_frame) = replay::codec_us_per_frame(frames);
    let mut sizes: Vec<usize> = frames.iter().map(span::frame_len).collect();
    sizes.sort_unstable();
    let median_frame = sizes.get(sizes.len() / 2).copied().unwrap_or(64);
    let hop_us = replay::tcpnet_hop_us(median_frame, seed);
    let wal = if spec.wal {
        replay::wal_replay(
            &scratch.join(format!("shadowdb-replay-{}-0", std::process::id())),
            &scripts,
        )
    } else {
        (0.0, 0.0)
    };
    println!(
        "  {:?}; {} spans, {} sampled frames (mean {mean_frame:.0} B, median {median_frame} B)",
        spec.mode,
        spans.len(),
        frames.len()
    );

    let input = budget::BudgetInput {
        spec,
        deployed: &done.deployed,
        data: &done.data,
        scripts: &scripts,
        spans,
        apply: &apply,
        codec_us_per_frame,
        hop_us,
        wal,
        gen_s,
        untraced_tput,
    };
    let metrics = budget::layer_metrics(&input);
    let spans_path = out_dir().join(format!("{}.spans.jsonl", spec.name));
    budget::write_spans(&spans_path, &done.deployed, &done.data, spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    Ok(done.outcome(&scripts, metrics))
}

fn real_main(started: Start) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = parse(&args).map_err(|e| format!("{e}\n{}", usage()))?;
    let scratch = Scratch::claim().map_err(|e| format!("{}: {e}", out_dir().display()))?;
    match cmd {
        Command::Calibrate { runs, seconds } => {
            calibrate::calibrate(runs, seconds)?;
            Ok(true)
        }
        Command::Run {
            spec,
            seed,
            seconds,
            trace,
        } => {
            let fs = storage_fs(&scratch.0, spec)?;
            println!(
                "{} seed {seed}: {} clients x {} transactions ({} warm-up), {} shard threads, storage on {fs}",
                spec.name,
                spec.clients,
                spec.script_len(seconds),
                spec.warmup,
                shards()
            );
            let outcome = if trace {
                run_traced(spec, seed, seconds, &scratch.0, started)?
            } else {
                run_untraced(spec, seed, seconds, started)?
            };
            outcome.print_table();
            println!("{}", outcome.to_json());
            Ok(outcome.correct)
        }
    }
}

fn main() {
    let started = Start::now();
    // Unwinding (not aborting) on a panic lets `Scratch` and the runtime's
    // own drop remove the storage roots before the process exits.
    let code = match std::panic::catch_unwind(|| real_main(started)) {
        Ok(Ok(true)) => 0,
        Ok(Ok(false)) => 1,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            2
        }
        Err(_) => 3,
    };
    std::process::exit(code);
}
