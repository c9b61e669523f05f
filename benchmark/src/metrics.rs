//! The metric tables — the same names, units and directions as
//! `BENCHMARK.json` (a test holds the two together) — and the one-line
//! JSON result the driver reads.

/// `(name, unit, better, bound)`: what a user of the system sees. Measured
/// with tracing off.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("setup_s", "s", "lower", 0.25),
    ("commit_tput", "txns/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// `(name, unit, better)`: one layer each, from the traced run and the
/// layer replay. README.md says which end-to-end metric each should move.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("client.busy_us_per_txn", "us", "lower"),
    ("client.commit_tput_wall", "txns/s", "higher"),
    ("client.commit_p50_ms", "ms", "lower"),
    ("client.commit_p99_ms", "ms", "lower"),
    ("client.commit_p999_ms", "ms", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.update_p50_ms", "ms", "lower"),
    ("client.resends", "count", "lower"),
    ("client.redirects", "count", "lower"),
    ("client.tput_last_over_first", "ratio", "higher"),
    ("client.wait_frac", "ratio", "lower"),
    ("tcpnet.frames_per_txn", "count", "lower"),
    ("tcpnet.bytes_per_txn", "B", "lower"),
    ("tcpnet.hop_us", "us", "lower"),
    ("eventml.codec_us_per_txn", "us", "lower"),
    ("tob.busy_us_per_txn", "us", "lower"),
    ("tob.steps_per_txn", "count", "lower"),
    ("tob.txns_per_slot", "count", "higher"),
    ("consensus.busy_us_per_txn", "us", "lower"),
    ("consensus.steps_per_txn", "count", "lower"),
    ("consensus.replica_busy_us_per_txn", "us", "lower"),
    ("consensus.leader_busy_us_per_txn", "us", "lower"),
    ("consensus.acceptor_busy_us_per_txn", "us", "lower"),
    ("consensus.busy_last_over_first", "ratio", "lower"),
    ("core.replica_busy_us_per_txn", "us", "lower"),
    ("core.replica_steps_per_txn", "count", "lower"),
    ("core.primary_busy_share", "ratio", "lower"),
    ("core.replica_step_max_ms", "ms", "lower"),
    ("core.protocol_us_per_txn", "us", "lower"),
    ("core.fast_reads_frac", "ratio", "higher"),
    ("core.replication_overhead_x", "x", "lower"),
    ("sqldb.apply_us_per_txn", "us", "lower"),
    ("sqldb.apply_grouped_us_per_txn", "us", "lower"),
    ("sqldb.apply_last_over_first", "ratio", "lower"),
    ("sqldb.load_s", "s", "lower"),
    ("wal.syncs_per_txn", "count", "lower"),
    ("wal.append_commit_us_per_txn", "us", "lower"),
    ("wal.bytes_per_txn", "B", "lower"),
    ("workloads.gen_us_per_txn", "us", "lower"),
    ("workloads.aborted_by_design", "count", "lower"),
    ("process.cpu_ms_per_txn", "ms", "lower"),
    ("process.rss_kb_per_txn", "KB", "lower"),
    ("process.shard_busy_max_share", "ratio", "lower"),
    ("process.runtime_us_per_txn", "us", "lower"),
    ("process.stolen_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans_per_txn", "count", "lower"),
];

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's table, in order.
    pub metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// A JSON number: every digit `f64` holds; non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Outcome {
    /// The driver's result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    num(*v),
                    unit_of(n)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `name value unit` line per metric, for people.
    pub fn print_table(&self) {
        for (n, v) in &self.metrics {
            println!("  {n:<38} {v:>16.4} {}", unit_of(n));
        }
    }
}

/// Reads `"<name>": {"value": <number>` back out of a result line.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Reads a top-level `"<name>": <scalar>` back out of a result line.
pub fn field_in<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: vec![
                ("setup_s", 0.8127),
                ("client.commit_p50_ms", 1.2034),
                ("peak_rss_mb", f64::NAN),
            ],
        };
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert_eq!(metric_in(&line, "client.commit_p50_ms"), Some(1.2034));
        assert_eq!(metric_in(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(metric_in(&line, "absent"), None);
        assert_eq!(field_in(&line, "correct"), Some("true"));
        assert_eq!(field_in(&line, "failed"), Some("0"));
    }

    /// `BENCHMARK.json` must name exactly these metrics with these units,
    /// directions and bounds, and exactly these workloads.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::workload::WORKLOADS.len()
        );
        for w in &crate::workload::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
        let secs = format!("\"run_seconds\": {}", crate::workload::RUN_SECONDS);
        assert!(json.contains(&secs), "run_seconds differs from RUN_SECONDS");
    }
}
