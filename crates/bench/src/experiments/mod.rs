//! The experiments, one module per table, figure or ablation (Fig. 9's two
//! sub-figures share one), and the registry the runner looks names up in.

pub mod ablation_batching;
pub mod ablation_locking;
pub mod ablation_net;
pub mod ablation_overlap;
pub mod ablation_reads;
pub mod ablation_reconfig;
pub mod ablation_shards;
pub mod ablation_wal;
pub mod ablation_window;
pub mod ablation_xferbatch;
pub mod fig10a;
pub mod fig10b;
pub mod fig8;
pub mod fig9;
pub mod table1;

use std::io::{self, Write};

/// One registered experiment.
pub struct Experiment {
    /// The name on the command line and of `results/<name>.txt`.
    pub name: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// What of the paper it reproduces.
    pub paper: &'static str,
    /// Whether the output is a pure function of the code (virtual time,
    /// fixed seeds). Deterministic experiments have a checked-in
    /// `results/<name>.txt` that CI regenerates and diffs; the others
    /// measure this host's clock, threads or disk.
    pub deterministic: bool,
    /// Runs it, writing the tables to `out`.
    pub run: fn(&mut dyn Write) -> io::Result<()>,
}

impl Experiment {
    /// Writes the banner, then runs the experiment.
    pub fn write(&self, out: &mut dyn Write) -> io::Result<()> {
        crate::output::banner(out, self.title, self.paper)?;
        (self.run)(out)
    }
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "Table I — specification and program sizes",
        paper: "Table I of the paper",
        deterministic: true,
        run: table1::report,
    },
    Experiment {
        name: "fig8",
        title: "Fig. 8 — broadcast service latency vs delivered messages/s",
        paper: "Fig. 8 (Sec. IV-A): Paxos, 3 machines, f = 1, 140 B payloads, batching on",
        deterministic: true,
        run: fig8::report,
    },
    Experiment {
        name: "fig9a",
        title: "Fig. 9(a) — micro-benchmark latency vs committed txns/s",
        paper: "Fig. 9(a) (Sec. IV-B): deposits on 50,000 16-byte rows, 1–32 clients",
        deterministic: true,
        run: fig9::fig9a,
    },
    Experiment {
        name: "fig9b",
        title: "Fig. 9(b) — TPC-C latency vs committed txns/s",
        paper: "Fig. 9(b) (Sec. IV-B): 1 warehouse, all five transaction types, 1–10 clients",
        deterministic: true,
        run: fig9::fig9b,
    },
    Experiment {
        name: "fig10a",
        title: "Fig. 10(a) — ShadowDB-PBR throughput across a primary crash",
        paper: "Fig. 10(a) (Sec. IV-B): 10 clients; H2 primary, HSQLDB backup, Derby spare",
        deterministic: true,
        run: fig10a::report,
    },
    Experiment {
        name: "fig10b",
        title: "Fig. 10(b) — state transfer time vs database size",
        paper: "Fig. 10(b) (Sec. IV-B): ~50 KB batches, insertion-bound",
        deterministic: true,
        run: fig10b::report,
    },
    Experiment {
        name: "ablation_batching",
        title: "Ablation — broadcast-service batching",
        paper: "the batching design choice of Sec. IV-A",
        deterministic: true,
        run: ablation_batching::report,
    },
    Experiment {
        name: "ablation_window",
        title: "Ablation — slot-window pipelining × batching",
        paper: "the concurrent-slot design of Paxos Made Moderately Complex",
        deterministic: true,
        run: ablation_window::report,
    },
    Experiment {
        name: "ablation_overlap",
        title: "Ablation — overlapped state transfer",
        paper: "the Sec. III-A recovery optimization",
        deterministic: true,
        run: ablation_overlap::report,
    },
    Experiment {
        name: "ablation_xferbatch",
        title: "Ablation — state-transfer batch size",
        paper: "the ~50 KB batch choice of Sec. IV-B",
        deterministic: true,
        run: ablation_xferbatch::report,
    },
    Experiment {
        name: "ablation_reconfig",
        title: "Ablation — online replacement: batch size × concurrent load",
        paper: "Sec. IV-B's ~50 KB transfer batches under Sec. III-A's overlapped recovery",
        deterministic: true,
        run: ablation_reconfig::report,
    },
    Experiment {
        name: "ablation_shards",
        title: "Ablation — replica groups × clients × cross-shard fraction",
        paper: "horizontal sharding with deterministic 2PC-over-TOB",
        deterministic: true,
        run: ablation_shards::report,
    },
    Experiment {
        name: "ablation_reads",
        title: "Ablation — lease read fast path × read fraction",
        paper: "linearizable reads without the ordering round (PBR acks / SMR TOB)",
        deterministic: true,
        run: ablation_reads::report,
    },
    Experiment {
        name: "ablation_locking",
        title: "Ablation — table vs row locking under real concurrency",
        paper: "the contention mechanism behind Fig. 9(a)'s baselines",
        deterministic: false,
        run: ablation_locking::report,
    },
    Experiment {
        name: "ablation_wal",
        title: "Ablation — WAL durability: fsync batch size × snapshot interval",
        paper: "the durability plane's group commit and log-truncation knobs",
        deterministic: false,
        run: ablation_wal::report,
    },
    Experiment {
        name: "ablation_net",
        title: "Ablation — connections × pipelining over the TCP event loop",
        paper: "thread-per-core shards, zero-copy frame decode",
        deterministic: false,
        run: ablation_net::report,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    /// `results/` is exactly the deterministic experiments: CI diffs every
    /// file there against a fresh run, so a deterministic experiment
    /// without a file is unguarded and a file without one cannot be
    /// regenerated.
    #[test]
    fn results_hold_exactly_the_deterministic_experiments() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let checked_in: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/ readable")
            .map(|f| f.expect("entry").file_name().into_string().expect("utf-8"))
            .filter_map(|f| f.strip_suffix(".txt").map(str::to_owned))
            .collect();
        let deterministic: BTreeSet<String> = EXPERIMENTS
            .iter()
            .filter(|e| e.deterministic)
            .map(|e| e.name.to_owned())
            .collect();
        assert_eq!(checked_in, deterministic);
    }
}
