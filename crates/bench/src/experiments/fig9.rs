//! Fig. 9: ShadowDB against standalone and lock-coupled replicated
//! databases — latency vs committed transactions/s.
//!
//! **(a), the micro-benchmark.** "We increase the load imposed on the
//! system by varying the number of clients between 1 and 32, each
//! submitting 35,000 update transactions. These transactions deposit money
//! on a randomly selected account. Rows are 16 bytes in length and the
//! database contains 50,000 rows."
//!
//! Paper anchors: H2 standalone fastest (≈6 400 txns/s); ShadowDB-PBR
//! ≈4 600 txns/s (72 % of standalone, best replicated); MySQL replication
//! peaks at 3 900 then declines; H2 replication saturates early on table
//! locks; ShadowDB-SMR ≈760 txns/s (co-located Paxos competes for CPU).
//!
//! **(b), TPC-C.** "In Figure 9(b) the same databases are compared using
//! the TPC-C benchmark configured with 1 warehouse. We report the average
//! transaction execution latency, considering all five TPC-C transaction
//! types, as a function of the load. Experiments consist of between 1 and
//! 10 clients, each submitting 3,000 TPC-C transactions."
//!
//! Paper anchors: ShadowDB-PBR ≈550 txns/s (66 % of standalone H2 ≈830);
//! ShadowDB-SMR ≈526 txns/s — "similar maximum throughput", the paper's
//! headline; MySQL replication lower; H2 replication collapses at 62
//! txns/s (omitted from the paper's graph).

use crate::baselines::{self, LockCoupledReplServer, LockCoupling, StandaloneServer};
use crate::measure::{steady_state, Point};
use crate::scenario::{bank_options, run_to_completion};
use crate::{full_scale, output, scaled};
use shadowdb::deploy::DeployOptions;
use shadowdb::pbr::PbrOptions;
use shadowdb_eventml::Process;
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_tob::ExecutionMode;
use shadowdb_workloads::tpcc::{self, TpccGen, TpccScale};
use shadowdb_workloads::{bank, TxnRequest};
use std::io::{self, Write};
use std::time::Duration;

/// What the two sub-figures differ in; every system of a figure is
/// measured by the same runners below.
struct Workload {
    /// Simulation seed of every point.
    seed: u64,
    /// Replica-side delivery-notification handling cost, in µs (see
    /// [`crate::cost::ShadowDbCost`]).
    deliver_us: u64,
    client_counts: &'static [usize],
    /// The deployment of `n` clients each submitting `txns` transactions.
    options: fn(n: usize, txns: usize) -> DeployOptions,
}

impl Workload {
    fn sweep(&self, point: impl Fn(usize) -> Point) -> Vec<Point> {
        self.client_counts.iter().map(|&n| point(n)).collect()
    }

    /// ShadowDB-PBR, its broadcast service interpreted as in the paper.
    fn pbr(&self, txns: usize) -> Vec<Point> {
        self.sweep(|n| {
            let options = DeployOptions {
                mode: ExecutionMode::InterpretedOpt,
                ..(self.options)(n, txns)
            };
            let pbr = Some(PbrOptions::default());
            let stats = run_to_completion(self.seed, &options, pbr, Some(self.deliver_us));
            steady_state(&stats, true)
        })
    }

    /// ShadowDB-SMR over the compiled broadcast service — at window 1,
    /// the stop-and-wait batching service `tob::mode`'s costs were
    /// calibrated against, since SMR's peak *is* the saturated service.
    fn smr(&self, txns: usize) -> Vec<Point> {
        self.sweep(|n| {
            let options = DeployOptions {
                window: Some(1),
                ..(self.options)(n, txns)
            };
            let stats = run_to_completion(self.seed, &options, None, Some(self.deliver_us));
            steady_state(&stats, true)
        })
    }

    /// One of the non-ShadowDB systems: the same clients against a single
    /// baseline server process.
    fn single(&self, txns: usize, server: impl Fn() -> Box<dyn Process>) -> Vec<Point> {
        self.sweep(|n| {
            let client_txns = (self.options)(n, txns).client_txns;
            steady_state(&baselines::drive(self.seed, n, client_txns, server()), true)
        })
    }
}

/// A figure's curves in print order: (system, points, paper anchor).
type Curves = Vec<(&'static str, Vec<Point>, &'static str)>;

fn write_curves(out: &mut dyn Write, curves: &Curves) -> io::Result<()> {
    for (name, points, anchor) in curves {
        output::series(out, name, points)?;
        output::kv(out, "anchor", anchor)?;
    }
    writeln!(out)
}

fn peak(curves: &Curves, system: &str) -> f64 {
    let (_, points, _) = curves
        .iter()
        .find(|(name, ..)| *name == system)
        .expect("curve present");
    points.iter().map(|p| p.throughput).fold(0.0, f64::max)
}

const BANK_ROWS: usize = 50_000;

fn bank_db() -> Database {
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, BANK_ROWS).expect("loads");
    db
}

/// Fig. 9(a).
pub fn fig9a(out: &mut dyn Write) -> io::Result<()> {
    let w = Workload {
        seed: 9,
        deliver_us: 400,
        client_counts: &[1, 2, 4, 8, 16, 24, 32],
        options: |n, txns| bank_options(BANK_ROWS, n, txns, 7_000),
    };
    let txns = scaled(35_000, 20);
    output::kv(out, "transactions per client", txns)?;

    let lock_coupled = |coupling: LockCoupling| {
        move || Box::new(LockCoupledReplServer::new(bank_db(), coupling)) as Box<dyn Process>
    };
    let curves: Curves = vec![
        (
            "ShadowDB-PBR",
            w.pbr(txns),
            "paper: ≈4,600 txns/s max (72% of standalone H2)",
        ),
        ("ShadowDB-SMR", w.smr(txns), "paper: ≈760 txns/s max"),
        (
            "H2-repl.",
            w.single(txns, lock_coupled(LockCoupling::h2_replication())),
            "paper: early flat saturation, lock timeouts",
        ),
        (
            "MySQL-repl.",
            w.single(txns, lock_coupled(LockCoupling::mysql_replication())),
            "paper: ≈3,900 txns/s peak, then declining",
        ),
        (
            "H2-stdalone",
            w.single(txns, || Box::new(StandaloneServer::new(bank_db()))),
            "paper: ≈6,400 txns/s max",
        ),
    ];
    write_curves(out, &curves)?;

    // The headline orderings of the figure.
    let (pbr, smr) = (peak(&curves, "ShadowDB-PBR"), peak(&curves, "ShadowDB-SMR"));
    let ratio = pbr / peak(&curves, "H2-stdalone");
    output::kv(out, "PBR / standalone peak ratio", format!("{ratio:.2}"))?;
    output::kv(out, "SMR peak", format!("{smr:.0} txns/s"))
}

fn tpcc_scale() -> TpccScale {
    if full_scale() {
        TpccScale::full()
    } else {
        // A quarter-size warehouse keeps the default run under a minute.
        TpccScale {
            districts: 10,
            customers_per_district: 750,
            items: 25_000,
            orders_per_district: 750,
        }
    }
}

fn tpcc_db(profile: EngineProfile) -> Database {
    let db = Database::new(profile);
    tpcc::load(&db, &tpcc_scale(), 1).expect("loads");
    db
}

/// Fig. 9(b).
pub fn fig9b(out: &mut dyn Write) -> io::Result<()> {
    let w = Workload {
        seed: 19,
        deliver_us: 60, // notification handling is small next to TPC-C execution
        client_counts: &[1, 2, 4, 7, 10],
        options: |n, txns| {
            DeployOptions::new(
                n,
                move |client| {
                    let mut g = TpccGen::new(40 + client as u64, tpcc_scale(), client as u64 + 1);
                    (0..txns).map(|_| TxnRequest::Tpcc(g.next_txn())).collect()
                },
                |db| tpcc::load(db, &tpcc_scale(), 1).expect("loads"),
            )
        },
    };
    let txns = scaled(3_000, 10);
    output::kv(out, "transactions per client", txns)?;
    output::kv(out, "warehouse rows", tpcc_scale().total_rows())?;

    let lock_coupled = |profile: fn() -> EngineProfile, coupling: LockCoupling| {
        move || {
            Box::new(LockCoupledReplServer::new(tpcc_db(profile()), coupling)) as Box<dyn Process>
        }
    };
    // MySQL runs InnoDB for TPC-C (row locks; "the memory engine provides
    // lower performance than InnoDB" here).
    let mysql = LockCoupling {
        hold: Duration::from_micros(2_300),
        lock_timeout: Duration::from_millis(500),
        contention_slowdown: Duration::from_micros(30),
    };
    let h2 = LockCoupling {
        hold: Duration::from_micros(16_000),
        lock_timeout: Duration::from_millis(100),
        contention_slowdown: Duration::ZERO,
    };
    let curves: Curves = vec![
        (
            "ShadowDB-PBR",
            w.pbr(txns),
            "paper: ≈550 txns/s max (66% of standalone H2)",
        ),
        (
            "ShadowDB-SMR",
            w.smr(txns),
            "paper: ≈526 txns/s max — similar to PBR",
        ),
        (
            "MySQL-repl. (InnoDB)",
            w.single(txns, lock_coupled(EngineProfile::innodb, mysql)),
            "paper: below both ShadowDB variants",
        ),
        (
            "H2-repl.",
            w.single(txns, lock_coupled(EngineProfile::h2, h2)),
            "paper: 62 txns/s max, omitted from the graph",
        ),
        (
            "H2-stdalone",
            w.single(txns, || {
                Box::new(StandaloneServer::new(tpcc_db(EngineProfile::h2())))
            }),
            "paper: ≈830 txns/s max",
        ),
    ];
    write_curves(out, &curves)?;

    let (pbr, smr) = (peak(&curves, "ShadowDB-PBR"), peak(&curves, "ShadowDB-SMR"));
    let ratio = pbr / peak(&curves, "H2-stdalone");
    output::kv(out, "PBR / standalone peak ratio", format!("{ratio:.2}"))?;
    output::kv(
        out,
        "SMR / PBR peak ratio (the paper's headline: ≈0.96)",
        format!("{:.2}", smr / pbr),
    )
}
