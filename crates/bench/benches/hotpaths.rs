//! Criterion micro-benchmarks of the hot paths, including the ablations
//! DESIGN.md calls out:
//!
//! * `opt_speedup/*` — interpreted vs fused evaluation of the same
//!   specification (the paper's program optimizer is worth "a factor of
//!   two or more");
//! * `consensus/*` — a full Paxos decision round in each of the three
//!   execution modes' programs, all derived from the one Synod description,
//!   and a replica's request + decision steps 50 000 slots into a run;
//! * `tob/*` — one broadcast-service step pair (submission, then the
//!   decision that delivers it) in each mode;
//! * `sqldb/*` — point operations of the SQL engine;
//! * `transfer/*` — state-transfer batch encode/decode.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};
use shadowdb_bench::scenario::{form, SynodRounds, TobSteps};
use shadowdb_consensus::synod;
use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{
    clk, ClassExpr, Ctx, HandlerFn, InterpretedProcess, Msg, Process, SendInstr, UpdateFn, Value,
};
use shadowdb_loe::Loc;
use shadowdb_sqldb::{Database, EngineProfile, RowBatch};
use shadowdb_tob::ExecutionMode;
use shadowdb_workloads::bank;

/// Benchmarks a fresh process from `make` stepped through `msgs`, driven
/// the way the runtimes drive processes: `step_into` with a caller-owned
/// output buffer reused across steps.
fn bench_steps<P: Process>(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    make: impl Fn() -> P,
    msgs: &[Msg],
) {
    g.bench_function(name, |b| {
        b.iter_batched(
            || (make(), Vec::<SendInstr>::new()),
            |(mut p, mut out)| {
                for m in msgs {
                    out.clear();
                    p.step_into(&Ctx::at(Loc::new(0)), m, &mut out);
                }
                (p, out)
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_opt_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("opt_speedup");
    let config = TwoThirdConfig::new(Loc::first_n(3), vec![Loc::new(100)]).with_auto_adopt();
    let class = TwoThird::new(config).class();
    let msgs: Vec<_> = (0..8).map(|i| propose_msg(i, Value::Int(i))).collect();
    bench_steps(
        &mut g,
        "interpreted",
        || InterpretedProcess::compile(&class),
        &msgs,
    );
    bench_steps(&mut g, "fused", || optimize(&class), &msgs);
    // The running example too, for a small-spec data point.
    let clk_class = clk::handler_class(clk::ring_handle(3));
    let clk_msg = [clk::clk_msg(Value::Int(0), 3)];
    bench_steps(
        &mut g,
        "clk_interpreted",
        || InterpretedProcess::compile(&clk_class),
        &clk_msg,
    );
    bench_steps(&mut g, "clk_fused", || optimize(&clk_class), &clk_msg);
    // Where CSE structurally wins: the same stateful subexpression used
    // eight times. The interpreter keeps (and updates) eight copies of the
    // state machine; the optimizer shares one.
    let counter = {
        let inc = UpdateFn::new("inc", 1, |_l, _v, s: &Value| Value::Int(s.int() + 1));
        ClassExpr::base("m").state(Value::Int(0), inc)
    };
    let shared = {
        let h = HandlerFn::new("tuple8", 1, |_l, args: &[Value]| {
            vec![Value::list(args.to_vec())]
        });
        ClassExpr::compose(h, vec![counter; 8])
    };
    let m = [Msg::new("m", Value::Int(1))];
    bench_steps(
        &mut g,
        "shared8_interpreted",
        || InterpretedProcess::compile(&shared),
        &m,
    );
    bench_steps(&mut g, "shared8_fused", || optimize(&shared), &m);
    g.finish();
}

fn bench_consensus(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus");
    for mode in ExecutionMode::ALL {
        g.bench_function(&format!("{}_round", form(mode)), |b| {
            b.iter_batched(
                || SynodRounds::warm(mode),
                |mut synod| {
                    synod.decide(Value::str("cmd"));
                    synod
                },
                BatchSize::LargeInput,
            )
        });
    }
    // Stationarity: the compiled replica after 50 000 slots decided and
    // delivered in order, one fresh request and its decision per iteration.
    let config = synod::SynodConfig::compact(1, vec![Loc::new(100)]);
    let (origin, ctx) = (Loc::new(100), Ctx::at(Loc::new(0)));
    let mut replica = ExecutionMode::Compiled.instantiate(&synod::replica(&config));
    let mut out = Vec::new();
    let mut slot = 0i64;
    let mut request_and_decision = || {
        let cmd = synod::command(origin, slot, Value::str("cmd"));
        let decision = Value::pair(Value::Int(slot), cmd.clone());
        slot += 1;
        out.clear();
        replica.step_into(&ctx, &synod::request_msg(cmd), &mut out);
        replica.step_into(&ctx, &Msg::new(synod::DECISION_HEADER, decision), &mut out);
        out.len()
    };
    for _ in 0..50_000 {
        assert_eq!(request_and_decision(), 2);
    }
    g.bench_function("replica_step_at_50k_slots", |b| {
        b.iter(&mut request_and_decision)
    });
    g.finish();
}

fn bench_tob(c: &mut Criterion) {
    let mut g = c.benchmark_group("tob");
    for mode in ExecutionMode::ALL {
        let mut server = TobSteps::new(mode);
        g.bench_function(&format!("service_step_{}", form(mode)), |b| {
            b.iter(|| server.submit_and_deliver())
        });
    }
    g.finish();
}

fn bench_sqldb(c: &mut Criterion) {
    let mut g = c.benchmark_group("sqldb");
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, 10_000).unwrap();
    let mut i = 0i64;
    g.bench_function("point_update", |b| {
        b.iter(|| {
            i = (i + 7) % 10_000;
            db.execute(&format!(
                "UPDATE accounts SET balance = balance + 1 WHERE id = {i}"
            ))
            .unwrap()
        })
    });
    g.bench_function("point_select", |b| {
        b.iter(|| {
            i = (i + 7) % 10_000;
            db.execute(&format!("SELECT balance FROM accounts WHERE id = {i}"))
                .unwrap()
        })
    });
    g.bench_function("parse_only", |b| {
        b.iter(|| {
            shadowdb_sqldb::sql::parse(
                "SELECT a, b FROM t WHERE x = 3 AND y > 2 ORDER BY b DESC LIMIT 5",
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("transfer");
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, 5_000).unwrap();
    let snap = db.snapshot();
    g.bench_function("snapshot_to_50k_batches", |b| {
        b.iter(|| snap.to_batches(50_000));
    });
    let batches = snap.to_batches(50_000);
    g.bench_function("batch_encode", |b| b.iter(|| batches[0].encode()));
    let wire = batches[0].encode();
    g.bench_function("batch_decode", |b| {
        b.iter(|| RowBatch::decode(wire.clone()).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_opt_speedup,
    bench_consensus,
    bench_tob,
    bench_sqldb,
    bench_transfer
);
criterion_main!(benches);
