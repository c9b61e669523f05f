//! What a PBR backup saves by applying a transaction's effects instead of
//! running it: replays the wall-clock benchmark's `pbr_tpcc` and
//! `pbr_bank_wal` scripts standalone — the scripts `benchmark/src/
//! workload.rs` makes for a seed, round-robin over its clients, one
//! transaction at a time — on one H2-profile database that executes each
//! transaction and captures its effects, and on a second that only
//! applies them. Prints, per procedure, the mean wall-clock µs of execute
//! (begin, run, commit), capture (`Transaction::effects_since`) and apply
//! (`Database::apply_effects`), the mean effect bytes, the ratio apply /
//! execute, and the encoded size of a PBR log record (`<WREC_TXN,
//! envelope>`) holding the request itself and holding it applied; the two
//! databases are compared at the end.
//!
//! `cargo run --release -p shadowdb-bench --bin effects_replay -- [seed] [txns per client]`
//! (defaults: seed 1 and the benchmark's full script, 6 400 TPC-C and
//! 4 300 bank transactions per client).

use shadowdb::msgs::TxnEnvelope;
use shadowdb_eventml::codec::encoded_len;
use shadowdb_eventml::Value;
use shadowdb_loe::Loc;
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_workloads::tpcc::{self, TpccGen, TpccScale, TpccTxn};
use shadowdb_workloads::{bank, Applied, TxnRequest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64, as the benchmark derives its generator seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `pbr_tpcc` data: one warehouse, 10 × 300 customers, 10 000 items.
const TPCC: TpccScale = TpccScale {
    districts: 10,
    customers_per_district: 300,
    items: 10_000,
    orders_per_district: 300,
};

fn tpcc_scripts(seed: u64, len: usize) -> Vec<Vec<TxnRequest>> {
    (0..4)
        .map(|c| {
            let mut g = TpccGen::new(mix(seed ^ mix(c + 1)), TPCC, c + 1);
            (0..len).map(|_| TxnRequest::Tpcc(g.next_txn())).collect()
        })
        .collect()
}

fn bank_scripts(seed: u64, len: usize) -> Vec<Vec<TxnRequest>> {
    (0..8)
        .map(|c| {
            let mut g = bank::BankGen::new(mix(seed ^ mix(c + 1)), 10_000);
            (0..len).map(|_| g.next_transfer()).collect()
        })
        .collect()
}

fn name(txn: &TxnRequest) -> &'static str {
    match txn {
        TxnRequest::Tpcc(TpccTxn::NewOrder { .. }) => "new_order",
        TxnRequest::Tpcc(TpccTxn::Payment { .. }) => "payment",
        TxnRequest::Tpcc(TpccTxn::OrderStatus { .. }) => "order_status",
        TxnRequest::Tpcc(TpccTxn::Delivery { .. }) => "delivery",
        TxnRequest::Tpcc(TpccTxn::StockLevel { .. }) => "stock_level",
        TxnRequest::BankTransfer { .. } => "bank_transfer",
        _ => "other",
    }
}

#[derive(Default)]
struct Row {
    n: u64,
    execute: Duration,
    capture: Duration,
    apply: Duration,
    bytes: u64,
    record_request: u64,
    record_applied: u64,
}

/// The encoded size of a PBR log record holding `txn`.
fn record_len(txn: TxnRequest) -> u64 {
    let env = TxnEnvelope::new(Loc::new(3), 1_000, txn);
    encoded_len(&Value::pair(Value::Int(0), env.to_value())) as u64
}

fn replay(label: &str, load: impl Fn(&Database), scripts: &[Vec<TxnRequest>]) {
    let (exec, appl) = (
        Database::new(EngineProfile::h2()),
        Database::new(EngineProfile::h2()),
    );
    load(&exec);
    load(&appl);
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    let len = scripts.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..len {
        for txn in scripts.iter().filter_map(|s| s.get(i)) {
            let t0 = Instant::now();
            let mut t = exec.begin().expect("begin");
            let out = txn.apply_in(&mut t).expect("executes");
            let t1 = Instant::now();
            let fx = t.effects_since(0);
            let t2 = Instant::now();
            t.commit().expect("commits");
            let t3 = Instant::now();
            appl.apply_effects([&fx]).expect("applies");
            let t4 = Instant::now();
            let row = rows.entry(name(txn)).or_default();
            row.n += 1;
            row.execute += (t1 - t0) + (t3 - t2);
            row.capture += t2 - t1;
            row.apply += t4 - t3;
            row.bytes += fx.bytes().len() as u64;
            row.record_request += record_len(txn.clone());
            let applied = Applied::new(out.committed, &out.result, &fx);
            row.record_applied += record_len(TxnRequest::Applied(applied));
        }
    }
    assert!(
        exec.snapshot() == appl.snapshot(),
        "{label}: the copies differ"
    );
    let us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    println!("{label}: {len} transactions per client, copies equal");
    println!(
        "  {:<14} {:>7} {:>11} {:>11} {:>9} {:>9} {:>13} {:>15}",
        "procedure",
        "share",
        "execute_us",
        "capture_us",
        "apply_us",
        "bytes",
        "apply/execute",
        "record_B req/ap"
    );
    let total: u64 = rows.values().map(|r| r.n).sum();
    let mut all = Row::default();
    for (name, r) in &rows {
        println!(
            "  {name:<14} {:>6.1}% {:>11.2} {:>11.2} {:>9.2} {:>9.0} {:>13.3} {:>7.0}/{:<7.0}",
            100.0 * r.n as f64 / total as f64,
            us(r.execute, r.n),
            us(r.capture, r.n),
            us(r.apply, r.n),
            r.bytes as f64 / r.n as f64,
            r.apply.as_secs_f64() / r.execute.as_secs_f64(),
            r.record_request as f64 / r.n as f64,
            r.record_applied as f64 / r.n as f64,
        );
        all.n += r.n;
        all.execute += r.execute;
        all.capture += r.capture;
        all.apply += r.apply;
        all.bytes += r.bytes;
        all.record_request += r.record_request;
        all.record_applied += r.record_applied;
    }
    println!(
        "  {:<14} {:>7} {:>11.2} {:>11.2} {:>9.2} {:>9.0} {:>13.3} {:>7.0}/{:<7.0}",
        "per_txn",
        "",
        us(all.execute, all.n),
        us(all.capture, all.n),
        us(all.apply, all.n),
        all.bytes as f64 / all.n as f64,
        all.apply.as_secs_f64() / all.execute.as_secs_f64(),
        all.record_request as f64 / all.n as f64,
        all.record_applied as f64 / all.n as f64,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(1);
    let len: Option<usize> = args.get(1).and_then(|s| s.parse().ok());
    replay(
        "pbr_tpcc",
        |db| tpcc::load(db, &TPCC, mix(seed)).expect("tpcc loads"),
        &tpcc_scripts(seed, len.unwrap_or(6_400)),
    );
    replay(
        "pbr_bank_wal",
        |db| bank::load(db, 10_000).expect("bank loads"),
        &bank_scripts(seed, len.unwrap_or(4_300)),
    );
}
