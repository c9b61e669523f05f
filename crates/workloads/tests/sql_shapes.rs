//! The statement shapes the workloads send, through sqldb's plan cache.
//!
//! A shape is a statement with its literals taken out (`sql::shape`); the
//! engine parses and plans each shape once and binds every execution's
//! literals to the plan. The shapes here are not a hand-kept list: they
//! are what the workloads' own procedures send — bank deposits and
//! transfers, the kv mix of reads and deposits, and the TPC-C mix with
//! remote lines and payments over two warehouses — read back from the
//! cache after running them.
//!
//! * Every TPC-C shape takes a pinned access path.
//! * Over random literals for every shape, `execute` (through the cache)
//!   matches `execute_uncached` (parse and plan every time, the
//!   reference) on rows, affected counts, virtual cost and the tables
//!   left behind. A cache that binds the literals of a shape's first
//!   execution to every later one — stale parameters — is caught.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shadowdb_sqldb::{sql, Database, EngineProfile, ResultSet, SqlError, Transaction};
use shadowdb_workloads::tpcc::{self, TpccGen, TpccScale};
use shadowdb_workloads::{bank, KvGen, KvOptions, TxnRequest};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

const ACCOUNTS: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    /// `bank` and `kv`: the same three statements over `accounts`.
    Bank,
    Tpcc,
}

fn loaded(w: Workload) -> Database {
    let db = Database::new(EngineProfile::h2());
    match w {
        Workload::Bank => bank::load(&db, ACCOUNTS).expect("bank loads"),
        Workload::Tpcc => {
            tpcc::load_warehouses(&db, &TpccScale::small(), 7, &[1, 2]).expect("tpcc loads")
        }
    }
    db
}

/// Each request the way a replica executes it: lock-free when it is a
/// read the fast path serves, ordered otherwise.
fn apply(db: &Database, txns: impl IntoIterator<Item = TxnRequest>) {
    for txn in txns {
        if txn.is_read_only() && txn.apply_read_only(db).is_some() {
            continue;
        }
        txn.apply(db).expect("applies");
    }
}

/// Runs `w`'s procedures on a fresh database and returns it, its cache
/// holding every shape they sent.
fn replayed(w: Workload) -> Database {
    let db = loaded(w);
    match w {
        Workload::Bank => {
            let mut g = bank::BankGen::new(3, ACCOUNTS);
            apply(&db, (0..50).map(|_| g.next_transfer()));
            apply(&db, (0..50).map(|_| g.next_txn()));
            apply(&db, KvGen::new(4, KvOptions::ycsb_b(ACCOUNTS)).script(100));
        }
        Workload::Tpcc => {
            let mut g = TpccGen::new_sharded(5, TpccScale::small(), 1, 1, 2, 30);
            apply(&db, (0..600).map(|_| TxnRequest::Tpcc(g.next_txn())));
        }
    }
    db
}

/// The shapes `w` sends, computed once per test binary.
fn shapes(w: Workload) -> &'static [String] {
    static BANK: OnceLock<Vec<String>> = OnceLock::new();
    static TPCC: OnceLock<Vec<String>> = OnceLock::new();
    let cell = match w {
        Workload::Bank => &BANK,
        Workload::Tpcc => &TPCC,
    };
    cell.get_or_init(|| {
        replayed(w)
            .cached_plans()
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    })
}

#[test]
fn each_tpcc_shape_takes_its_pinned_access_path() {
    let want: &[(&str, Option<&str>)] = &[
        ("INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?)", None),
        ("INSERT INTO new_order VALUES (?, ?, ?)", None),
        ("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, NULL)", None),
        ("INSERT INTO orders VALUES (?, ?, ?, ?, ?, NULL, ?)", None),
        ("SELECT COUNT(*) FROM district WHERE d_w_id = ?", Some("pk(=)")),
        ("SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = ? AND no_d_id = ?", Some("pk(=,=) min")),
        ("SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?", Some("pk(=,=,=)")),
        ("SELECT c_balance FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", Some("pk(=,=,=)")),
        ("SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", Some("pk(=,=)")),
        ("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", Some("pk(=,=)")),
        ("SELECT i_price FROM item WHERE i_id = ?", Some("pk(=)")),
        ("SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?", Some("pk(=,=,=)")),
        ("SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? ORDER BY o_id DESC LIMIT 1", Some("idx_orders_cust(=,=,=)")),
        ("SELECT ol_i_id FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ?", Some("pk(=,=,>=)")),
        ("SELECT ol_i_id, ol_qty, ol_amount FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?", Some("pk(=,=,=)")),
        ("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", Some("pk(=,=)")),
        ("SELECT w_tax FROM warehouse WHERE w_id = ?", Some("pk(=)")),
        ("DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?", Some("pk(=,=,=)")),
        ("UPDATE customer SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", Some("pk(=,=,=)")),
        ("UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", Some("pk(=,=,=)")),
        ("UPDATE district SET d_next_o_id = ? WHERE d_w_id = ? AND d_id = ?", Some("pk(=,=)")),
        ("UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?", Some("pk(=,=)")),
        ("UPDATE order_line SET ol_delivery_d = ? WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?", Some("pk(=,=,=)")),
        ("UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?", Some("pk(=,=,=)")),
        ("UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + ? WHERE s_w_id = ? AND s_i_id = ?", Some("pk(=,=)")),
        ("UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + ?, s_remote_cnt = s_remote_cnt + ? WHERE s_w_id = ? AND s_i_id = ?", Some("pk(=,=)")),
        ("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?", Some("pk(=)")),
    ];
    let mut want: Vec<(String, Option<String>)> = want
        .iter()
        .map(|(s, p)| (s.to_string(), p.map(str::to_owned)))
        .collect();
    want.sort();
    assert_eq!(replayed(Workload::Tpcc).cached_plans(), want);
}

/// One statement in its own transaction: the result, and the virtual
/// time it charged.
fn run(
    db: &Database,
    f: impl FnOnce(&mut Transaction) -> Result<ResultSet, SqlError>,
) -> (Result<ResultSet, SqlError>, Duration) {
    let mut txn = db.begin().expect("begins");
    let r = f(&mut txn);
    let cost = txn.virtual_cost();
    let _ = if r.is_ok() {
        txn.commit()
    } else {
        txn.rollback()
    };
    (r, cost)
}

/// A literal for one `?`: mostly small integers, which land on loaded
/// keys; some larger ones, REALs and a string, which mostly miss or
/// fail — identically on both sides, or the harness says otherwise.
fn literal(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..20) {
        0 => format!("{}.25", rng.gen_range(0..40i64)),
        1 => "'x'".into(),
        2..=5 => rng.gen_range(0..400i64).to_string(),
        _ => rng.gen_range(0..12i64).to_string(),
    }
}

/// Each of `w`'s shapes twice, with random literals, in a random order.
fn statements(w: Workload, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stmts: Vec<(u64, String)> = shapes(w)
        .iter()
        .flat_map(|s| [s, s])
        .map(|shape| {
            let mut sql = String::new();
            let mut pieces = shape.split('?');
            sql.push_str(pieces.next().expect("split yields a first piece"));
            for piece in pieces {
                sql.push_str(&literal(&mut rng));
                sql.push_str(piece);
            }
            (rng.gen_range(0..u64::MAX), sql)
        })
        .collect();
    stmts.sort();
    stmts.into_iter().map(|(_, sql)| sql).collect()
}

/// Runs `stmts` through `cached` on one database and `execute_uncached`
/// on another, and reports the first disagreement.
fn drive(
    w: Workload,
    stmts: &[String],
    mut cached: impl FnMut(&mut Transaction, &str) -> Result<ResultSet, SqlError>,
) -> Result<(), String> {
    let (fast, reference) = (loaded(w), loaded(w));
    for sql in stmts {
        let got = run(&fast, |t| cached(t, sql));
        let want = run(&reference, |t| t.execute_uncached(sql));
        if got != want {
            return Err(format!("{sql}\n  cached:   {got:?}\n  uncached: {want:?}"));
        }
    }
    if fast.snapshot() != reference.snapshot() {
        return Err("the tables differ after the run".into());
    }
    Ok(())
}

fn shipped(txn: &mut Transaction, sql: &str) -> Result<ResultSet, SqlError> {
    txn.execute(sql)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random literals for every shape the workloads send: the cache
    /// answers what parsing and planning from scratch answers.
    #[test]
    fn cached_execution_matches_uncached_for_every_shape(seed in any::<u64>(), tpcc in any::<bool>()) {
        let w = if tpcc { Workload::Tpcc } else { Workload::Bank };
        if let Err(divergence) = drive(w, &statements(w, seed), shipped) {
            return Err(TestCaseError::fail(divergence));
        }
    }
}

#[test]
fn bank_and_kv_send_three_shapes() {
    // A debit, a credit (deposits too), a read.
    let bank = shapes(Workload::Bank);
    assert_eq!(bank.len(), 3, "{bank:?}");
}

/// The broken double: a cache that binds the literals of a shape's first
/// execution to every later one. The same harness must catch it.
#[test]
fn a_cache_binding_stale_parameters_is_caught() {
    for w in [Workload::Bank, Workload::Tpcc] {
        let caught = (0..16)
            .filter(|seed| {
                let mut first: HashMap<String, String> = HashMap::new();
                let stale = |txn: &mut Transaction, sql: &str| {
                    let (shape, _) = sql::shape(sql).expect("workload SQL has a shape");
                    let bound = first.entry(shape).or_insert_with(|| sql.to_owned());
                    txn.execute(bound)
                };
                drive(w, &statements(w, *seed), stale).is_err()
            })
            .count();
        assert!(caught >= 12, "{w:?}: caught on {caught} of 16 runs");
    }
}
