//! Bounded index ranges and one-end reads return exactly what a full scan
//! plus the filter returns.
//!
//! Each case is a random table `t (a, b, v)` — primary key `(a, b)`, a
//! secondary index on `(a, v)`, NULLs allowed in `b` and `v` — and a
//! predicate pinning `a` and bounding `b` (a primary-key range) or `v`
//! (a secondary-index range) with `<`, `<=`, `>`, `>=` against INT, REAL
//! and NULL literals. Every query runs twice: as written, which the
//! planner serves from the range, and with `+ 0` on each column, which no
//! index can serve, so it scans. Rows, `MIN`/`MAX` of the range column,
//! and `ORDER BY` it with `LIMIT` must agree. A broken double — a range
//! that takes its strict bound as inclusive and never re-checks it —
//! shows the harness tells the difference.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use shadowdb_sqldb::{Database, EngineProfile, ResultSet, SqlValue};

#[derive(Clone, Copy, Debug)]
enum Lit {
    Int(i64),
    /// `k.5`: a REAL bound between two INT keys.
    Half(i64),
    Null,
}

impl Lit {
    fn sql(self) -> String {
        match self {
            Lit::Int(k) => k.to_string(),
            Lit::Half(k) => format!("{k}.5"),
            Lit::Null => "NULL".into(),
        }
    }
}

#[derive(Clone, Debug)]
struct Case {
    rows: Vec<(i64, Option<i64>, Option<i64>)>,
    a: i64,
    /// Bound `v` (secondary index) instead of `b` (primary key).
    on_v: bool,
    bounds: Vec<(&'static str, Lit)>,
    limit: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    // One value in ten is NULL; bounds are INT 6/10, REAL 3/10, NULL 1/10.
    // Keys are dense enough that a bound usually lands on a row.
    let value = || (0u8..10, -1i64..9).prop_map(|(z, v)| (z > 0).then_some(v));
    let lit = (0u8..10, -2i64..10).prop_map(|(kind, k)| match kind {
        0 => Lit::Null,
        1..=3 => Lit::Half(k),
        _ => Lit::Int(k),
    });
    let op = prop_oneof![Just(">"), Just(">="), Just("<"), Just("<=")];
    (
        proptest::collection::vec((0i64..3, value(), value()), 0..60),
        0i64..3,
        any::<bool>(),
        proptest::collection::vec((op, lit), 1..3),
        1usize..4,
    )
        .prop_map(|(rows, a, on_v, bounds, limit)| Case {
            rows,
            a,
            on_v,
            bounds,
            limit,
        })
}

fn seeded(seed: u64) -> Case {
    arb_case().new_value(&mut TestRng::from_seed(seed))
}

fn load(case: &Case) -> Database {
    let db = Database::new(EngineProfile::h2());
    db.execute("CREATE TABLE t (a INT, b INT, v INT, PRIMARY KEY (a, b))")
        .expect("ddl");
    db.execute("CREATE INDEX by_av ON t (a, v)").expect("ddl");
    let sql = |x: Option<i64>| x.map_or("NULL".into(), |x| x.to_string());
    for (a, b, v) in &case.rows {
        // Duplicate keys are refused, which is fine: the table is random.
        let _ = db.execute(&format!(
            "INSERT INTO t VALUES ({a}, {}, {})",
            sql(*b),
            sql(*v)
        ));
    }
    db
}

/// What a run of the harness reached, so the tests can require it reached
/// every case the equivalence is claimed over.
#[derive(Debug, Default)]
struct Coverage {
    /// A strict bound with a row sitting exactly on it.
    strict_on_a_row: usize,
    /// A range that matched nothing in a non-empty table.
    empty_ranges: usize,
    /// A NULL bound.
    null_bounds: usize,
    /// A REAL bound over the INT column.
    real_bounds: usize,
    /// A range column holding NULLs in the pinned prefix.
    null_keys: usize,
}

/// Runs each query of `case` through `indexed` and as a scan, and reports
/// the first disagreement.
fn check(case: &Case, indexed: impl Fn(&Database, &str) -> ResultSet) -> Result<Coverage, String> {
    let db = load(case);
    let col = if case.on_v { "v" } else { "b" };
    let pred = |scan: bool| {
        let z = if scan { " + 0" } else { "" };
        let mut p = format!("a{z} = {}", case.a);
        for (op, lit) in &case.bounds {
            p.push_str(&format!(" AND {col}{z} {op} {}", lit.sql()));
        }
        p
    };
    let n = case.limit;
    let queries = [
        "SELECT a, b, v FROM t WHERE {}".to_string(),
        format!("SELECT MIN({col}) FROM t WHERE {{}}"),
        format!("SELECT MAX({col}) FROM t WHERE {{}}"),
        format!("SELECT a, b, v FROM t WHERE {{}} ORDER BY {col} LIMIT {n}"),
        format!("SELECT a, b, v FROM t WHERE {{}} ORDER BY {col} DESC LIMIT {n}"),
    ];
    for (i, q) in queries.iter().enumerate() {
        let fast = q.replace("{}", &pred(false));
        let scan = q.replace("{}", &pred(true));
        let mut got = indexed(&db, &fast).rows;
        let (mut want, _) = db.execute_read_only(&scan).map_err(|e| e.to_string())?;
        if i == 0 {
            // Unordered: a range walks key order, a scan heap order.
            // Ordered queries compare exactly — ties on `v` keep heap
            // order on both sides.
            got.sort();
            want.rows.sort();
        }
        if got != want.rows {
            return Err(format!(
                "{fast}\n  range: {got:?}\n  scan:  {:?}",
                want.rows
            ));
        }
    }
    let (rows, _) = db
        .execute_read_only(&format!("SELECT {col} FROM t WHERE a = {}", case.a))
        .map_err(|e| e.to_string())?;
    let keys: Vec<&SqlValue> = rows.rows.iter().map(|r| &r[0]).collect();
    let (matched, _) = db
        .execute_read_only(&format!("SELECT a FROM t WHERE {}", pred(false)))
        .map_err(|e| e.to_string())?;
    let on_a_row = |lit: &Lit| match lit {
        Lit::Int(k) => keys.contains(&&SqlValue::Int(*k)),
        _ => false,
    };
    let mut c = Coverage::default();
    for (op, lit) in &case.bounds {
        c.strict_on_a_row += usize::from(op.len() == 1 && on_a_row(lit));
        c.null_bounds += usize::from(matches!(lit, Lit::Null));
        c.real_bounds += usize::from(matches!(lit, Lit::Half(_)));
    }
    c.empty_ranges = usize::from(!keys.is_empty() && matched.rows.is_empty());
    c.null_keys = usize::from(keys.iter().any(|k| k.is_null()));
    Ok(c)
}

fn shipped(db: &Database, sql: &str) -> ResultSet {
    db.execute(sql).expect("runs")
}

/// The broken double: a range that takes `>` as `>=` and `<` as `<=` and
/// never re-checks the bound — observably, the query it answers.
fn drops_the_strict_bound(db: &Database, sql: &str) -> ResultSet {
    db.execute(&sql.replace(" > ", " >= ").replace(" < ", " <= "))
        .expect("runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Range and one-end reads equal a full scan plus the filter.
    #[test]
    fn ranges_and_one_end_reads_match_a_full_scan(case in arb_case()) {
        if let Err(divergence) = check(&case, shipped) {
            return Err(TestCaseError::fail(divergence));
        }
    }
}

/// The generated cases reach every situation the equivalence is claimed
/// over.
#[test]
fn equivalence_cases_cover_every_situation() {
    let mut total = Coverage::default();
    for seed in 0..128 {
        let c = check(&seeded(seed), shipped).expect("equal");
        total.strict_on_a_row += c.strict_on_a_row;
        total.empty_ranges += c.empty_ranges;
        total.null_bounds += c.null_bounds;
        total.real_bounds += c.real_bounds;
        total.null_keys += c.null_keys;
    }
    let Coverage {
        strict_on_a_row,
        empty_ranges,
        null_bounds,
        real_bounds,
        null_keys,
    } = total;
    for (what, n) in [
        ("strict bound on a row", strict_on_a_row),
        ("empty range", empty_ranges),
        ("NULL bound", null_bounds),
        ("REAL bound", real_bounds),
        ("NULL in the range column", null_keys),
    ] {
        assert!(n >= 8, "{what}: only {n} over 128 cases");
    }
}

/// The same harness must tell a range that drops its strict bound from
/// the real one, or passing it proves nothing: the double must be caught
/// in most cases where a strict bound sits on a row (the others bound the
/// row out again).
#[test]
fn a_range_that_drops_the_strict_bound_is_caught() {
    let (mut targeted, mut caught) = (0, 0);
    for seed in 0..128 {
        let case = seeded(seed);
        let c = check(&case, shipped).expect("equal");
        targeted += usize::from(c.strict_on_a_row > 0);
        caught += usize::from(check(&case, drops_the_strict_bound).is_err());
    }
    assert!(
        caught >= 8 && 2 * caught >= targeted,
        "caught on {caught} of 128 cases, {targeted} with a strict bound on a row"
    );
}
