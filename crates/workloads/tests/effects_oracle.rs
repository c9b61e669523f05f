//! The effects oracle: applying a transaction's captured effects to a copy
//! of the database leaves it exactly as executing the transaction does,
//! `apply(effects(T)) == execute(T)`.
//!
//! One database executes random runs of bank transfers, kv reads and
//! deposits, TPC-C procedures (NewOrders that roll back to their savepoint
//! on an invalid item, Deliveries that delete from `new_order`) and raw SQL
//! scripts with DDL — `CREATE TABLE`/`INDEX`, `DROP TABLE`, a primary-key
//! change, a failing insert — through `apply_group`, as a PBR primary
//! does. A second database only applies the effects `apply_group` returns,
//! group by group under one transaction each, as its backups do. After
//! every group the two must agree on `Database::snapshot()` (schemas, and
//! rows in row order) and on reads served by secondary indexes
//! (`idx_orders_cust` and the scripts' own). A broken applier that drops
//! one delete from an effect set must be caught.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shadowdb_sqldb::{Database, Effects, EngineProfile};
use shadowdb_workloads::tpcc::{self, OrderLine, TpccGen, TpccScale, TpccTxn};
use shadowdb_workloads::{apply_group, bank, KvGen, KvOptions, TxnRequest};

const ACCOUNTS: usize = 64;

fn loaded() -> Database {
    let db = Database::new(EngineProfile::h2());
    tpcc::load(&db, &TpccScale::small(), 5).unwrap();
    bank::load(&db, ACCOUNTS).unwrap();
    db
}

/// A random run of `n` requests drawn from every workload, from `seed`.
fn requests(seed: u64, n: usize) -> Vec<TxnRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tpcc = TpccGen::new(seed, TpccScale::small(), 1);
    let mut kv = KvGen::new(seed, KvOptions::ycsb_b(ACCOUNTS));
    let mut bank = bank::BankGen::new(seed, ACCOUNTS);
    let mut scratch: Vec<usize> = Vec::new();
    (0..n)
        .map(|k| match rng.gen_range(0..13) {
            0..=3 => TxnRequest::Tpcc(tpcc.next_txn()),
            4 => TxnRequest::Tpcc(TpccTxn::Delivery {
                warehouse: 1,
                carrier: rng.gen_range(1..10),
            }),
            5 => TxnRequest::Tpcc(TpccTxn::NewOrder {
                warehouse: 1,
                district: rng.gen_range(1..=2),
                customer: rng.gen_range(1..=30),
                lines: vec![
                    OrderLine {
                        item: rng.gen_range(1..=200),
                        supply_w: 1,
                        qty: 3,
                    },
                    // The invalid item: the procedure rolls back to its
                    // savepoint and the request aborts.
                    OrderLine {
                        item: 0,
                        supply_w: 1,
                        qty: 1,
                    },
                ],
            }),
            6 | 7 => bank.next_transfer(),
            8 => kv.next_txn(),
            9 => {
                scratch.push(k);
                TxnRequest::Sql(vec![
                    format!("CREATE TABLE scratch{k} (id INT PRIMARY KEY, v INT, note TEXT)"),
                    format!("CREATE INDEX idx_scratch{k}_v ON scratch{k} (v)"),
                    format!(
                        "INSERT INTO scratch{k} VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, NULL)"
                    ),
                    format!("UPDATE scratch{k} SET v = v + 1 WHERE id = 1"),
                    format!("DELETE FROM scratch{k} WHERE id = 2"),
                    format!("UPDATE scratch{k} SET id = 4, v = 20 WHERE id = 3"),
                    format!("INSERT INTO scratch{k} VALUES (2, 21, 'c')"),
                    format!(
                        "UPDATE accounts SET balance = balance - 1 WHERE id = {}",
                        rng.gen_range(0..ACCOUNTS)
                    ),
                ])
            }
            10 if !scratch.is_empty() => {
                let j = scratch.remove(rng.gen_range(0..scratch.len()));
                TxnRequest::Sql(vec![
                    format!("UPDATE scratch{j} SET v = 0 WHERE id = 1"),
                    format!("DROP TABLE scratch{j}"),
                    format!("CREATE TABLE scratch{j} (id INT PRIMARY KEY, w REAL)"),
                    format!("INSERT INTO scratch{j} VALUES (1, 0.5)"),
                ])
            }
            // Primary-key changes on an existing table.
            11 if !scratch.is_empty() => {
                let j = scratch[rng.gen_range(0..scratch.len())];
                TxnRequest::Sql(vec![format!(
                    "UPDATE scratch{j} SET id = id + 10, v = v + 1 WHERE id <= 4"
                )])
            }
            // A script that fails half-way: it leaves no effects.
            _ => TxnRequest::Sql(vec![
                "UPDATE accounts SET balance = 0 WHERE id = 1".into(),
                "INSERT INTO accounts VALUES (2, 'dup', 0)".into(),
            ]),
        })
        .collect()
}

/// Reads answered through secondary indexes, rendered for comparison.
fn index_reads(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for d in 1..=2 {
        for c in 1..=30 {
            let q = format!(
                "SELECT o_id, o_carrier_id FROM orders \
                 WHERE o_w_id = 1 AND o_d_id = {d} AND o_c_id = {c}"
            );
            out.push(format!("{:?}", db.execute(&q).unwrap().rows));
        }
    }
    let mut tables: Vec<String> = db
        .snapshot()
        .tables()
        .iter()
        .map(|t| t.schema.name.clone())
        .filter(|n| n.starts_with("scratch"))
        .collect();
    tables.sort();
    for t in tables {
        for v in [0, 11, 20, 21] {
            let q = format!("SELECT id FROM {t} WHERE v = {v}");
            out.push(format!("{t} {v}: {:?}", db.execute(&q).map(|r| r.rows)));
        }
    }
    out
}

/// Executes `reqs` on one database in groups of `group`, applies each
/// group's effects (through `fx`) on another, and compares after every
/// group. `Ok(deletes)` counts the delete effects applied.
fn replay(reqs: &[TxnRequest], group: usize, fx: fn(&Effects) -> Effects) -> Result<usize, String> {
    let (exec, appl) = (loaded(), loaded());
    let mut deletes = 0;
    for (g, chunk) in reqs.chunks(group).enumerate() {
        let refs: Vec<&TxnRequest> = chunk.iter().collect();
        let sets: Vec<Effects> = apply_group(&exec, &refs)
            .into_iter()
            .filter_map(Result::ok)
            .map(|(_, effects)| fx(&effects))
            .collect();
        for s in &sets {
            deletes += s
                .decode()
                .unwrap()
                .tables
                .iter()
                .map(|t| t.deletes.len())
                .sum::<usize>();
        }
        appl.apply_effects(&sets)
            .map_err(|e| format!("group {g}: effects do not apply: {e}"))?;
        if exec.snapshot() != appl.snapshot() {
            return Err(format!("group {g}: snapshots differ"));
        }
        if index_reads(&exec) != index_reads(&appl) {
            return Err(format!("group {g}: index reads differ"));
        }
    }
    tpcc::check_consistency(&appl)?;
    Ok(deletes)
}

fn faithful(fx: &Effects) -> Effects {
    fx.clone()
}

/// The broken double: the first delete of the set is lost.
fn drops_a_delete(fx: &Effects) -> Effects {
    let mut set = fx.decode().unwrap();
    if let Some(t) = set.tables.iter_mut().find(|t| !t.deletes.is_empty()) {
        t.deletes.remove(0);
    }
    set.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn applying_effects_equals_executing(seed in any::<u64>(), n in 1usize..40, group in 1usize..6) {
        let reqs = requests(seed, n);
        if let Err(e) = replay(&reqs, group, faithful) {
            return Err(TestCaseError::fail(e));
        }
    }
}

#[test]
fn the_random_runs_cover_every_kind_of_effect() {
    // Over a few seeds the runs produce deletes, re-keys, updates,
    // inserts and DDL, and empty sets from reads and aborts.
    let (mut kinds, mut empty) = ([0usize; 5], 0);
    for seed in 0..8 {
        let db = loaded();
        let reqs = requests(seed, 40);
        let refs: Vec<&TxnRequest> = reqs.iter().collect();
        for (_, fx) in apply_group(&db, &refs).into_iter().filter_map(Result::ok) {
            let set = fx.decode().unwrap();
            empty += usize::from(fx.is_empty());
            kinds[0] += set.ddl.len();
            for t in &set.tables {
                kinds[1] += t.deletes.len();
                kinds[2] += t.rekeys.len();
                kinds[3] += t.updates.len();
                kinds[4] += t.inserts.len();
            }
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "ddl/deletes/rekeys/updates/inserts: {kinds:?}"
    );
    assert!(empty > 0, "no read or abort left an empty set");
}

#[test]
fn an_applier_that_drops_a_delete_is_caught() {
    let mut caught = 0;
    for seed in 0..16 {
        let reqs = requests(seed, 24);
        let applied = replay(&reqs, 3, faithful).expect("the faithful applier agrees");
        match replay(&reqs, 3, drops_a_delete) {
            Ok(_) => assert_eq!(applied, 0, "seed {seed}: a dropped delete went unnoticed"),
            Err(_) => caught += 1,
        }
    }
    assert!(caught >= 8, "only {caught} of 16 runs had a delete to drop");
}
