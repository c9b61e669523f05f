//! The bank-account micro-benchmark (Sec. IV-B).
//!
//! "The micro-benchmark consists of a database of bank accounts, each
//! having an identifier, an owner, and a balance. … These transactions
//! deposit money on a randomly selected account. Rows are 16 bytes in
//! length and the database contains 50,000 rows."

use crate::txn::{TxnOutcome, TxnRequest};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shadowdb_sqldb::{Database, SqlError, SqlValue, Transaction};

/// The paper's row count.
pub const DEFAULT_ROWS: usize = 50_000;

/// Creates the accounts table and loads `rows` accounts with zero-length
/// owner strings, making each row exactly 16 bytes (id 8 B + owner 0 B +
/// balance 8 B), as in the paper.
///
/// # Errors
///
/// Propagates engine errors.
pub fn load(db: &Database, rows: usize) -> Result<(), SqlError> {
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")?;
    db.insert_rows(
        "accounts",
        (0..rows as i64).map(|i| {
            vec![
                SqlValue::Int(i),
                SqlValue::Text(String::new()),
                SqlValue::Int(1_000),
            ]
        }),
    )?;
    Ok(())
}

/// Loads only the accounts owned by `shard` of a `shards`-way hash
/// partition (`id mod shards == shard`): the per-shard loader for
/// sharded deployments, where each replica group must receive only its
/// own rows. `load_shard(db, rows, 1, 0)` is exactly [`load`].
///
/// # Errors
///
/// Propagates engine errors.
pub fn load_shard(db: &Database, rows: usize, shards: usize, shard: usize) -> Result<(), SqlError> {
    db.set_shard_scope(shadowdb_sqldb::ShardScope::bank(shards, shard));
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")?;
    db.insert_rows(
        "accounts",
        (0..rows as i64)
            .filter(|i| i.rem_euclid(shards as i64) as usize == shard)
            .map(|i| {
                vec![
                    SqlValue::Int(i),
                    SqlValue::Text(String::new()),
                    SqlValue::Int(1_000),
                ]
            }),
    )?;
    Ok(())
}

/// Loads a variant with `row_bytes`-sized rows (16 B or 1 KB in
/// Fig. 10(b)): the owner column is padded so the whole row reaches the
/// target, with 3 columns for 16 B rows and 4 columns for larger rows, as
/// in the paper's state-transfer experiment.
///
/// # Errors
///
/// Propagates engine errors.
pub fn load_sized(db: &Database, rows: usize, row_bytes: usize) -> Result<(), SqlError> {
    if row_bytes <= 16 {
        return load(db, rows);
    }
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, note TEXT, balance INT)")?;
    let pad = row_bytes.saturating_sub(16) / 2;
    db.insert_rows(
        "accounts",
        (0..rows as i64).map(|i| {
            vec![
                SqlValue::Int(i),
                SqlValue::Text("x".repeat(pad)),
                SqlValue::Text("y".repeat(row_bytes - 16 - pad)),
                SqlValue::Int(1_000),
            ]
        }),
    )?;
    Ok(())
}

/// The deposit stored procedure.
pub fn deposit(db: &Database, account: i64, amount: i64) -> Result<TxnOutcome, SqlError> {
    let mut txn = db.begin()?;
    let out = deposit_in(&mut txn, account, amount)?;
    txn.commit()?;
    Ok(out)
}

/// The deposit body, for an already-open transaction (group apply).
/// The reported cost is the virtual time this procedure added to `txn`.
pub fn deposit_in(
    txn: &mut Transaction,
    account: i64,
    amount: i64,
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let rs = txn.execute(&deposit_sql(account, amount))?;
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Int(rs.affected as i64)],
        cost: txn.virtual_cost() - start,
    })
}

/// The deposit statement the procedures send. Negative amounts (transfer
/// debits) render as subtraction so the statement stays within the
/// parser's literal grammar.
pub fn deposit_sql(account: i64, amount: i64) -> String {
    if amount < 0 {
        let abs = amount.unsigned_abs();
        format!("UPDATE accounts SET balance = balance - {abs} WHERE id = {account}")
    } else {
        format!("UPDATE accounts SET balance = balance + {amount} WHERE id = {account}")
    }
}

/// The transfer stored procedure: debit `from`, credit `to`. Overdrafts
/// are allowed, so a transfer always commits — which makes its 2PC vote
/// independent of database state (vote stability under deterministic
/// re-execution).
pub fn transfer(db: &Database, from: i64, to: i64, amount: i64) -> Result<TxnOutcome, SqlError> {
    let mut txn = db.begin()?;
    let out = transfer_in(&mut txn, from, to, amount)?;
    txn.commit()?;
    Ok(out)
}

/// The transfer body, for an already-open transaction (group apply).
pub fn transfer_in(
    txn: &mut Transaction,
    from: i64,
    to: i64,
    amount: i64,
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let debited = txn.execute(&deposit_sql(from, -amount))?.affected;
    let credited = txn.execute(&deposit_sql(to, amount))?.affected;
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Int((debited + credited) as i64)],
        cost: txn.virtual_cost() - start,
    })
}

/// The read stored procedure.
pub fn read_balance(db: &Database, account: i64) -> Result<TxnOutcome, SqlError> {
    let mut txn = db.begin()?;
    let out = read_balance_in(&mut txn, account)?;
    txn.commit()?;
    Ok(out)
}

/// The read body, for an already-open transaction (group apply).
pub fn read_balance_in(txn: &mut Transaction, account: i64) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let rs = txn.query(&format!(
        "SELECT balance FROM accounts WHERE id = {account}"
    ))?;
    let balance = rs
        .rows
        .first()
        .map(|r| r[0].clone())
        .unwrap_or(SqlValue::Null);
    Ok(TxnOutcome {
        committed: true,
        result: vec![balance],
        cost: txn.virtual_cost() - start,
    })
}

/// A deterministic generator of deposit requests on random accounts.
#[derive(Clone, Debug)]
pub struct BankGen {
    rng: SmallRng,
    rows: usize,
}

impl BankGen {
    /// Creates a generator over `rows` accounts.
    pub fn new(seed: u64, rows: usize) -> BankGen {
        BankGen {
            rng: SmallRng::seed_from_u64(seed),
            rows,
        }
    }

    /// The next deposit request.
    pub fn next_txn(&mut self) -> TxnRequest {
        TxnRequest::BankDeposit {
            account: self.rng.gen_range(0..self.rows as i64),
            amount: self.rng.gen_range(1..100),
        }
    }

    /// The next transfer request between two distinct random accounts.
    /// Under a `shards`-way hash partition (`id mod shards`) the two
    /// accounts usually land on different shards, making this the bank
    /// workload's cross-shard transaction.
    pub fn next_transfer(&mut self) -> TxnRequest {
        let from = self.rng.gen_range(0..self.rows as i64);
        let mut to = self.rng.gen_range(0..self.rows as i64 - 1);
        if to >= from {
            to += 1;
        }
        TxnRequest::BankTransfer {
            from,
            to,
            amount: self.rng.gen_range(1..100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_sqldb::EngineProfile;

    #[test]
    fn load_and_deposit() {
        let db = Database::new(EngineProfile::h2());
        load(&db, 100).unwrap();
        assert_eq!(db.table_len("accounts"), 100);
        let out = deposit(&db, 42, 58).unwrap();
        assert!(out.committed);
        assert!(out.cost.as_micros() > 0);
        let out = read_balance(&db, 42).unwrap();
        assert_eq!(out.result, vec![SqlValue::Int(1_058)]);
    }

    #[test]
    fn shard_loader_scopes_and_rejects_misrouted_rows() {
        let db = Database::new(EngineProfile::h2());
        load_shard(&db, 10, 2, 0).unwrap();
        // Only even accounts were loaded.
        assert_eq!(db.table_len("accounts"), 5);
        assert!(read_balance(&db, 4).unwrap().result == vec![SqlValue::Int(1_000)]);
        // A row belonging to shard 1 is rejected at apply time, not
        // silently materialised: the lock table is scoped to shard 0.
        let err = db
            .execute("INSERT INTO accounts VALUES (5, 'x', 1000)")
            .unwrap_err();
        assert!(
            err.to_string().contains("shard scope"),
            "unexpected error: {err}"
        );
        // Own rows stay writable.
        assert!(deposit(&db, 4, 7).unwrap().committed);
    }

    #[test]
    fn rows_are_16_bytes() {
        let db = Database::new(EngineProfile::h2());
        load(&db, 10).unwrap();
        assert_eq!(db.byte_size(), 160);
    }

    #[test]
    fn sized_rows_match_target() {
        let db = Database::new(EngineProfile::h2());
        load_sized(&db, 10, 1_024).unwrap();
        assert_eq!(db.byte_size(), 10 * 1_024);
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let mut a = BankGen::new(9, 50);
        let mut b = BankGen::new(9, 50);
        for _ in 0..20 {
            let ta = a.next_txn();
            assert_eq!(ta, b.next_txn());
            if let TxnRequest::BankDeposit { account, amount } = ta {
                assert!((0..50).contains(&account));
                assert!((1..100).contains(&amount));
            } else {
                panic!("unexpected request");
            }
        }
    }

    #[test]
    fn transfer_moves_money_and_allows_overdraft() {
        let db = Database::new(EngineProfile::h2());
        load(&db, 10).unwrap();
        let out = transfer(&db, 1, 2, 300).unwrap();
        assert!(out.committed);
        assert_eq!(out.result, vec![SqlValue::Int(2)]);
        assert_eq!(
            read_balance(&db, 1).unwrap().result,
            vec![SqlValue::Int(700)]
        );
        assert_eq!(
            read_balance(&db, 2).unwrap().result,
            vec![SqlValue::Int(1_300)]
        );
        // Overdraft: balances may go negative, the transfer still commits.
        let out = transfer(&db, 1, 2, 5_000).unwrap();
        assert!(out.committed);
        assert_eq!(
            read_balance(&db, 1).unwrap().result,
            vec![SqlValue::Int(-4_300)]
        );
    }

    #[test]
    fn shard_loader_partitions_rows() {
        let shards = 3;
        let dbs: Vec<Database> = (0..shards)
            .map(|s| {
                let db = Database::new(EngineProfile::h2());
                load_shard(&db, 100, shards, s).unwrap();
                db
            })
            .collect();
        let total: usize = dbs.iter().map(|db| db.table_len("accounts")).sum();
        assert_eq!(total, 100);
        // Shard 1 holds exactly the ids congruent to 1 mod 3.
        assert_eq!(dbs[1].table_len("accounts"), 33);
        assert_eq!(
            read_balance(&dbs[1], 4).unwrap().result,
            vec![SqlValue::Int(1_000)]
        );
        assert_eq!(
            read_balance(&dbs[1], 3).unwrap().result,
            vec![SqlValue::Null]
        );
    }

    #[test]
    fn transfer_generator_is_deterministic_and_distinct() {
        let mut a = BankGen::new(11, 40);
        let mut b = BankGen::new(11, 40);
        for _ in 0..30 {
            let ta = a.next_transfer();
            assert_eq!(ta, b.next_transfer());
            if let TxnRequest::BankTransfer { from, to, amount } = ta {
                assert_ne!(from, to);
                assert!((0..40).contains(&from) && (0..40).contains(&to));
                assert!((1..100).contains(&amount));
            } else {
                panic!("unexpected request");
            }
        }
    }

    #[test]
    fn deposits_replay_identically() {
        // Determinism across replicas: same requests → same final state.
        let mk = || {
            let db = Database::new(EngineProfile::hsqldb());
            load(&db, 50).unwrap();
            db
        };
        let db1 = mk();
        let db2 = mk();
        let mut g = BankGen::new(3, 50);
        for _ in 0..100 {
            let t = g.next_txn();
            t.apply(&db1).unwrap();
            t.apply(&db2).unwrap();
        }
        let sum = |db: &Database| {
            db.execute("SELECT SUM(balance) FROM accounts")
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(sum(&db1), sum(&db2));
    }
}
