//! Transaction requests: typed stored procedures with a wire encoding.

use crate::{bank, shard, tpcc};
use bytes::{BufMut, Bytes, BytesMut};
use shadowdb_eventml::Value;
use shadowdb_sqldb::effects::{put_values, take_values};
use shadowdb_sqldb::{Database, Effects, SqlError, SqlValue, Transaction};
use std::time::Duration;

/// A transaction submitted by a client: type plus parameters.
///
/// Execution is deterministic given the parameters and the database state,
/// which is what state-machine replication requires ("we assume that
/// sequential transaction execution is deterministic").
#[derive(Clone, Debug, PartialEq)]
pub enum TxnRequest {
    /// Deposit `amount` into `account` (micro-benchmark update).
    BankDeposit {
        /// Target account id.
        account: i64,
        /// Amount to add.
        amount: i64,
    },
    /// Read an account's balance (micro-benchmark read).
    BankRead {
        /// Target account id.
        account: i64,
    },
    /// Move `amount` from one account to another. When the accounts live
    /// on different shards this is the bank workload's built-in
    /// cross-shard transaction; on a single shard it is an ordinary
    /// two-update procedure.
    BankTransfer {
        /// Source account id (debited).
        from: i64,
        /// Destination account id (credited).
        to: i64,
        /// Amount to move (overdrafts allowed, so transfers always
        /// commit — vote stability for deterministic 2PC).
        amount: i64,
    },
    /// One of the five TPC-C transactions.
    Tpcc(tpcc::TpccTxn),
    /// A raw SQL script executed statement by statement (generic client).
    Sql(Vec<String>),
    /// An internal 2PC-over-TOB record (prepare/vote/decision/done),
    /// riding the ordinary replicated transaction path so it is ordered,
    /// logged, and replayed exactly like a client transaction. Only
    /// sharded deployments produce these.
    TwoPc(shard::TwoPcRecord),
    /// A transaction another replica already executed: the outcome it
    /// answered and the effects of its writes. Applying it writes the
    /// effects ([`Transaction::apply_effects`]) and answers the same
    /// outcome without running anything — what a primary-backup group's
    /// primary hands its backups, its catch-up window and its log.
    Applied(Applied),
}

/// What [`TxnRequest::Applied`] carries: whether the transaction committed,
/// and one byte string holding the result it answered (in the effects'
/// row encoding) followed by its [`Effects`]. The same bytes travel in a
/// forward, sit in a catch-up window and fill a log record.
#[derive(Clone, Debug, PartialEq)]
pub struct Applied {
    committed: bool,
    record: Bytes,
    /// Where the effects start in `record`.
    effects_at: usize,
}

impl Applied {
    /// Records an executed transaction's outcome and effects.
    pub fn new(committed: bool, result: &[SqlValue], effects: &Effects) -> Applied {
        let mut buf = BytesMut::with_capacity(2 + 10 * result.len() + effects.bytes().len());
        put_values(&mut buf, result);
        let effects_at = buf.len();
        buf.put_slice(effects.bytes());
        Applied {
            committed,
            record: buf.freeze(),
            effects_at,
        }
    }

    /// The result the transaction answered.
    pub fn result(&self) -> Vec<SqlValue> {
        let mut head = &self.record[..self.effects_at];
        take_values(&mut head).expect("checked when the record was made")
    }

    /// What the transaction wrote.
    pub fn effects(&self) -> Effects {
        Effects::from_bytes(self.record.slice(self.effects_at..))
    }

    /// This record in an allocation of its own: one received in a larger
    /// frame no longer keeps the frame alive.
    pub fn compact(&self) -> Applied {
        Applied {
            record: Bytes::copy_from_slice(&self.record),
            ..*self
        }
    }

    /// Re-reads a record from its bytes; `None` when the result does not
    /// decode (the effects are checked when applied).
    fn from_record(committed: bool, record: Bytes) -> Option<Applied> {
        let mut rest: &[u8] = &record;
        take_values(&mut rest).ok()?;
        let effects_at = record.len() - rest.len();
        Some(Applied {
            committed,
            record,
            effects_at,
        })
    }
}

/// The outcome of executing a transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnOutcome {
    /// Whether the transaction committed (TPC-C NewOrder aborts ~1% by
    /// spec; aborts are deterministic, so every replica aborts alike).
    pub committed: bool,
    /// The result set summary returned to the client (procedure-specific).
    pub result: Vec<SqlValue>,
    /// Virtual CPU time the execution cost, per the engine profile.
    pub cost: Duration,
}

impl TxnRequest {
    /// Whether this request provably mutates nothing: the classification
    /// clients stamp onto [`TxnEnvelope`]s so replicas can serve the
    /// request from local state under a read lease. Conservative — only
    /// shapes that are reads *by construction* qualify: `BankRead`, and
    /// SQL scripts consisting solely of `SELECT`s without `FOR UPDATE`.
    /// Everything else (including TPC-C's read-only StockLevel/OrderStatus,
    /// which share a wire tag with the writers) stays on the ordered path.
    pub fn is_read_only(&self) -> bool {
        match self {
            TxnRequest::BankRead { .. } => true,
            TxnRequest::Sql(stmts) => {
                !stmts.is_empty()
                    && stmts.iter().all(|s| {
                        let t = s.trim_start();
                        t.len() >= 6
                            && t.as_bytes()[..6].eq_ignore_ascii_case(b"select")
                            && !t.to_ascii_lowercase().contains("for update")
                    })
            }
            _ => false,
        }
    }

    /// Executes a read-only request against committed state without
    /// touching the lock table, via [`Database::execute_read_only`].
    /// Returns `None` when the request is not actually read-only or when
    /// the lock-free path cannot serve it — the caller must then fall
    /// back to ordered execution (never answer from a guess).
    pub fn apply_read_only(&self, db: &Database) -> Option<TxnOutcome> {
        match self {
            TxnRequest::BankRead { account } => {
                let (rs, cost) = db
                    .execute_read_only(&format!(
                        "SELECT balance FROM accounts WHERE id = {account}"
                    ))
                    .ok()?;
                let balance = rs
                    .rows
                    .first()
                    .map(|r| r[0].clone())
                    .unwrap_or(SqlValue::Null);
                Some(TxnOutcome {
                    committed: true,
                    result: vec![balance],
                    cost,
                })
            }
            TxnRequest::Sql(stmts) if self.is_read_only() => {
                let mut result = Vec::new();
                let mut cost = Duration::ZERO;
                for s in stmts {
                    let (rs, c) = db.execute_read_only(s).ok()?;
                    cost += c;
                    result.push(SqlValue::Int(rs.affected as i64));
                    if let Some(first) = rs.rows.first() {
                        result.extend(first.iter().cloned());
                    }
                }
                Some(TxnOutcome {
                    committed: true,
                    result,
                    cost,
                })
            }
            _ => None,
        }
    }

    /// Executes this request against `db` in its own transaction.
    ///
    /// # Errors
    ///
    /// Infrastructure errors (unknown tables, lock timeouts) are returned;
    /// *semantic* aborts (e.g. TPC-C's invalid-item rollback) yield
    /// `Ok(TxnOutcome { committed: false, .. })`, since all replicas take
    /// them identically.
    pub fn apply(&self, db: &Database) -> Result<TxnOutcome, SqlError> {
        let mut txn = db.begin()?;
        let out = self.apply_in(&mut txn)?;
        txn.commit()?;
        Ok(out)
    }

    /// Executes this request inside an already-open transaction: the
    /// building block of [`apply_group`]. Semantic aborts roll back to a
    /// savepoint taken on entry, so earlier work in `txn` survives. The
    /// reported cost is the virtual time this request added to `txn`.
    ///
    /// # Errors
    ///
    /// Infrastructure errors are returned; the transaction must then be
    /// considered dead (the engine rolls back on lock timeouts).
    pub fn apply_in(&self, txn: &mut Transaction) -> Result<TxnOutcome, SqlError> {
        match self {
            TxnRequest::BankDeposit { account, amount } => bank::deposit_in(txn, *account, *amount),
            TxnRequest::BankRead { account } => bank::read_balance_in(txn, *account),
            TxnRequest::BankTransfer { from, to, amount } => {
                bank::transfer_in(txn, *from, *to, *amount)
            }
            TxnRequest::Tpcc(t) => t.apply_in(txn),
            TxnRequest::Sql(stmts) => {
                let start = txn.virtual_cost();
                let mut result = Vec::new();
                for s in stmts {
                    let rs = txn.execute(s)?;
                    result.push(SqlValue::Int(rs.affected as i64));
                    if let Some(first) = rs.rows.first() {
                        result.extend(first.iter().cloned());
                    }
                }
                Ok(TxnOutcome {
                    committed: true,
                    result,
                    cost: txn.virtual_cost() - start,
                })
            }
            TxnRequest::Applied(a) => {
                let start = txn.virtual_cost();
                txn.apply_effects(&a.effects())?;
                Ok(TxnOutcome {
                    committed: a.committed,
                    result: a.result(),
                    cost: txn.virtual_cost() - start,
                })
            }
            // A 2PC record reaching the plain execution path means the
            // deployment is not sharded; refuse it deterministically so
            // every replica answers alike.
            TxnRequest::TwoPc(_) => Ok(TxnOutcome {
                committed: false,
                result: vec![SqlValue::Text("2pc outside sharded deployment".into())],
                cost: Duration::from_micros(1),
            }),
        }
    }

    /// Encodes the request for transport.
    pub fn to_value(&self) -> Value {
        match self {
            TxnRequest::BankDeposit { account, amount } => Value::pair(
                Value::str("deposit"),
                Value::pair(Value::Int(*account), Value::Int(*amount)),
            ),
            TxnRequest::BankRead { account } => {
                Value::pair(Value::str("read"), Value::Int(*account))
            }
            TxnRequest::BankTransfer { from, to, amount } => Value::pair(
                Value::str("xfer"),
                Value::pair(
                    Value::Int(*from),
                    Value::pair(Value::Int(*to), Value::Int(*amount)),
                ),
            ),
            TxnRequest::Tpcc(t) => Value::pair(Value::str("tpcc"), t.to_value()),
            TxnRequest::Sql(stmts) => Value::pair(
                Value::str("sql"),
                Value::list(stmts.iter().map(|s| Value::str(s))),
            ),
            TxnRequest::TwoPc(r) => Value::pair(Value::str("2pc"), r.to_value()),
            TxnRequest::Applied(a) => Value::pair(
                Value::str("applied"),
                Value::pair(Value::Bool(a.committed), Value::Bytes(a.record.clone())),
            ),
        }
    }

    /// Decodes a request from transport.
    pub fn from_value(v: &Value) -> Option<TxnRequest> {
        let (tag, body) = v.fst().zip(v.snd())?;
        match tag.as_str()? {
            "deposit" => Some(TxnRequest::BankDeposit {
                account: body.fst()?.as_int()?,
                amount: body.snd()?.as_int()?,
            }),
            "read" => Some(TxnRequest::BankRead {
                account: body.as_int()?,
            }),
            "xfer" => Some(TxnRequest::BankTransfer {
                from: body.fst()?.as_int()?,
                to: body.snd()?.fst()?.as_int()?,
                amount: body.snd()?.snd()?.as_int()?,
            }),
            "tpcc" => tpcc::TpccTxn::from_value(body).map(TxnRequest::Tpcc),
            "2pc" => shard::TwoPcRecord::from_value(body).map(TxnRequest::TwoPc),
            "applied" => {
                let record = body.snd()?.as_bytes()?.clone();
                Applied::from_record(body.fst()?.as_bool()?, record).map(TxnRequest::Applied)
            }
            "sql" => {
                let stmts: Option<Vec<String>> = body
                    .as_list()?
                    .iter()
                    .map(|s| s.as_str().map(str::to_owned))
                    .collect();
                Some(TxnRequest::Sql(stmts?))
            }
            _ => None,
        }
    }
}

/// Applies a run of transactions under ONE engine transaction: one commit
/// (and one lock-table pass) for the whole group instead of one per
/// request. Outcomes are reported per request, in delivery order, and are
/// identical to unbatched execution: replica execution is sequential, so
/// folding N deterministic transactions into one engine transaction
/// cannot change what any of them reads. Beside each outcome come the
/// request's own effects ([`Effects`], taken as it finishes), which
/// reproduce its writes on a copy of the database without running it.
///
/// If the shared transaction dies on an infrastructure error, the group's
/// partial work is rolled back and every request is re-applied in its own
/// transaction, preserving exact unbatched semantics (including which
/// request fails).
pub fn apply_group(
    db: &Database,
    reqs: &[&TxnRequest],
) -> Vec<Result<(TxnOutcome, Effects), SqlError>> {
    if reqs.len() > 1 {
        if let Some(outs) = try_apply_group(db, reqs) {
            return outs;
        }
    }
    reqs.iter()
        .map(|r| {
            let mut txn = db.begin()?;
            let out = r.apply_captured(&mut txn)?;
            txn.commit()?;
            Ok(out)
        })
        .collect()
}

fn try_apply_group(
    db: &Database,
    reqs: &[&TxnRequest],
) -> Option<Vec<Result<(TxnOutcome, Effects), SqlError>>> {
    let mut txn = db.begin().ok()?;
    let mut outs = Vec::with_capacity(reqs.len());
    for r in reqs {
        match r.apply_captured(&mut txn) {
            Ok(out) => outs.push(Ok(out)),
            // Dropping the dead transaction rolls the whole group back;
            // the caller re-runs every request unbatched.
            Err(_) => return None,
        }
    }
    txn.commit().ok()?;
    Some(outs)
}

impl TxnRequest {
    /// [`TxnRequest::apply_in`], plus the effects of what it did (an
    /// [`TxnRequest::Applied`] request's are the ones it carries).
    fn apply_captured(&self, txn: &mut Transaction) -> Result<(TxnOutcome, Effects), SqlError> {
        let sp = txn.savepoint();
        let out = self.apply_in(txn)?;
        let effects = match self {
            TxnRequest::Applied(a) => a.effects(),
            _ => txn.effects_since(sp),
        };
        Ok((out, effects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let reqs = vec![
            TxnRequest::BankDeposit {
                account: 7,
                amount: 100,
            },
            TxnRequest::BankRead { account: 3 },
            TxnRequest::BankTransfer {
                from: 1,
                to: 9,
                amount: 25,
            },
            TxnRequest::Sql(vec!["SELECT 1 FROM t".into(), "DELETE FROM t".into()]),
            TxnRequest::Applied(Applied::new(
                true,
                &[SqlValue::Int(7), SqlValue::Text("x".into())],
                &Effects::default(),
            )),
        ];
        for r in reqs {
            assert_eq!(TxnRequest::from_value(&r.to_value()), Some(r));
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(TxnRequest::from_value(&Value::Int(3)), None);
        assert_eq!(
            TxnRequest::from_value(&Value::pair(Value::str("nope"), Value::Unit)),
            None
        );
    }

    use crate::tpcc::{self, OrderLine, TpccScale, TpccTxn};
    use shadowdb_sqldb::EngineProfile;

    fn mixed_batch() -> Vec<TxnRequest> {
        let mut g = tpcc::TpccGen::new(17, TpccScale::small(), 1);
        let mut reqs: Vec<TxnRequest> = (0..40).map(|_| TxnRequest::Tpcc(g.next_txn())).collect();
        // Force a semantic abort mid-group: an invalid item id.
        reqs.insert(
            13,
            TxnRequest::Tpcc(TpccTxn::NewOrder {
                warehouse: 1,
                district: 1,
                customer: 1,
                lines: vec![
                    OrderLine {
                        item: 5,
                        supply_w: 1,
                        qty: 1,
                    },
                    OrderLine {
                        item: 0,
                        supply_w: 1,
                        qty: 1,
                    },
                ],
            }),
        );
        reqs
    }

    #[test]
    fn group_apply_matches_individual_apply() {
        let mk = || {
            let db = Database::new(EngineProfile::h2());
            tpcc::load(&db, &TpccScale::small(), 4).unwrap();
            db
        };
        let reqs = mixed_batch();
        let solo_db = mk();
        let solo: Vec<TxnOutcome> = reqs.iter().map(|r| r.apply(&solo_db).unwrap()).collect();

        let group_db = mk();
        let refs: Vec<&TxnRequest> = reqs.iter().collect();
        let grouped: Vec<TxnOutcome> = apply_group(&group_db, &refs)
            .into_iter()
            .map(|r| r.unwrap().0)
            .collect();

        // Per-transaction answers (including the mid-group abort) and the
        // final database state are identical either way.
        assert_eq!(solo.len(), grouped.len());
        for (s, g) in solo.iter().zip(&grouped) {
            assert_eq!(s.committed, g.committed);
            assert_eq!(s.result, g.result);
        }
        assert!(grouped.iter().any(|o| !o.committed), "abort exercised");
        for table in ["district", "orders", "order_line", "new_order", "stock"] {
            assert_eq!(
                solo_db.table_len(table),
                group_db.table_len(table),
                "{table}"
            );
        }
        tpcc::check_consistency(&group_db).unwrap();
    }

    #[test]
    fn group_apply_costs_sum_like_individual_costs() {
        let db = Database::new(EngineProfile::h2());
        tpcc::load(&db, &TpccScale::small(), 4).unwrap();
        let reqs = [
            TxnRequest::Sql(vec!["SELECT COUNT(*) FROM item".into()]),
            TxnRequest::Tpcc(TpccTxn::Payment {
                warehouse: 1,
                district: 1,
                customer: 2,
                c_warehouse: 1,
                amount: 10.0,
                history_id: 900,
            }),
        ];
        let refs: Vec<&TxnRequest> = reqs.iter().collect();
        let outs = apply_group(&db, &refs);
        for out in outs {
            let (out, _) = out.unwrap();
            assert!(out.cost.as_micros() > 0, "per-request cost attributed");
        }
    }

    #[test]
    fn read_only_classification() {
        assert!(TxnRequest::BankRead { account: 1 }.is_read_only());
        assert!(TxnRequest::Sql(vec!["SELECT a FROM t WHERE id = 1".into()]).is_read_only());
        assert!(
            TxnRequest::Sql(vec!["  select a FROM t".into(), "SELECT b FROM u".into()])
                .is_read_only()
        );
        // Anything that can mutate or lock is not a fast-path candidate.
        assert!(!TxnRequest::BankDeposit {
            account: 1,
            amount: 2
        }
        .is_read_only());
        assert!(!TxnRequest::BankTransfer {
            from: 1,
            to: 2,
            amount: 3
        }
        .is_read_only());
        assert!(!TxnRequest::Sql(vec!["SELECT a FROM t FOR UPDATE".into()]).is_read_only());
        assert!(!TxnRequest::Sql(vec![
            "SELECT a FROM t".into(),
            "UPDATE t SET a = 1 WHERE id = 1".into()
        ])
        .is_read_only());
        assert!(!TxnRequest::Sql(vec![]).is_read_only());
    }

    #[test]
    fn apply_read_only_matches_ordered_execution() {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 8).unwrap();
        TxnRequest::BankDeposit {
            account: 3,
            amount: 41,
        }
        .apply(&db)
        .unwrap();

        let read = TxnRequest::BankRead { account: 3 };
        let fast = read.apply_read_only(&db).expect("read served on fast path");
        let ordered = read.apply(&db).unwrap();
        assert_eq!(fast.result, ordered.result);
        assert!(fast.committed);
        assert!(fast.cost > Duration::ZERO);

        let sql = TxnRequest::Sql(vec!["SELECT balance FROM accounts WHERE id = 3".into()]);
        let fast = sql.apply_read_only(&db).expect("sql read served");
        assert_eq!(fast.result, sql.apply(&db).unwrap().result);

        // Non-reads refuse the fast path outright.
        assert!(TxnRequest::BankDeposit {
            account: 1,
            amount: 1
        }
        .apply_read_only(&db)
        .is_none());
        assert!(
            TxnRequest::Sql(vec!["UPDATE accounts SET balance = 0 WHERE id = 1".into()])
                .apply_read_only(&db)
                .is_none()
        );
    }
}
