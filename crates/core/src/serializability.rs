//! A strict-serializability checker for client-observed histories.
//!
//! ShadowDB promises that "to clients it appears as if transactions were
//! executed sequentially, each at some point between the time that a
//! client submitted the transaction and the client received the result"
//! (Sec. III). For the bank workload this is checkable from every
//! client's observed `(submit, answer, transaction, result)` records: a
//! sequential order of the committed transactions must (a) respect
//! real-time precedence — if transaction A was answered before B was
//! submitted, A comes first — and (b) reproduce every observed read result
//! under the bank semantics.
//!
//! Deposits and transfers carry no state in their results, so the
//! constraints come from `BankRead` results, and
//! [`check_bank_history_concurrent`] checks each read against the
//! real-time bounds every such order must satisfy. It stays sound when
//! answers reach clients out of execution order (a reply lost and only
//! delivered on a retransmission), where replaying in answer order would
//! not be.

use shadowdb_loe::VTime;
use shadowdb_sqldb::SqlValue;
use shadowdb_workloads::TxnRequest;
use std::collections::HashSet;

/// One client-observed operation.
#[derive(Clone, Debug)]
pub struct Observation {
    /// When the client submitted the transaction.
    pub submitted: VTime,
    /// When the client received the answer.
    pub answered: VTime,
    /// The transaction.
    pub txn: TxnRequest,
    /// The answer's result values.
    pub result: Vec<SqlValue>,
}

/// A strict-serializability violation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A read's balance falls outside the window spanned by its real-time
    /// predecessor deposits (minimum) and those plus every concurrent
    /// deposit (maximum).
    ReadOutOfBounds {
        /// Index of the offending observation (in answer order).
        index: usize,
        /// The balance the client observed.
        observed: i64,
        /// Initial balance plus every deposit that *must* precede the read.
        min: i64,
        /// `min` plus every deposit that *may* precede the read.
        max: i64,
    },
    /// Two reads of the same account, one completed strictly before the
    /// other was submitted, returned shrinking balances (deposits only
    /// ever grow them).
    NonMonotonicReads {
        /// Index of the earlier read (in answer order).
        earlier: usize,
        /// Index of the later read (in answer order).
        later: usize,
        /// Balance the earlier read observed.
        first: i64,
        /// Smaller balance the later read observed.
        second: i64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ReadOutOfBounds {
                index,
                observed,
                min,
                max,
            } => write!(
                f,
                "read #{index}: observed balance {observed} outside the real-time \
                 window [{min}, {max}]"
            ),
            Violation::NonMonotonicReads {
                earlier,
                later,
                first,
                second,
            } => write!(
                f,
                "reads #{earlier} then #{later} (non-overlapping) observed balances \
                 {first} then {second}, but deposits only grow them"
            ),
        }
    }
}

/// Checks a committed bank history for strict serializability when
/// answers may be *reordered* relative to execution — the situation under
/// fault injection, where a reply can be lost and only reach the client
/// on a later retransmission, long after concurrent transactions from
/// other clients completed.
///
/// Answer-time replay is then unsound: a read executed early but answered
/// late would be replayed after deposits it legitimately never saw. This
/// checker instead verifies, per read, the real-time bounds every strictly
/// serializable order must satisfy:
///
/// * **lower** — deposits to the account whose answer preceded the read's
///   submission *must* be serialized before it;
/// * **upper** — only deposits submitted before the read's answer *can*
///   be serialized before it;
/// * **monotonicity** — of two reads of one account where the first
///   answered before the second was submitted, the second never observes
///   less.
///
/// A duplicated execution inflates post-heal reads past the upper bound;
/// a lost update drags them under the lower bound. (The interval check
/// does not prove a single global order exists — it is a sound,
/// practically tight approximation; reads taken after the system
/// quiesces, where the window collapses to a point, carry the weight.)
///
/// Histories may contain [`TxnRequest::BankTransfer`]s, including
/// cross-shard ones from a sharded deployment. A transfer moves `amount`
/// atomically, so it contributes one delta per touched account: mandatory
/// predecessors shift both bounds, while an overlapping transfer widens
/// only the bound it can move the balance toward (a debit can only
/// lower it, a credit only raise it). This makes the bounds check a
/// **cross-shard atomicity pass**: if a crash mid-commit applied the
/// debit on one shard but lost the credit on the other, a post-quiescence
/// read of the credited account falls below its lower bound.
/// Monotonicity is only asserted for accounts no transfer (or negative
/// deposit) can shrink.
pub fn check_bank_history_concurrent(
    observations: &[Observation],
    initial_balance: i64,
) -> Result<(), Violation> {
    // The delta `txn` applies to `account`, if it touches it at all.
    fn delta_for(txn: &TxnRequest, account: i64) -> Option<i64> {
        match txn {
            TxnRequest::BankDeposit { account: a, amount } if *a == account => Some(*amount),
            TxnRequest::BankTransfer { from, to, amount } => {
                let d = if *to == account { *amount } else { 0 }
                    - if *from == account { *amount } else { 0 };
                (d != 0).then_some(d)
            }
            _ => None,
        }
    }
    let mut ordered: Vec<&Observation> = observations.iter().collect();
    ordered.sort_by_key(|o| o.answered);
    // Accounts some transaction can shrink: their reads have no
    // monotonicity guarantee.
    let shrinkable: HashSet<i64> = ordered
        .iter()
        .flat_map(|o| match &o.txn {
            TxnRequest::BankDeposit { account, amount } if *amount < 0 => vec![*account],
            TxnRequest::BankTransfer { from, .. } => vec![*from],
            _ => vec![],
        })
        .collect();
    for (index, r) in ordered.iter().enumerate() {
        let TxnRequest::BankRead { account } = &r.txn else {
            continue;
        };
        let observed = r
            .result
            .first()
            .and_then(SqlValue::as_int)
            .unwrap_or(i64::MIN);
        let (mut min, mut max) = (initial_balance, initial_balance);
        for d in &ordered {
            let Some(delta) = delta_for(&d.txn, *account) else {
                continue;
            };
            if d.answered < r.submitted {
                min += delta;
                max += delta;
            } else if d.submitted < r.answered {
                if delta > 0 {
                    max += delta;
                } else {
                    min += delta;
                }
            }
        }
        if observed < min || observed > max {
            return Err(Violation::ReadOutOfBounds {
                index,
                observed,
                min,
                max,
            });
        }
        // Monotonicity against every earlier-answered read of the account
        // that completed before this one was submitted — only meaningful
        // while nothing can shrink the balance.
        if shrinkable.contains(account) {
            continue;
        }
        for (earlier, r1) in ordered[..index].iter().enumerate() {
            let TxnRequest::BankRead { account: a } = &r1.txn else {
                continue;
            };
            if a != account || r1.answered >= r.submitted {
                continue;
            }
            let first = r1
                .result
                .first()
                .and_then(SqlValue::as_int)
                .unwrap_or(i64::MIN);
            if first > observed {
                return Err(Violation::NonMonotonicReads {
                    earlier,
                    later: index,
                    first,
                    second: observed,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(sub_ms: u64, ans_ms: u64, txn: TxnRequest, result: Vec<SqlValue>) -> Observation {
        Observation {
            submitted: VTime::from_millis(sub_ms),
            answered: VTime::from_millis(ans_ms),
            txn,
            result,
        }
    }

    #[test]
    fn sequential_history_accepted() {
        let h = vec![
            obs(
                0,
                1,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 10,
                },
                vec![],
            ),
            obs(
                2,
                3,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(110)],
            ),
            obs(
                4,
                5,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 5,
                },
                vec![],
            ),
            obs(
                6,
                7,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(115)],
            ),
        ];
        check_bank_history_concurrent(&h, 100).expect("serializable");
    }

    #[test]
    fn concurrent_deposits_commute() {
        // Two overlapping deposits to different accounts; reads after both.
        let h = vec![
            obs(
                0,
                5,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 1,
                },
                vec![],
            ),
            obs(
                0,
                4,
                TxnRequest::BankDeposit {
                    account: 2,
                    amount: 2,
                },
                vec![],
            ),
            obs(
                6,
                7,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(101)],
            ),
            obs(
                6,
                8,
                TxnRequest::BankRead { account: 2 },
                vec![SqlValue::Int(102)],
            ),
        ];
        check_bank_history_concurrent(&h, 100).expect("serializable");
    }

    #[test]
    fn late_answered_read_tolerated_by_concurrent_checker() {
        // The read executed before the deposit but its answer was lost and
        // only arrived on a retransmission, after the deposit completed.
        // Answer-order replay would reject this; the two transactions
        // overlap, so the real-time bounds accept it.
        let h = vec![
            obs(
                0,
                50,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(100)],
            ),
            obs(
                5,
                6,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 10,
                },
                vec![],
            ),
        ];
        check_bank_history_concurrent(&h, 100).expect("overlapping, legal");
    }

    #[test]
    fn concurrent_checker_rejects_duplicate_execution() {
        // One deposit, but a post-quiescence read sees it applied twice.
        let h = vec![
            obs(
                0,
                1,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 10,
                },
                vec![],
            ),
            obs(
                5,
                6,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(120)],
            ),
        ];
        let v = check_bank_history_concurrent(&h, 100).expect_err("duplicate");
        assert!(matches!(
            v,
            Violation::ReadOutOfBounds {
                min: 110,
                max: 110,
                observed: 120,
                ..
            }
        ));
    }

    /// A read submitted after a deposit's answer that misses it: stale.
    #[test]
    fn concurrent_checker_rejects_lost_update() {
        let h = vec![
            obs(
                0,
                1,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 10,
                },
                vec![],
            ),
            obs(
                5,
                6,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(100)],
            ),
        ];
        let v = check_bank_history_concurrent(&h, 100).expect_err("stale read");
        assert_eq!(
            v,
            Violation::ReadOutOfBounds {
                index: 1,
                observed: 100,
                min: 110,
                max: 110
            }
        );
    }

    #[test]
    fn concurrent_checker_rejects_shrinking_reads() {
        // Two sequential reads with a concurrent deposit overlapping both:
        // each read's interval admits its value, but the later read sees
        // less than the earlier one — no serial order explains that.
        let h = vec![
            obs(
                0,
                100,
                TxnRequest::BankDeposit {
                    account: 1,
                    amount: 10,
                },
                vec![],
            ),
            obs(
                10,
                20,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(110)],
            ),
            obs(
                30,
                40,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(100)],
            ),
        ];
        let v = check_bank_history_concurrent(&h, 100).expect_err("shrinking");
        assert!(matches!(v, Violation::NonMonotonicReads { .. }));
    }

    #[test]
    fn transfer_history_accepted() {
        let h = vec![
            obs(
                0,
                1,
                TxnRequest::BankTransfer {
                    from: 1,
                    to: 2,
                    amount: 30,
                },
                vec![SqlValue::Int(2)],
            ),
            obs(
                2,
                3,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(70)],
            ),
            obs(
                4,
                5,
                TxnRequest::BankRead { account: 2 },
                vec![SqlValue::Int(130)],
            ),
        ];
        check_bank_history_concurrent(&h, 100).expect("serializable");
    }

    #[test]
    fn partial_cross_shard_commit_detected() {
        // A cross-shard transfer whose debit applied but whose credit was
        // lost (the atomicity failure 2PC must prevent): the post-
        // quiescence read of the credited account misses the money.
        let h = vec![
            obs(
                0,
                1,
                TxnRequest::BankTransfer {
                    from: 0,
                    to: 1,
                    amount: 10,
                },
                vec![SqlValue::Int(2)],
            ),
            obs(
                5,
                6,
                TxnRequest::BankRead { account: 0 },
                vec![SqlValue::Int(90)],
            ),
            obs(
                7,
                8,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(100)],
            ),
        ];
        let v = check_bank_history_concurrent(&h, 100).expect_err("lost credit");
        assert!(matches!(
            v,
            Violation::ReadOutOfBounds {
                observed: 100,
                min: 110,
                max: 110,
                ..
            }
        ));
    }

    #[test]
    fn overlapping_transfer_widens_only_reachable_bound() {
        // A transfer concurrent with both reads: the source account may
        // or may not have been debited yet, the destination may or may
        // not have been credited.
        let h = vec![
            obs(
                0,
                100,
                TxnRequest::BankTransfer {
                    from: 1,
                    to: 2,
                    amount: 40,
                },
                vec![SqlValue::Int(2)],
            ),
            obs(
                10,
                20,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(60)],
            ),
            obs(
                10,
                21,
                TxnRequest::BankRead { account: 2 },
                vec![SqlValue::Int(140)],
            ),
        ];
        check_bank_history_concurrent(&h, 100).expect("both orders legal");
        // But the source can never *gain* from its own outgoing transfer.
        let h2 = vec![
            h[0].clone(),
            obs(
                10,
                20,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(140)],
            ),
        ];
        assert!(check_bank_history_concurrent(&h2, 100).is_err());
    }

    #[test]
    fn monotonicity_skipped_for_transfer_sources() {
        // Account 1 is a transfer source: shrinking reads are legal
        // (the transfer serialized between them).
        let h = vec![
            obs(
                0,
                100,
                TxnRequest::BankTransfer {
                    from: 1,
                    to: 2,
                    amount: 10,
                },
                vec![SqlValue::Int(2)],
            ),
            obs(
                10,
                20,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(100)],
            ),
            obs(
                30,
                40,
                TxnRequest::BankRead { account: 1 },
                vec![SqlValue::Int(90)],
            ),
        ];
        check_bank_history_concurrent(&h, 100).expect("transfer explains the shrink");
    }

    #[test]
    fn lost_update_detected() {
        // Two deposits to the same account, but a later read shows only one
        // of them: the replication lost an update.
        let h = vec![
            obs(
                0,
                1,
                TxnRequest::BankDeposit {
                    account: 3,
                    amount: 10,
                },
                vec![],
            ),
            obs(
                2,
                3,
                TxnRequest::BankDeposit {
                    account: 3,
                    amount: 10,
                },
                vec![],
            ),
            obs(
                4,
                5,
                TxnRequest::BankRead { account: 3 },
                vec![SqlValue::Int(110)],
            ),
        ];
        assert!(check_bank_history_concurrent(&h, 100).is_err());
    }
}
