//! The output check, done from outside the program: the loader kept a
//! handle to every replica's database, and the clients' stats hold every
//! answer they saw.
//!
//! 1. The active replicas settled on identical table contents.
//! 2. Bank and kv: every account's final balance equals its initial
//!    balance plus the deltas of every *answered* transaction, plus those
//!    of some subset of the (at most one per client) transactions that
//!    were in flight when the clients stopped — no lost update, no double
//!    execution — and transfer totals are conserved.
//! 3. TPC-C: `tpcc::check_consistency` on every active replica.
//! 4. Bank and kv: `check_bank_history_concurrent` over a bounded prefix
//!    of the observed history (the checker is quadratic).
//! 5. No transaction aborted except TPC-C's by-design NewOrder rollbacks.

use crate::run::RunData;
use crate::workload::{aborts_by_design, Deployed, Spec, INITIAL_BALANCE};
use shadowdb::serializability::{check_bank_history_concurrent, Observation};
use shadowdb_loe::VTime;
use shadowdb_sqldb::Database;
use shadowdb_workloads::{tpcc, TxnRequest};
use std::collections::HashMap;

/// Most observations the history checker is given.
const HISTORY_PREFIX: usize = 5_000;

/// The balance changes `txn` makes, as `(account, delta)`.
fn deltas(txn: &TxnRequest) -> Vec<(i64, i64)> {
    match txn {
        TxnRequest::BankDeposit { account, amount } => vec![(*account, *amount)],
        TxnRequest::BankTransfer { from, to, amount } => vec![(*from, -*amount), (*to, *amount)],
        _ => Vec::new(),
    }
}

fn add(map: &mut HashMap<i64, i64>, txn: &TxnRequest, sign: i64) {
    for (account, d) in deltas(txn) {
        let e = map.entry(account).or_insert(0);
        *e += sign * d;
        if *e == 0 {
            map.remove(&account);
        }
    }
}

/// Check 2. `answered[c]` is how many of `scripts[c]` were answered.
pub fn check_balances(
    db: &Database,
    scripts: &[Vec<TxnRequest>],
    answered: &[usize],
) -> Result<(), String> {
    // What the final state still owes the answered history, per account.
    let mut owed: HashMap<i64, i64> = HashMap::new();
    for (script, n) in scripts.iter().zip(answered) {
        for txn in &script[..*n] {
            add(&mut owed, txn, 1);
        }
    }
    let rs = db
        .execute("SELECT id, balance FROM accounts")
        .map_err(|e| e.to_string())?;
    let mut total = 0i64;
    for row in &rs.rows {
        let (id, balance) = (row[0].as_int().unwrap_or(-1), row[1].as_int().unwrap_or(0));
        total += balance;
        let e = owed.entry(id).or_insert(0);
        *e -= balance - INITIAL_BALANCE;
        if *e == 0 {
            owed.remove(&id);
        }
    }
    // `owed` is now minus the effect of whatever else was applied: it must
    // be explained by a subset of the in-flight transactions.
    let in_flight: Vec<&TxnRequest> = scripts
        .iter()
        .zip(answered)
        .filter_map(|(s, n)| s.get(*n))
        .collect();
    let explained = (0u32..1 << in_flight.len()).any(|subset| {
        let mut rest = owed.clone();
        for (i, txn) in in_flight.iter().enumerate() {
            if subset & (1 << i) != 0 {
                add(&mut rest, txn, 1);
            }
        }
        rest.is_empty()
    });
    if !explained {
        let mut sample: Vec<_> = owed.iter().take(5).collect();
        sample.sort();
        return Err(format!(
            "{} accounts differ from the answered history beyond any subset of the {} \
             in-flight transactions (account, missing delta): {sample:?}",
            owed.len(),
            in_flight.len()
        ));
    }
    let only_transfers = scripts
        .iter()
        .flatten()
        .all(|t| matches!(t, TxnRequest::BankTransfer { .. }));
    let expected = rs.rows.len() as i64 * INITIAL_BALANCE;
    if only_transfers && total != expected {
        return Err(format!(
            "bank total {total} != {expected}: transfers not conserved"
        ));
    }
    Ok(())
}

/// Check 4's input: the first [`HISTORY_PREFIX`] observations in answer
/// order, plus every *write* submitted before the prefix's last answer
/// (they may precede a read in the prefix). Reads answered after the
/// prefix are left out: their own bounds would need writes beyond it.
pub fn history_prefix(data: &RunData, scripts: &[Vec<TxnRequest>]) -> Vec<Observation> {
    let mut all: Vec<(u64, u64, usize, usize)> = data
        .answered
        .iter()
        .enumerate()
        .flat_map(|(c, v)| {
            v.iter()
                .enumerate()
                .filter(|(_, a)| a.committed)
                .map(move |(i, a)| (a.answered, a.submitted, c, i))
        })
        .collect();
    all.sort_unstable();
    let cut = all.len().min(HISTORY_PREFIX);
    let Some(&(last_answer, ..)) = all[..cut].last() else {
        return Vec::new();
    };
    let observe = |&(answered, submitted, c, i): &(u64, u64, usize, usize)| Observation {
        submitted: VTime::from_micros(submitted),
        answered: VTime::from_micros(answered),
        txn: scripts[c][i].clone(),
        result: data.results[c].get(i).cloned().unwrap_or_default(),
    };
    let tail = all[cut..]
        .iter()
        .filter(|(_, submitted, c, i)| *submitted < last_answer && !scripts[*c][*i].is_read_only());
    all[..cut].iter().chain(tail).map(observe).collect()
}

/// Every check; the first failure is the error.
pub fn check_outputs(
    spec: &Spec,
    d: &Deployed,
    data: &RunData,
    scripts: &[Vec<TxnRequest>],
) -> Result<(), String> {
    if data.settled.is_none() {
        return Err("active replicas never settled on equal table contents".into());
    }
    let active = &d.dbs[..spec.active_replicas()];
    for (c, answers) in data.answered.iter().enumerate() {
        for (i, a) in answers.iter().enumerate() {
            if !a.committed && !aborts_by_design(&scripts[c][i]) {
                return Err(format!("client {c} txn {i} aborted: {:?}", scripts[c][i]));
            }
        }
    }
    if spec.is_bank() {
        let answered: Vec<usize> = data.answered.iter().map(Vec::len).collect();
        // Replicas are equal, so one stands for all.
        check_balances(&active[0], scripts, &answered)?;
        check_bank_history_concurrent(&history_prefix(data, scripts), INITIAL_BALANCE)
            .map_err(|v| format!("history prefix not strictly serializable: {v}"))?;
    } else {
        for (i, db) in active.iter().enumerate() {
            tpcc::check_consistency(db).map_err(|e| format!("replica {i}: tpcc {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_workloads::bank;

    fn transfer(from: i64, to: i64, amount: i64) -> TxnRequest {
        TxnRequest::BankTransfer { from, to, amount }
    }

    fn bank_db(scripts: &[Vec<TxnRequest>], applied: &[usize]) -> Database {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 16).unwrap();
        for (s, n) in scripts.iter().zip(applied) {
            for t in &s[..*n] {
                t.apply(&db).unwrap();
            }
        }
        db
    }

    #[test]
    fn balances_accept_answered_plus_any_in_flight_subset() {
        let scripts = vec![
            vec![transfer(1, 2, 10), transfer(2, 3, 5), transfer(9, 1, 7)],
            vec![transfer(4, 5, 1), transfer(5, 1, 2)],
        ];
        // Client 0 saw 2 answers, client 1 saw 1; the replica applied
        // client 0's in-flight third transaction but not client 1's.
        let db = bank_db(&scripts, &[3, 1]);
        check_balances(&db, &scripts, &[2, 1]).expect("in-flight subset explains it");
        // Exactly the answered prefix is fine too.
        let db = bank_db(&scripts, &[2, 1]);
        check_balances(&db, &scripts, &[2, 1]).expect("nothing in flight applied");
    }

    #[test]
    fn balances_reject_lost_and_duplicated_updates() {
        let scripts = vec![vec![transfer(1, 2, 10), transfer(2, 3, 5)]];
        // Lost update: client saw 2 answers, replica applied 1.
        let db = bank_db(&scripts, &[1]);
        assert!(check_balances(&db, &scripts, &[2]).is_err());
        // Duplicate execution of an answered transaction.
        let db = bank_db(&scripts, &[2]);
        scripts[0][0].apply(&db).unwrap();
        assert!(check_balances(&db, &scripts, &[2]).is_err());
        // Non-conserving corruption.
        let db = bank_db(&scripts, &[2]);
        db.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 7")
            .unwrap();
        assert!(check_balances(&db, &scripts, &[2]).is_err());
    }
}
