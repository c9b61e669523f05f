//! Strict two-phase locking with timeout-abort.
//!
//! The paper's baseline engines differ crucially in lock granularity: "H2
//! does not offer row-level locks" and "the in-memory storage engine of
//! MySQL only provides table locking", while InnoDB locks rows. Under
//! contention, table-locking engines time out trying to lock the table and
//! abort — the mechanism behind the early saturation of H2 replication in
//! Fig. 9(a). This lock manager implements both granularities with
//! shared/exclusive modes, upgrades, and timeout.

use crate::value::SqlValue;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Locking granularity of an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockGranularity {
    /// Whole-table locks (H2, HSQLDB default, MySQL memory engine).
    Table,
    /// Row-level locks (InnoDB-like).
    Row,
}

/// Lock modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

/// A lockable resource.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A whole table.
    Table(String),
    /// One row, identified by table and primary key.
    Row(String, Vec<SqlValue>),
}

impl Resource {
    /// The table this resource belongs to.
    pub fn table(&self) -> &str {
        match self {
            Resource::Table(t) | Resource::Row(t, _) => t,
        }
    }
}

/// Transaction identity for the lock manager.
pub type TxnId = u64;

/// Restriction of a database's lock table to one shard's slice of the
/// keyspace. In a sharded deployment each replica group stores only its
/// own partition; scoping the lock table enforces that at apply time — a
/// transaction misrouted to the wrong group fails to lock (and therefore
/// to write) rows it does not own, instead of silently materialising
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardScope {
    /// Total number of shards (1 admits everything).
    pub shards: usize,
    /// The shard this database owns.
    pub shard: usize,
    /// `(table, offset)` rules: an integer first key `k` of a listed
    /// table belongs here iff `(k - offset).rem_euclid(shards) == shard`.
    /// Unlisted tables are exempt — replicated catalogs (TPC-C `item`)
    /// and append-only side tables (`history`) live on every shard.
    pub tables: Vec<(String, i64)>,
}

impl ShardScope {
    /// Scope for the bank schema: `accounts` keyed directly by id.
    pub fn bank(shards: usize, shard: usize) -> ShardScope {
        ShardScope {
            shards,
            shard,
            tables: vec![("accounts".into(), 0)],
        }
    }

    /// Scope for the TPC-C schema: every warehouse-keyed table leads its
    /// primary key with the (1-based) warehouse id.
    pub fn tpcc(shards: usize, shard: usize) -> ShardScope {
        let tables = [
            "warehouse",
            "district",
            "customer",
            "orders",
            "new_order",
            "order_line",
            "stock",
        ];
        ShardScope {
            shards,
            shard,
            tables: tables.iter().map(|t| (t.to_string(), 1)).collect(),
        }
    }

    /// Whether a row of `table` with primary key `key` belongs to this
    /// shard. Non-integer and missing first keys are admitted: the scope
    /// is a routing guard, not a type checker.
    pub fn admits(&self, table: &str, key: &[SqlValue]) -> bool {
        if self.shards <= 1 {
            return true;
        }
        let Some((_, offset)) = self.tables.iter().find(|(t, _)| t == table) else {
            return true;
        };
        match key.first() {
            Some(SqlValue::Int(k)) => {
                (k - offset).rem_euclid(self.shards as i64) == self.shard as i64
            }
            _ => true,
        }
    }
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders and their strongest mode.
    holders: HashMap<TxnId, LockMode>,
}

impl LockState {
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|(t, m)| *t == txn || *m == LockMode::Shared),
            LockMode::Exclusive => self.holders.keys().all(|t| *t == txn),
        }
    }
}

/// The lock manager: blocking acquisition with timeout.
#[derive(Debug, Default)]
pub struct LockManager {
    table: Mutex<HashMap<Resource, LockState>>,
    changed: Condvar,
    scope: Mutex<Option<ShardScope>>,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Restricts the lock table to one shard's key slice.
    pub fn set_scope(&self, scope: ShardScope) {
        *self.scope.lock() = Some(scope);
    }

    /// Whether a row of `table` keyed `key` is inside the shard scope
    /// (vacuously true when unscoped).
    pub fn admits(&self, table: &str, key: &[SqlValue]) -> bool {
        match &*self.scope.lock() {
            Some(s) => s.admits(table, key),
            None => true,
        }
    }

    fn res_in_scope(&self, res: &Resource) -> bool {
        match res {
            Resource::Table(_) => true,
            Resource::Row(t, key) => self.admits(t, key),
        }
    }

    /// Acquires (or upgrades to) `mode` on `res` for `txn`, waiting at most
    /// `timeout`. Returns `false` on timeout — the caller must abort, as
    /// the engines the paper measures do. Rows outside the shard scope are
    /// refused immediately.
    pub fn acquire(&self, txn: TxnId, res: Resource, mode: LockMode, timeout: Duration) -> bool {
        if !self.res_in_scope(&res) {
            return false;
        }
        let deadline = Instant::now() + timeout;
        let mut table = self.table.lock();
        loop {
            let state = table.entry(res.clone()).or_default();
            if let Some(held) = state.holders.get(&txn) {
                if *held == LockMode::Exclusive || mode == LockMode::Shared {
                    return true; // already strong enough
                }
            }
            if state.compatible(txn, mode) {
                state.holders.insert(txn, mode);
                return true;
            }
            if self.changed.wait_until(&mut table, deadline).timed_out() {
                return false;
            }
        }
    }

    /// Non-blocking acquisition attempt.
    pub fn try_acquire(&self, txn: TxnId, res: Resource, mode: LockMode) -> bool {
        if !self.res_in_scope(&res) {
            return false;
        }
        let mut table = self.table.lock();
        let state = table.entry(res.clone()).or_default();
        if let Some(held) = state.holders.get(&txn) {
            if *held == LockMode::Exclusive || mode == LockMode::Shared {
                return true;
            }
        }
        if state.compatible(txn, mode) {
            state.holders.insert(txn, mode);
            true
        } else {
            false
        }
    }

    /// Releases every lock held by `txn` (commit or abort).
    pub fn release_all(&self, txn: TxnId) {
        let mut table = self.table.lock();
        table.retain(|_, state| {
            state.holders.remove(&txn);
            !state.holders.is_empty()
        });
        self.changed.notify_all();
    }

    /// Number of currently locked resources (for tests).
    pub fn locked_resources(&self) -> usize {
        self.table.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn table_res() -> Resource {
        Resource::Table("t".into())
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, table_res(), LockMode::Shared));
        assert!(lm.try_acquire(2, table_res(), LockMode::Shared));
        assert!(!lm.try_acquire(3, table_res(), LockMode::Exclusive));
        lm.release_all(1);
        lm.release_all(2);
        assert!(lm.try_acquire(3, table_res(), LockMode::Exclusive));
    }

    #[test]
    fn exclusive_excludes() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, table_res(), LockMode::Exclusive));
        assert!(!lm.try_acquire(2, table_res(), LockMode::Shared));
        assert!(lm.try_acquire(1, table_res(), LockMode::Shared)); // reentrant
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, table_res(), LockMode::Shared));
        assert!(lm.try_acquire(1, table_res(), LockMode::Exclusive));
        assert!(!lm.try_acquire(2, table_res(), LockMode::Shared));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, table_res(), LockMode::Shared));
        assert!(lm.try_acquire(2, table_res(), LockMode::Shared));
        assert!(!lm.try_acquire(1, table_res(), LockMode::Exclusive));
    }

    #[test]
    fn row_locks_are_independent() {
        let lm = LockManager::new();
        let r1 = Resource::Row("t".into(), vec![SqlValue::Int(1)]);
        let r2 = Resource::Row("t".into(), vec![SqlValue::Int(2)]);
        assert!(lm.try_acquire(1, r1.clone(), LockMode::Exclusive));
        assert!(lm.try_acquire(2, r2, LockMode::Exclusive));
        assert!(!lm.try_acquire(2, r1, LockMode::Exclusive));
    }

    #[test]
    fn acquire_times_out_then_succeeds_after_release() {
        let lm = Arc::new(LockManager::new());
        assert!(lm.acquire(
            1,
            table_res(),
            LockMode::Exclusive,
            Duration::from_millis(10)
        ));
        // Contender times out while txn 1 holds the lock.
        assert!(!lm.acquire(
            2,
            table_res(),
            LockMode::Exclusive,
            Duration::from_millis(30)
        ));
        // Release in another thread while a waiter blocks.
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || {
            lm2.acquire(
                3,
                Resource::Table("t".into()),
                LockMode::Exclusive,
                Duration::from_secs(5),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        lm.release_all(1);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn shard_scope_rejects_foreign_rows() {
        let lm = LockManager::new();
        lm.set_scope(ShardScope::bank(2, 0));
        let own = Resource::Row("accounts".into(), vec![SqlValue::Int(4)]);
        let foreign = Resource::Row("accounts".into(), vec![SqlValue::Int(5)]);
        assert!(lm.try_acquire(1, own, LockMode::Exclusive));
        assert!(!lm.try_acquire(1, foreign.clone(), LockMode::Exclusive));
        assert!(!lm.acquire(1, foreign, LockMode::Shared, Duration::from_secs(5)));
        // Unlisted tables and table-level locks stay exempt.
        assert!(lm.try_acquire(
            1,
            Resource::Row("item".into(), vec![SqlValue::Int(5)]),
            LockMode::Exclusive
        ));
        assert!(lm.try_acquire(1, Resource::Table("accounts".into()), LockMode::Shared));
    }

    #[test]
    fn tpcc_scope_uses_one_based_warehouses() {
        let s = ShardScope::tpcc(2, 1);
        // Warehouse 2 → (2-1) % 2 == 1 → shard 1.
        assert!(s.admits("warehouse", &[SqlValue::Int(2)]));
        assert!(!s.admits("warehouse", &[SqlValue::Int(1)]));
        assert!(s.admits("stock", &[SqlValue::Int(2), SqlValue::Int(77)]));
        assert!(!s.admits("order_line", &[SqlValue::Int(1), SqlValue::Int(3)]));
        // item is replicated, history is append-only: both exempt.
        assert!(s.admits("item", &[SqlValue::Int(1)]));
        assert!(s.admits("history", &[SqlValue::Int(1)]));
        // Single shard admits everything.
        assert!(ShardScope::bank(1, 0).admits("accounts", &[SqlValue::Int(7)]));
    }

    #[test]
    fn release_all_clears_state() {
        let lm = LockManager::new();
        lm.try_acquire(1, table_res(), LockMode::Exclusive);
        lm.try_acquire(
            1,
            Resource::Row("t".into(), vec![SqlValue::Int(1)]),
            LockMode::Exclusive,
        );
        assert_eq!(lm.locked_resources(), 2);
        lm.release_all(1);
        assert_eq!(lm.locked_resources(), 0);
    }
}
