//! The database engine: transactions, execution, undo, and a
//! per-database plan cache keyed by statement shape.
//!
//! Replicated execution re-runs a small set of stored procedures
//! thousands of times, each formatting its arguments into fixed SQL. The
//! engine therefore keeps a bounded cache keyed by a statement's *shape*
//! ([`crate::sql::shape`]: the text with every numeric and string literal
//! replaced by `?`), holding the shape's parsed [`Statement`] and — for
//! `SELECT`/`UPDATE`/`DELETE` — a resolved `Plan`: bound expressions,
//! fixed column positions, and the chosen [`AccessPath`], with parameter
//! slots where the literals were. Each execution binds its own literals
//! to those slots. Plans depend only on the catalog (schemas and
//! indexes), never on row data or literal values, so they are invalidated
//! by a monotone *DDL epoch* bumped on `CREATE TABLE`, `CREATE INDEX`,
//! `DROP TABLE`, snapshot restore, and rollback of DDL; DDL itself
//! bypasses the cache.
//!
//! A plan reads only the rows its predicate can match: an index range
//! pinned by `=` on leading key columns and bounded by `<`, `<=`, `>`,
//! `>=` on the next one, and — for `MIN`/`MAX` of that column, or `ORDER
//! BY` it with `LIMIT` — only one end of that range; a range that is the
//! whole predicate is counted without reading its rows. The virtual cost
//! charged does not depend on the path: `point_read_us` per matched row,
//! or `scan_row_us` per table row when the walk visits the whole table.

use crate::effects::{encode_changes, Effects, TableChanges};
use crate::expr::Expr;
use crate::lock::{LockGranularity, LockManager, LockMode, Resource, TxnId};
use crate::profile::EngineProfile;
use crate::schema::{DataType, TableSchema};
use crate::snapshot::Snapshot;
use crate::sql::{parse, parse_shape, shape, Aggregate, Projection, Statement};
use crate::table::{AccessPath, RowId, Table};
use crate::value::{Row, SharedRow, SqlValue};
use crate::{Result, SqlError};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many distinct statement shapes the plan cache holds.
const PLAN_CACHE_CAPACITY: usize = 128;

/// A resolved execution plan: everything name resolution and binding
/// produce for a statement shape, computed once per `(shape, DDL epoch)`.
struct Plan {
    /// The DDL epoch the plan was resolved under.
    epoch: u64,
    kind: PlanKind,
}

enum PlanKind {
    Select(SelectPlan),
    Update(UpdatePlan),
    Delete(Access),
}

/// What every planned statement reads: its table, its predicate bound to
/// column positions, and the access path chosen for that predicate.
struct Access {
    table: String,
    schema: TableSchema,
    filter: Option<Expr>,
    path: AccessPath,
}

struct SelectPlan {
    access: Access,
    read: Read,
    proj: ProjPlan,
    order_by: Option<(usize, bool)>,
    limit: Option<usize>,
    for_update: bool,
}

/// Which of the matches a select's walk finds it keeps.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Read {
    /// Every match, in walk order.
    All,
    /// The first `n` matches from one end of an ordered range — the low
    /// end, or the high end when `desc` — passing over rows whose
    /// `skip_null` column is NULL: `ORDER BY` the range column with
    /// `LIMIT n`, or its `MIN`/`MAX`. Every match is still counted for the
    /// virtual charge; only the kept rows are cloned.
    End {
        desc: bool,
        n: usize,
        skip_null: Option<usize>,
    },
}

enum ProjPlan {
    /// `*` with the column labels pre-extracted.
    Star(Vec<String>),
    /// Named columns: labels plus resolved positions.
    Cols(Vec<String>, Vec<usize>),
    Aggregates(Vec<Aggregate>),
}

struct UpdatePlan {
    access: Access,
    sets: Vec<(usize, Expr)>,
}

/// One cached statement shape: the parse always, the plan when resolvable.
struct CacheSlot {
    last_use: u64,
    stmt: Arc<Statement>,
    plan: Option<Arc<Plan>>,
}

/// Plan-cache counters since the database was created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Statements looked up by shape (everything but DDL).
    pub lookups: u64,
    /// Lookups that found the shape parsed and planned for the current
    /// catalog.
    pub hits: u64,
}

/// Bounded statement/plan cache keyed by statement shape.
#[derive(Default)]
struct StmtCache {
    map: HashMap<String, CacheSlot>,
    tick: u64,
    stats: PlanCacheStats,
}

impl StmtCache {
    fn lookup(&mut self, shape: &str, epoch: u64) -> Option<(Arc<Statement>, Option<Arc<Plan>>)> {
        self.tick += 1;
        self.stats.lookups += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(shape)?;
        slot.last_use = tick;
        // A plan from an older DDL epoch may carry stale column positions
        // or name a dropped index: hand back only the parse, and replan.
        let plan = slot.plan.clone().filter(|p| p.epoch == epoch);
        let planless = matches!(*slot.stmt, Statement::Insert { .. });
        self.stats.hits += u64::from(plan.is_some() || planless);
        Some((slot.stmt.clone(), plan))
    }

    fn attach_plan(&mut self, shape: &str, plan: Arc<Plan>) {
        if let Some(slot) = self.map.get_mut(shape) {
            slot.plan = Some(plan);
        }
    }

    fn insert(&mut self, shape: String, stmt: Arc<Statement>, plan: Option<Arc<Plan>>) {
        if self.map.len() >= PLAN_CACHE_CAPACITY && !self.map.contains_key(&shape) {
            // Evict the least-recently-used of a small sample, keeping the
            // miss path O(sample) instead of O(capacity).
            let victim = self
                .map
                .iter()
                .take(8)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.map.remove(&k);
            }
        }
        self.tick += 1;
        self.map.insert(
            shape,
            CacheSlot {
                last_use: self.tick,
                stmt,
                plan,
            },
        );
    }
}

/// A statement ready to run: its parse, its plan when the statement kind
/// has one, and the literals this execution binds to the plan's slots.
struct Prepared {
    stmt: Arc<Statement>,
    plan: Option<Arc<Plan>>,
    params: Vec<SqlValue>,
}

/// Whether `sql` is DDL (`CREATE …`, `DROP …`), which bypasses the cache.
fn is_ddl(sql: &str) -> bool {
    let head = sql.trim_start().as_bytes();
    let starts = |kw: &[u8]| head.len() >= kw.len() && head[..kw.len()].eq_ignore_ascii_case(kw);
    starts(b"create") || starts(b"drop")
}

/// The one way from SQL text to something runnable, for
/// [`Transaction::execute`] and [`Database::execute_read_only`] alike:
/// look the statement's shape up, parse and plan it on a miss, replan a
/// plan that predates the catalog. DDL is parsed on its own, uncached.
fn prepare(db: &Inner, sql: &str) -> Result<Prepared> {
    let shaped = if is_ddl(sql) { None } else { shape(sql) };
    let Some((shape, params)) = shaped else {
        // DDL, or text no shape stands for — which `parse` rejects.
        return Ok(Prepared {
            stmt: Arc::new(parse(sql)?),
            plan: None,
            params: Vec::new(),
        });
    };
    let epoch = db.ddl_epoch.load(Ordering::Acquire);
    let cached = db.plans.lock().lookup(&shape, epoch);
    let (stmt, plan) = match cached {
        Some((stmt, Some(plan))) => (stmt, Some(plan)),
        Some((stmt, None)) => {
            let plan = resolve_plan(db, &stmt)?.map(Arc::new);
            if let Some(plan) = &plan {
                db.plans.lock().attach_plan(&shape, plan.clone());
            }
            (stmt, plan)
        }
        None => {
            let stmt = Arc::new(parse_shape(&shape)?);
            let plan = resolve_plan(db, &stmt).map(|p| p.map(Arc::new));
            // A failed resolution (unknown table or column) still caches
            // the parse: the object may exist next time.
            let cached = plan.as_ref().ok().cloned().flatten();
            db.plans.lock().insert(shape, stmt.clone(), cached);
            (stmt, plan?)
        }
    };
    Ok(Prepared { stmt, plan, params })
}

/// The result of executing a statement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// Column labels (projection order).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Row>,
    /// Rows affected by DML.
    pub affected: usize,
}

/// An embedded database instance.
///
/// Cheap to clone (shared handle); concurrent transactions from multiple
/// threads are isolated by strict two-phase locking per the engine
/// profile's granularity.
#[derive(Clone)]
pub struct Database {
    inner: Arc<Inner>,
}

struct Inner {
    profile: EngineProfile,
    tables: RwLock<HashMap<String, Table>>,
    locks: LockManager,
    next_txn: AtomicU64,
    /// Statement/plan cache shared by every transaction on this database.
    plans: Mutex<StmtCache>,
    /// Bumped by every catalog change; a [`Plan`] resolved under an older
    /// epoch is discarded at lookup.
    ddl_epoch: AtomicU64,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("engine", &self.inner.profile.name)
            .field("tables", &self.inner.tables.read().len())
            .finish()
    }
}

impl Database {
    /// Creates an empty database with the given engine personality.
    pub fn new(profile: EngineProfile) -> Database {
        Database {
            inner: Arc::new(Inner {
                profile,
                tables: RwLock::new(HashMap::new()),
                locks: LockManager::new(),
                next_txn: AtomicU64::new(1),
                plans: Mutex::new(StmtCache::default()),
                ddl_epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The engine profile this database runs with.
    pub fn profile(&self) -> &EngineProfile {
        &self.inner.profile
    }

    /// Restricts this database to one shard's slice of the keyspace:
    /// writes to rows outside the scope fail with a constraint violation.
    /// Sharded loaders call this so a misrouted transaction is rejected
    /// at apply time instead of materialising foreign rows.
    pub fn set_shard_scope(&self, scope: crate::lock::ShardScope) {
        self.inner.locks.set_scope(scope);
    }

    /// Begins a transaction.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` mirrors a real driver's API.
    pub fn begin(&self) -> Result<Transaction> {
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        Ok(Transaction {
            db: self.inner.clone(),
            id,
            undo: Vec::new(),
            finished: false,
            virtual_us: 0,
        })
    }

    /// Convenience: runs one statement in its own transaction.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        let mut txn = self.begin()?;
        let r = txn.execute(sql);
        match r {
            Ok(rs) => {
                txn.commit()?;
                Ok(rs)
            }
            Err(e) => {
                let _ = txn.rollback();
                Err(e)
            }
        }
    }

    /// Number of rows in `table` (0 if absent) — a cheap metadata read.
    pub fn table_len(&self, table: &str) -> usize {
        self.inner
            .tables
            .read()
            .get(&table.to_lowercase())
            .map(Table::len)
            .unwrap_or(0)
    }

    /// Total data size in bytes across all tables.
    pub fn byte_size(&self) -> usize {
        self.inner
            .tables
            .read()
            .values()
            .map(Table::byte_size)
            .sum()
    }

    /// The plan cache's counters since this database was created.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plans.lock().stats
    }

    /// The statement shapes in the plan cache, sorted, each with its
    /// plan's access path — `pk(=,=,>=)`, `full scan`, … (see
    /// [`AccessPath`]'s `Display`) — followed by `min`, `max`, `first n`
    /// or `last n` when a select reads one end of its range; `None` for a
    /// shape without a plan (`INSERT`, or not resolved yet).
    pub fn cached_plans(&self) -> Vec<(String, Option<String>)> {
        let cache = self.inner.plans.lock();
        let mut out: Vec<(String, Option<String>)> = cache
            .map
            .iter()
            .map(|(shape, slot)| (shape.clone(), slot.plan.as_deref().map(describe)))
            .collect();
        out.sort();
        out
    }

    /// Bulk-inserts rows directly (loader fast path; bypasses SQL parsing
    /// and locking — callers must have exclusive use of the database, as
    /// during initial load or state transfer). The indexes' new entries
    /// are built in bulk ([`Table::insert_rows`]).
    ///
    /// # Errors
    ///
    /// Propagates schema violations; earlier rows stay inserted.
    pub fn insert_rows<I: IntoIterator<Item = Row>>(&self, table: &str, rows: I) -> Result<usize> {
        let mut tables = self.inner.tables.write();
        let t = tables
            .get_mut(&table.to_lowercase())
            .ok_or_else(|| SqlError::Unknown(format!("table {table}")))?;
        t.insert_rows(rows)
    }

    /// Executes a single read-only `SELECT` without touching the lock
    /// table: the statement is planned through the shared plan cache and
    /// evaluated under the catalog's reader guard only, so it can never
    /// block behind (or be blocked by) a write transaction's locks.
    /// Returns the result set and the virtual CPU cost charged, which is
    /// identical to what the locking path would charge.
    ///
    /// Isolation: this reads the *current* table contents. Replicated
    /// execution applies writes strictly serially and serves fast-path
    /// reads between group applies, so the state observed here is always
    /// committed state; a caller running concurrent mutating transactions
    /// on the same handle would instead see their in-place updates.
    ///
    /// # Errors
    ///
    /// Fails on anything that is not a plain `SELECT` (DML, DDL,
    /// `SELECT … FOR UPDATE`) and on unknown tables/columns.
    pub fn execute_read_only(&self, sql: &str) -> Result<(ResultSet, Duration)> {
        let Prepared { plan, params, .. } = prepare(&self.inner, sql)?;
        let Some(PlanKind::Select(p)) = plan.as_deref().map(|plan| &plan.kind) else {
            return Err(not_read_only());
        };
        if p.for_update {
            return Err(not_read_only());
        }
        let mut us = self.inner.profile.costs.per_statement_us;
        let matched = matched_rows_on(&self.inner, &p.access, p.read, &params, &mut us)?;
        let rs = project_select(p, matched)?;
        Ok((rs, Duration::from_micros(us)))
    }

    /// Takes a consistent snapshot of the entire database (schemas + rows).
    /// The caller is responsible for quiescing writers (replication
    /// executes transactions sequentially, so snapshots are taken between
    /// transactions).
    pub fn snapshot(&self) -> Snapshot {
        let tables = self.inner.tables.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        Snapshot::from_tables(names.iter().map(|n| &tables[*n]))
    }

    /// Applies effect sets in order under one transaction
    /// ([`Transaction::apply_effects`]) and returns the virtual cost.
    ///
    /// # Errors
    ///
    /// As [`Transaction::apply_effects`]; nothing is applied then.
    pub fn apply_effects<'a>(
        &self,
        sets: impl IntoIterator<Item = &'a Effects>,
    ) -> Result<Duration> {
        let mut txn = self.begin()?;
        for fx in sets {
            txn.apply_effects(fx)?;
        }
        let cost = txn.virtual_cost();
        txn.commit()?;
        Ok(cost)
    }

    /// An independent copy of this database: the same tables, indexes and
    /// rows (rows are immutable and shared until either copy replaces
    /// one) and shard scope, an empty lock table and plan cache: what a
    /// forked execution (the model checker's) needs, without rebuilding
    /// every table row by row the way [`Database::restore`] does.
    pub fn fork(&self) -> Database {
        let inner = &self.inner;
        Database {
            inner: Arc::new(Inner {
                profile: inner.profile.clone(),
                tables: RwLock::new(inner.tables.read().clone()),
                locks: inner.locks.fork(),
                next_txn: AtomicU64::new(inner.next_txn.load(Ordering::Relaxed)),
                plans: Mutex::new(StmtCache::default()),
                ddl_epoch: AtomicU64::new(inner.ddl_epoch.load(Ordering::Acquire)),
            }),
        }
    }

    /// Restores the database from a snapshot, replacing all contents. The
    /// tables share the snapshot's rows and build their indexes in bulk.
    ///
    /// # Errors
    ///
    /// Propagates schema violations in the snapshot.
    pub fn restore(&self, snapshot: &Snapshot) -> Result<()> {
        let mut tables = self.inner.tables.write();
        tables.clear();
        for dump in snapshot.tables() {
            let mut t = Table::new(dump.schema.clone());
            t.insert_rows(dump.rows.iter().cloned())?;
            for (name, columns) in &dump.indexes {
                t.create_index(name, columns)?;
            }
            tables.insert(dump.schema.name.clone(), t);
        }
        drop(tables);
        // The whole catalog was replaced: every cached plan is suspect.
        self.inner.ddl_epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }
}

/// One operation's undo record. A DDL record also keeps the statement's
/// text, which is how DDL appears among a transaction's effects.
enum Undo {
    Insert {
        table: String,
        rid: RowId,
    },
    Delete {
        table: String,
        rid: RowId,
        row: SharedRow,
    },
    Update {
        table: String,
        rid: RowId,
        old: SharedRow,
    },
    CreateTable {
        table: String,
        sql: String,
    },
    CreateIndex {
        table: String,
        name: String,
        sql: String,
    },
    DropTable {
        dropped: Box<Table>,
        sql: String,
    },
}

/// An open transaction. Dropped without [`Transaction::commit`], it rolls
/// back.
pub struct Transaction {
    db: Arc<Inner>,
    id: TxnId,
    undo: Vec<Undo>,
    finished: bool,
    virtual_us: u64,
}

impl Transaction {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Virtual CPU time consumed so far, per the engine's cost
    /// coefficients (used by the simulator).
    pub fn virtual_cost(&self) -> Duration {
        Duration::from_micros(self.virtual_us)
    }

    /// Executes one statement, going through the database's plan cache:
    /// a statement whose shape was seen before skips parsing, name
    /// resolution, expression binding, and access-path selection, and
    /// binds its literals to the cached plan.
    ///
    /// # Errors
    ///
    /// On [`SqlError::LockTimeout`] the transaction has been rolled back
    /// and must be retried from the start, as with the paper's engines.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        if self.finished {
            return Err(SqlError::TransactionClosed);
        }
        let r = prepare(&self.db, sql).and_then(|p| match &p.plan {
            Some(plan) => self.run_plan(plan, &p.params),
            None => self.dispatch(&p.stmt, &p.params),
        });
        if matches!(r, Err(SqlError::LockTimeout { .. })) {
            // Timeout aborts the transaction, like H2/MySQL.
            let _ = self.rollback_internal();
        }
        r
    }

    /// Parses and executes without consulting the plan cache — the
    /// reference the cache is checked against, and the comparator that
    /// measures what it saves.
    ///
    /// # Errors
    ///
    /// As [`Transaction::execute`].
    pub fn execute_uncached(&mut self, sql: &str) -> Result<ResultSet> {
        let stmt = parse(sql)?;
        self.run(stmt)
    }

    /// Executes a `SELECT` and returns its rows (convenience alias).
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        self.execute(sql)
    }

    /// Executes a pre-parsed statement (uncached: the plan is resolved
    /// transiently).
    pub fn run(&mut self, stmt: Statement) -> Result<ResultSet> {
        if self.finished {
            return Err(SqlError::TransactionClosed);
        }
        let r = self.dispatch(&stmt, &[]);
        if matches!(r, Err(SqlError::LockTimeout { .. })) {
            // Timeout aborts the transaction, like H2/MySQL.
            let _ = self.rollback_internal();
        }
        r
    }

    /// Marks the current undo position for [`Transaction::rollback_to`].
    pub fn savepoint(&self) -> usize {
        self.undo.len()
    }

    /// Undoes every change made after savepoint `sp` without closing the
    /// transaction. Locks acquired since are retained, per strict
    /// two-phase locking.
    ///
    /// # Errors
    ///
    /// Fails if the transaction is already finished.
    pub fn rollback_to(&mut self, sp: usize) -> Result<()> {
        if self.finished {
            return Err(SqlError::TransactionClosed);
        }
        let sp = sp.min(self.undo.len());
        self.undo_to(sp)
    }

    /// Commits, releasing all locks.
    ///
    /// # Errors
    ///
    /// Fails if the transaction is already finished.
    pub fn commit(&mut self) -> Result<()> {
        if self.finished {
            return Err(SqlError::TransactionClosed);
        }
        self.finished = true;
        self.undo.clear();
        self.db.locks.release_all(self.id);
        Ok(())
    }

    /// Rolls back all changes and releases locks.
    ///
    /// # Errors
    ///
    /// Fails if the transaction is already finished.
    pub fn rollback(&mut self) -> Result<()> {
        if self.finished {
            return Err(SqlError::TransactionClosed);
        }
        self.rollback_internal()
    }

    fn rollback_internal(&mut self) -> Result<()> {
        self.finished = true;
        self.undo_to(0)?;
        self.db.locks.release_all(self.id);
        Ok(())
    }

    /// Applies undo records from log position `from` to the end, newest
    /// first, under one catalog lock; bumps the DDL epoch if any undone
    /// operation changed the catalog.
    fn undo_to(&mut self, from: usize) -> Result<()> {
        let mut tables = self.db.tables.write();
        let mut ddl = false;
        for op in self.undo.drain(from..).rev() {
            match op {
                Undo::Insert { table, rid } => {
                    if let Some(t) = tables.get_mut(&table) {
                        t.delete(rid);
                    }
                }
                Undo::Delete { table, rid, row } => {
                    if let Some(t) = tables.get_mut(&table) {
                        t.restore(rid, row)?;
                    }
                }
                Undo::Update { table, rid, old } => {
                    if let Some(t) = tables.get_mut(&table) {
                        t.update(rid, old)?;
                    }
                }
                Undo::CreateTable { table, .. } => {
                    tables.remove(&table);
                    ddl = true;
                }
                Undo::CreateIndex { table, name, .. } => {
                    if let Some(t) = tables.get_mut(&table) {
                        t.drop_index(&name);
                    }
                    ddl = true;
                }
                Undo::DropTable { dropped, .. } => {
                    tables.insert(dropped.schema().name.clone(), *dropped);
                    ddl = true;
                }
            }
        }
        drop(tables);
        if ddl {
            self.db.ddl_epoch.fetch_add(1, Ordering::Release);
        }
        Ok(())
    }

    fn charge(&mut self, us: u64) {
        self.virtual_us += us;
    }

    /// A sharded database rejects writes to rows outside its slice of the
    /// keyspace regardless of lock granularity — this is the apply-time
    /// guard against misrouted transactions.
    fn check_scope(&self, table: &str, key: &[SqlValue]) -> Result<()> {
        if self.db.locks.admits(table, key) {
            return Ok(());
        }
        Err(SqlError::Constraint(format!(
            "row {key:?} of table {table} is outside this database's shard scope"
        )))
    }

    fn lock_write(&mut self, table: &str, key: &[SqlValue]) -> Result<()> {
        self.check_scope(table, key)?;
        let res = match self.db.profile.granularity {
            LockGranularity::Table => Resource::Table(table.to_owned()),
            LockGranularity::Row => Resource::Row(table.to_owned(), key.to_vec()),
        };
        if self.db.locks.acquire(
            self.id,
            res,
            LockMode::Exclusive,
            self.db.profile.lock_timeout,
        ) {
            Ok(())
        } else {
            Err(SqlError::LockTimeout {
                table: table.to_owned(),
            })
        }
    }

    fn lock_read(&mut self, table: &str) -> Result<()> {
        // Table-granularity engines take a shared table lock for reads;
        // row-granularity engines read without locks (read committed).
        if self.db.profile.granularity == LockGranularity::Table {
            let res = Resource::Table(table.to_owned());
            if !self
                .db
                .locks
                .acquire(self.id, res, LockMode::Shared, self.db.profile.lock_timeout)
            {
                return Err(SqlError::LockTimeout {
                    table: table.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Runs a statement from its parse: DDL and `INSERT` directly, the
    /// rest through a plan resolved for this one execution.
    fn dispatch(&mut self, stmt: &Statement, params: &[SqlValue]) -> Result<ResultSet> {
        match stmt {
            Statement::CreateTable(schema) => self.create_table(schema.clone()),
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => self.create_index(name, table, columns),
            Statement::DropTable { table } => self.drop_table(table),
            Statement::Insert { table, rows } => self.insert(table, rows, params),
            _ => {
                let plan = resolve_plan(&self.db, stmt)?
                    .expect("select/update/delete always resolve to a plan");
                self.run_plan(&plan, params)
            }
        }
    }

    /// Collects the `(rid, row)` pairs a planned predicate matches,
    /// charging index or scan cost per the access path actually taken.
    fn matched_rows(
        &mut self,
        access: &Access,
        read: Read,
        params: &[SqlValue],
    ) -> Result<Vec<(RowId, Row)>> {
        matched_rows_on(&self.db, access, read, params, &mut self.virtual_us)
    }

    fn run_select(&mut self, p: &SelectPlan, params: &[SqlValue]) -> Result<ResultSet> {
        let costs = self.db.profile.costs;
        self.charge(costs.per_statement_us);
        let a = &p.access;
        if p.for_update {
            // FOR UPDATE takes exclusive locks up front, then re-reads
            // under the locks.
            let rows = self.matched_rows(a, Read::All, params)?;
            for (_, row) in &rows {
                self.lock_write(&a.table, &a.schema.key_of(row))?;
            }
        } else {
            self.lock_read(&a.table)?;
        }
        let matched = self.matched_rows(a, p.read, params)?;
        project_select(p, matched)
    }
}

fn not_read_only() -> SqlError {
    SqlError::Constraint("statement is not a lockless read-only SELECT".into())
}

/// Resolves a statement against the current catalog: binds expressions,
/// fixes column positions, and chooses the access path and how a select
/// reads it. Returns `None` for statement kinds executed directly from
/// the parse (DDL, `INSERT`).
///
/// # Errors
///
/// Fails on unknown tables or columns, mirroring what execution of the
/// same statement would report.
fn resolve_plan(db: &Inner, stmt: &Statement) -> Result<Option<Plan>> {
    let (table, filter) = match stmt {
        Statement::Select(sel) => (&sel.table, &sel.filter),
        Statement::Update { table, filter, .. } | Statement::Delete { table, filter } => {
            (table, filter)
        }
        _ => return Ok(None),
    };
    let epoch = db.ddl_epoch.load(Ordering::Acquire);
    let tables = db.tables.read();
    let name = table.to_lowercase();
    let t = tables
        .get(&name)
        .ok_or_else(|| SqlError::Unknown(format!("table {table}")))?;
    let schema = t.schema().clone();
    let filter = filter.as_ref().map(|f| f.bind(&schema)).transpose()?;
    let path = t.plan_path(filter.as_ref());
    let range_order = t.range_order(&path);
    let access = Access {
        table: name,
        schema,
        filter,
        path,
    };
    let schema = &access.schema;
    let kind = match stmt {
        Statement::Select(sel) => {
            let order_by = match &sel.order_by {
                Some((c, desc)) => Some((schema.col(c)?, *desc)),
                None => None,
            };
            let proj = match &sel.projection {
                Projection::Star => {
                    ProjPlan::Star(schema.columns.iter().map(|c| c.name.clone()).collect())
                }
                Projection::Cols(cols) => {
                    let idx: Result<Vec<usize>> = cols.iter().map(|c| schema.col(c)).collect();
                    ProjPlan::Cols(cols.clone(), idx?)
                }
                Projection::Aggregates(aggs) => ProjPlan::Aggregates(aggs.clone()),
            };
            let read = match range_order {
                Some(order) if !sel.for_update => {
                    one_end(order, &proj, order_by, sel.limit, schema)
                }
                _ => Read::All,
            };
            PlanKind::Select(SelectPlan {
                access,
                read,
                proj,
                order_by,
                limit: sel.limit,
                for_update: sel.for_update,
            })
        }
        Statement::Update { sets, .. } => {
            let sets: Result<Vec<(usize, Expr)>> = sets
                .iter()
                .map(|(c, e)| Ok((schema.col(c)?, e.bind(schema)?)))
                .collect();
            PlanKind::Update(UpdatePlan {
                sets: sets?,
                access,
            })
        }
        _ => PlanKind::Delete(access),
    };
    Ok(Some(Plan { epoch, kind }))
}

/// Whether a select over a range ordered by column `col` — with no two
/// rows tying on it when `unique` — can read one end of the range
/// instead of every match: for `MIN(col)` or `MAX(col)` alone, or for
/// `ORDER BY col` with `LIMIT n`. Descending order needs `unique`: a
/// stable sort keeps tied rows in walk order, which the high end of the
/// range reverses.
fn one_end(
    (col, unique): (usize, bool),
    proj: &ProjPlan,
    order_by: Option<(usize, bool)>,
    limit: Option<usize>,
    schema: &TableSchema,
) -> Read {
    let extreme = |c: &String, desc| {
        (schema.col(c).ok() == Some(col)).then_some(Read::End {
            desc,
            n: 1,
            skip_null: Some(col),
        })
    };
    let read = match (proj, order_by, limit) {
        (ProjPlan::Aggregates(aggs), None, None) => match aggs.as_slice() {
            [Aggregate::Min(c)] => extreme(c, false),
            [Aggregate::Max(c)] => extreme(c, true),
            _ => None,
        },
        (ProjPlan::Star(_) | ProjPlan::Cols(..), Some((c, desc)), Some(n))
            if c == col && (unique || !desc) =>
        {
            Some(Read::End {
                desc,
                n,
                skip_null: None,
            })
        }
        _ => None,
    };
    read.unwrap_or(Read::All)
}

/// A plan in [`Database::cached_plans`]' words.
fn describe(plan: &Plan) -> String {
    let (access, read) = match &plan.kind {
        PlanKind::Select(p) => (&p.access, p.read),
        PlanKind::Update(p) => (&p.access, Read::All),
        PlanKind::Delete(a) => (a, Read::All),
    };
    let path = &access.path;
    match read {
        Read::All => path.to_string(),
        Read::End {
            desc,
            skip_null: Some(_),
            ..
        } => format!("{path} {}", if desc { "max" } else { "min" }),
        Read::End { desc, n, .. } => format!("{path} {} {n}", if desc { "last" } else { "first" }),
    }
}

/// Collects the `(rid, row)` pairs a planned predicate matches against
/// `db`'s current contents — all of them, or those `read` keeps — and
/// charges into `virtual_us` what the match cost: `scan_row_us` per row
/// when the walk visits the whole table, else `point_read_us` per match.
/// Takes only the catalog's reader guard — never the lock table.
fn matched_rows_on(
    db: &Inner,
    access: &Access,
    read: Read,
    params: &[SqlValue],
    virtual_us: &mut u64,
) -> Result<Vec<(RowId, Row)>> {
    let costs = db.profile.costs;
    let tables = db.tables.read();
    let t = tables
        .get(&access.table)
        .ok_or_else(|| SqlError::Unknown(format!("table {}", access.table)))?;
    let walk = t.walk(&access.path, params)?;
    let (desc, keep, skip_null) = match read {
        Read::All => (false, usize::MAX, None),
        Read::End { desc, n, skip_null } => (desc, n, skip_null),
    };
    // Without a filter to re-check, the walk is its own count and rows
    // are fetched only to be kept.
    let filter = access.filter.as_ref().filter(|_| !walk.exact);
    let mut rids = walk.rids;
    if desc {
        rids.reverse();
    }
    let mut matched = if filter.is_none() { rids.len() } else { 0 };
    let mut out = Vec::new();
    for rid in rids {
        if filter.is_none() && out.len() == keep {
            break;
        }
        let Some(row) = t.get(rid) else { continue };
        if let Some(f) = filter {
            if !f.matches(row, params)? {
                continue;
            }
            matched += 1;
        }
        if out.len() < keep && skip_null.is_none_or(|c| !row[c].is_null()) {
            out.push((rid, row.to_vec()));
        }
    }
    let scanned = (walk.whole_table && !t.is_empty()).then(|| t.len());
    drop(tables);
    *virtual_us += match scanned {
        Some(rows) => costs.scan_row_us * rows as u64,
        None => costs.point_read_us * matched.max(1) as u64,
    };
    Ok(out)
}

/// Orders, truncates, and projects a select's matched rows.
fn project_select(p: &SelectPlan, mut matched: Vec<(RowId, Row)>) -> Result<ResultSet> {
    if let Some((ci, desc)) = p.order_by {
        matched.sort_by(|(_, a), (_, b)| {
            let ord = a[ci].cmp(&b[ci]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(n) = p.limit {
        matched.truncate(n);
    }

    match &p.proj {
        ProjPlan::Star(cols) => Ok(ResultSet {
            columns: cols.clone(),
            rows: matched.into_iter().map(|(_, r)| r).collect(),
            affected: 0,
        }),
        ProjPlan::Cols(labels, idx) => Ok(ResultSet {
            columns: labels.clone(),
            rows: matched
                .into_iter()
                .map(|(_, r)| idx.iter().map(|&i| r[i].clone()).collect())
                .collect(),
            affected: 0,
        }),
        ProjPlan::Aggregates(aggs) => {
            let rows: Vec<Row> = matched.into_iter().map(|(_, r)| r).collect();
            let mut out = Vec::with_capacity(aggs.len());
            let mut labels = Vec::with_capacity(aggs.len());
            for agg in aggs {
                let (label, v) = eval_aggregate(agg, &p.access.schema, &rows)?;
                labels.push(label);
                out.push(v);
            }
            Ok(ResultSet {
                columns: labels,
                rows: vec![out],
                affected: 0,
            })
        }
    }
}

impl Transaction {
    fn run_plan(&mut self, plan: &Plan, params: &[SqlValue]) -> Result<ResultSet> {
        match &plan.kind {
            PlanKind::Select(p) => self.run_select(p, params),
            PlanKind::Update(p) => self.run_update(p, params),
            PlanKind::Delete(a) => self.run_delete(a, params),
        }
    }

    fn create_table(&mut self, schema: TableSchema) -> Result<ResultSet> {
        self.charge(self.db.profile.costs.per_statement_us);
        let mut tables = self.db.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(SqlError::Constraint(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let name = schema.name.clone();
        let sql = create_table_sql(&schema);
        tables.insert(name.clone(), Table::new(schema));
        self.undo.push(Undo::CreateTable { table: name, sql });
        drop(tables);
        self.db.ddl_epoch.fetch_add(1, Ordering::Release);
        Ok(ResultSet::default())
    }

    fn create_index(&mut self, name: &str, table: &str, columns: &[String]) -> Result<ResultSet> {
        self.charge(self.db.profile.costs.per_statement_us);
        let table = table.to_lowercase();
        let mut tables = self.db.tables.write();
        let t = tables
            .get_mut(&table)
            .ok_or_else(|| SqlError::Unknown(format!("table {table}")))?;
        t.create_index(name, columns)?;
        let sql = format!("CREATE INDEX {name} ON {table} ({})", columns.join(", "));
        self.undo.push(Undo::CreateIndex {
            table,
            name: name.to_owned(),
            sql,
        });
        drop(tables);
        // Cached full-scan plans over this table must re-plan to pick the
        // new index up.
        self.db.ddl_epoch.fetch_add(1, Ordering::Release);
        Ok(ResultSet::default())
    }

    fn drop_table(&mut self, table: &str) -> Result<ResultSet> {
        self.charge(self.db.profile.costs.per_statement_us);
        let table = table.to_lowercase();
        if !self.db.tables.read().contains_key(&table) {
            return Err(SqlError::Unknown(format!("table {table}")));
        }
        // Exclusive table lock regardless of granularity: no engine drops
        // a table out from under a concurrent writer.
        if !self.db.locks.acquire(
            self.id,
            Resource::Table(table.clone()),
            LockMode::Exclusive,
            self.db.profile.lock_timeout,
        ) {
            return Err(SqlError::LockTimeout { table });
        }
        let mut tables = self.db.tables.write();
        let t = tables
            .remove(&table)
            .ok_or_else(|| SqlError::Unknown(format!("table {table}")))?;
        self.undo.push(Undo::DropTable {
            dropped: Box::new(t),
            sql: format!("DROP TABLE {table}"),
        });
        drop(tables);
        self.db.ddl_epoch.fetch_add(1, Ordering::Release);
        Ok(ResultSet::default())
    }

    fn insert(
        &mut self,
        table: &str,
        rows: &[Vec<crate::sql::ExprAst>],
        params: &[SqlValue],
    ) -> Result<ResultSet> {
        let table = table.to_lowercase();
        let costs = self.db.profile.costs;
        self.charge(costs.per_statement_us);
        // Evaluate the constant rows first (no locks needed).
        let mut values: Vec<Row> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut out = Vec::with_capacity(row.len());
            for e in row {
                out.push(e.eval_const(params)?);
            }
            values.push(out);
        }
        let mut affected = 0;
        for row in values {
            let key = {
                let tables = self.db.tables.read();
                let t = tables
                    .get(&table)
                    .ok_or_else(|| SqlError::Unknown(format!("table {table}")))?;
                t.schema().check_row(&row)?;
                t.schema().key_of(&row)
            };
            self.lock_write(&table, &key)?;
            let rid = {
                let mut tables = self.db.tables.write();
                let t = tables.get_mut(&table).expect("checked above");
                t.insert(row)?
            };
            self.undo.push(Undo::Insert {
                table: table.clone(),
                rid,
            });
            self.charge(costs.write_us);
            affected += 1;
        }
        Ok(ResultSet {
            affected,
            ..ResultSet::default()
        })
    }

    fn run_update(&mut self, p: &UpdatePlan, params: &[SqlValue]) -> Result<ResultSet> {
        let costs = self.db.profile.costs;
        self.charge(costs.per_statement_us);
        let a = &p.access;
        let matched = self.matched_rows(a, Read::All, params)?;
        let mut affected = 0;
        for (rid, old_row) in matched {
            self.lock_write(&a.table, &a.schema.key_of(&old_row))?;
            // Matching ran before the lock was held: re-read the row and
            // re-validate the predicate against its *current* contents, or
            // concurrent writers would be lost.
            let current = {
                let tables = self.db.tables.read();
                tables
                    .get(&a.table)
                    .and_then(|t| t.get(rid).map(<[_]>::to_vec))
            };
            let Some(current) = current else { continue };
            if let Some(f) = &a.filter {
                if !f.matches(&current, params)? {
                    continue;
                }
            }
            let mut new_row = current.clone();
            for (ci, e) in &p.sets {
                new_row[*ci] = e.eval(&current, params)?;
            }
            {
                let mut tables = self.db.tables.write();
                let t = tables.get_mut(&a.table).expect("checked");
                let old = t.update(rid, new_row)?;
                self.undo.push(Undo::Update {
                    table: a.table.clone(),
                    rid,
                    old,
                });
            }
            affected += 1;
            self.charge(costs.write_us);
        }
        Ok(ResultSet {
            affected,
            ..ResultSet::default()
        })
    }

    fn run_delete(&mut self, a: &Access, params: &[SqlValue]) -> Result<ResultSet> {
        let costs = self.db.profile.costs;
        self.charge(costs.per_statement_us);
        let matched = self.matched_rows(a, Read::All, params)?;
        let mut affected = 0;
        for (rid, row) in matched {
            self.lock_write(&a.table, &a.schema.key_of(&row))?;
            let mut tables = self.db.tables.write();
            let t = tables.get_mut(&a.table).expect("checked");
            // Re-validate under the lock (see update).
            let still_matches = match (t.get(rid), &a.filter) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(r), Some(f)) => f.matches(r, params)?,
            };
            if still_matches {
                if let Some(old) = t.delete(rid) {
                    self.undo.push(Undo::Delete {
                        table: a.table.clone(),
                        rid,
                        row: old,
                    });
                    affected += 1;
                    drop(tables);
                    self.charge(costs.write_us);
                }
            }
        }
        Ok(ResultSet {
            affected,
            ..ResultSet::default()
        })
    }
}

impl Transaction {
    /// The net effects of everything this transaction did since savepoint
    /// `sp` ([`crate::effects`]), read off the undo log and the rows as
    /// they stand now — so take them before anything later in the
    /// transaction writes those rows again.
    pub fn effects_since(&self, sp: usize) -> Effects {
        let log = &self.undo[sp.min(self.undo.len())..];
        if log.is_empty() {
            return Effects::default();
        }
        let mut ddl: Vec<&str> = Vec::new();
        // A table created or dropped in the log starts afresh there: the
        // row changes before its last such statement went with the
        // incarnation the statement replaced.
        let mut fresh_from: HashMap<&str, usize> = HashMap::new();
        for (i, op) in log.iter().enumerate() {
            match op {
                Undo::CreateTable { table, sql } => {
                    fresh_from.insert(table, i);
                    ddl.push(sql);
                }
                Undo::DropTable { dropped, sql } => {
                    fresh_from.insert(&dropped.schema().name, i);
                    ddl.push(sql);
                }
                Undo::CreateIndex { sql, .. } => ddl.push(sql),
                _ => {}
            }
        }
        // Every touched row once, in log order (inserted rows thus in row
        // id order), with its image from before the transaction — `None`
        // for a row the transaction inserted.
        let mut touched: Vec<(&str, RowId, Option<&SharedRow>)> = Vec::new();
        let mut seen: HashSet<(&str, RowId)> = HashSet::new();
        for (i, op) in log.iter().enumerate() {
            let (table, rid, before) = match op {
                Undo::Insert { table, rid } => (table.as_str(), *rid, None),
                Undo::Delete { table, rid, row } => (table.as_str(), *rid, Some(row)),
                Undo::Update { table, rid, old } => (table.as_str(), *rid, Some(old)),
                _ => continue,
            };
            if fresh_from.get(table).is_some_and(|&f| i < f) {
                continue;
            }
            if seen.insert((table, rid)) {
                touched.push((table, rid, before));
            }
        }
        let tables = self.db.tables.read();
        let mut changes: Vec<TableChanges> = Vec::new();
        for (name, rid, before) in touched {
            let Some(t) = tables.get(name) else { continue };
            let i = match changes.iter().position(|c| c.table == name) {
                Some(i) => i,
                None => {
                    changes.push(TableChanges {
                        table: name,
                        primary_key: &t.schema().primary_key,
                        changes: Vec::new(),
                    });
                    changes.len() - 1
                }
            };
            changes[i].changes.push((before.map(|b| &**b), t.get(rid)));
        }
        encode_changes(&ddl, &changes)
    }

    /// Applies effects captured by [`Transaction::effects_since`] on a
    /// database in the state they were captured from: DDL first, then per
    /// table the deletes, re-keyed rows, updates and inserts, through the
    /// table layer (indexes maintained, write locks taken, nothing
    /// planned, read through a predicate or evaluated). Charges the
    /// engine profile's per-statement cost per DDL statement and its
    /// per-row write cost per row written.
    ///
    /// # Errors
    ///
    /// Malformed effects, or a database the effects do not fit (a deleted
    /// or updated key that is absent, an inserted key that exists): the
    /// transaction must then be rolled back.
    pub fn apply_effects(&mut self, fx: &Effects) -> Result<()> {
        if self.finished {
            return Err(SqlError::TransactionClosed);
        }
        if fx.is_empty() {
            return Ok(());
        }
        let set = fx.decode()?;
        for sql in &set.ddl {
            self.dispatch(&parse(sql)?, &[])?;
        }
        let write_us = self.db.profile.costs.write_us;
        let db = self.db.clone();
        for t in set.tables {
            let name = t.table.as_str();
            let pk = match db.tables.read().get(name) {
                Some(tbl) => tbl.schema().primary_key.clone(),
                None => return Err(SqlError::Unknown(format!("table {name}"))),
            };
            let key_of =
                |row: &Row| -> Row { pk.iter().filter_map(|&i| row.get(i).cloned()).collect() };
            let keys = t.deletes.iter().chain(t.rekeys.iter().map(|(k, _)| k));
            let keys = keys
                .chain(t.updates.iter().map(|(k, _)| k))
                .map(Cow::Borrowed);
            let new_keys = t.rekeys.iter().map(|(_, r)| r).chain(&t.inserts);
            let keys = keys.chain(new_keys.map(|r| Cow::Owned(key_of(r))));
            // A table-locking engine takes its one lock once; each key
            // must still lie inside the shard scope.
            let table_lock = self.db.profile.granularity == LockGranularity::Table;
            for (i, key) in keys.enumerate() {
                if table_lock && i > 0 {
                    self.check_scope(name, &key)?;
                } else {
                    self.lock_write(name, &key)?;
                }
            }
            self.charge(write_us * t.rows() as u64);
            let mut tables = db.tables.write();
            let tbl = tables.get_mut(name).expect("checked above");
            let row_of = |tbl: &Table, key: &Row| {
                tbl.lookup_pk(key).ok_or_else(|| {
                    SqlError::Constraint(format!("effects name row {key:?} absent from {name}"))
                })
            };
            for key in &t.deletes {
                let rid = row_of(tbl, key)?;
                let row = tbl.delete(rid).expect("an indexed row exists");
                self.undo.push(Undo::Delete {
                    table: t.table.clone(),
                    rid,
                    row,
                });
            }
            // Two phases, so keys may trade places: every re-keyed row
            // leaves, then each returns under its own row id.
            let mut moved = Vec::with_capacity(t.rekeys.len());
            for (key, row) in t.rekeys {
                let rid = row_of(tbl, &key)?;
                let old = tbl.delete(rid).expect("an indexed row exists");
                self.undo.push(Undo::Delete {
                    table: t.table.clone(),
                    rid,
                    row: old,
                });
                moved.push((rid, row));
            }
            for (rid, row) in moved {
                tbl.restore(rid, row)?;
                self.undo.push(Undo::Insert {
                    table: t.table.clone(),
                    rid,
                });
            }
            for (key, cols) in t.updates {
                let rid = row_of(tbl, &key)?;
                let old = tbl.update_columns(rid, cols)?;
                self.undo.push(Undo::Update {
                    table: t.table.clone(),
                    rid,
                    old,
                });
            }
            for row in t.inserts {
                let rid = tbl.insert(row)?;
                self.undo.push(Undo::Insert {
                    table: t.table.clone(),
                    rid,
                });
            }
        }
        Ok(())
    }
}

/// `CREATE TABLE` text that parses back to `schema`.
fn create_table_sql(schema: &TableSchema) -> String {
    let cols: Vec<String> = schema
        .columns
        .iter()
        .map(|c| {
            let ty = match c.dtype {
                DataType::Int => "INT",
                DataType::Real => "REAL",
                DataType::Text => "TEXT",
            };
            format!("{} {ty}", c.name)
        })
        .collect();
    let pk: Vec<&str> = schema
        .primary_key
        .iter()
        .map(|&i| schema.columns[i].name.as_str())
        .collect();
    format!(
        "CREATE TABLE {} ({}, PRIMARY KEY ({}))",
        schema.name,
        cols.join(", "),
        pk.join(", ")
    )
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.rollback_internal();
        }
    }
}

fn eval_aggregate(
    agg: &Aggregate,
    schema: &TableSchema,
    rows: &[Row],
) -> Result<(String, SqlValue)> {
    let col_vals = |name: &str| -> Result<Vec<SqlValue>> {
        let ci = schema.col(name)?;
        Ok(rows
            .iter()
            .map(|r| r[ci].clone())
            .filter(|v| !v.is_null())
            .collect())
    };
    Ok(match agg {
        Aggregate::CountStar => ("count(*)".into(), SqlValue::Int(rows.len() as i64)),
        Aggregate::Count(c) => (
            format!("count({c})"),
            SqlValue::Int(col_vals(c)?.len() as i64),
        ),
        Aggregate::CountDistinct(c) => {
            let distinct: BTreeSet<SqlValue> = col_vals(c)?.into_iter().collect();
            (
                format!("count(distinct {c})"),
                SqlValue::Int(distinct.len() as i64),
            )
        }
        Aggregate::Sum(c) => {
            let vals = col_vals(c)?;
            let v = if vals.is_empty() {
                SqlValue::Null
            } else if vals.iter().all(|v| matches!(v, SqlValue::Int(_))) {
                SqlValue::Int(vals.iter().filter_map(SqlValue::as_int).sum())
            } else {
                SqlValue::Real(vals.iter().filter_map(SqlValue::as_real).sum())
            };
            (format!("sum({c})"), v)
        }
        Aggregate::Min(c) => (
            format!("min({c})"),
            col_vals(c)?.into_iter().min().unwrap_or(SqlValue::Null),
        ),
        Aggregate::Max(c) => (
            format!("max({c})"),
            col_vals(c)?.into_iter().max().unwrap_or(SqlValue::Null),
        ),
        Aggregate::Avg(c) => {
            let vals = col_vals(c)?;
            let v = if vals.is_empty() {
                SqlValue::Null
            } else {
                SqlValue::Real(
                    vals.iter().filter_map(SqlValue::as_real).sum::<f64>() / vals.len() as f64,
                )
            };
            (format!("avg({c})"), v)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Database {
        let db = Database::new(EngineProfile::h2());
        db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")
            .unwrap();
        for i in 0..10 {
            db.execute(&format!(
                "INSERT INTO accounts VALUES ({i}, 'own{i}', {})",
                i * 100
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn crud_roundtrip() {
        let db = bank();
        let r = db
            .execute("SELECT balance FROM accounts WHERE id = 3")
            .unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Int(300)]]);
        let r = db
            .execute("UPDATE accounts SET balance = balance + 50 WHERE id = 3")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = db
            .execute("SELECT balance FROM accounts WHERE id = 3")
            .unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Int(350)]]);
        let r = db.execute("DELETE FROM accounts WHERE id >= 8").unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(db.table_len("accounts"), 8);
    }

    #[test]
    fn select_order_limit() {
        let db = bank();
        let r = db
            .execute("SELECT id FROM accounts ORDER BY balance DESC LIMIT 3")
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![9, 8, 7]);
    }

    #[test]
    fn aggregates() {
        let db = bank();
        let r = db
            .execute("SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance) FROM accounts")
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![
                SqlValue::Int(10),
                SqlValue::Int(4500),
                SqlValue::Int(0),
                SqlValue::Int(900)
            ]
        );
        db.execute("UPDATE accounts SET owner = 'dup' WHERE id < 5")
            .unwrap();
        let r = db
            .execute("SELECT COUNT(DISTINCT owner) FROM accounts")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(6));
    }

    #[test]
    fn rollback_undoes_everything() {
        let db = bank();
        let mut txn = db.begin().unwrap();
        txn.execute("INSERT INTO accounts VALUES (100, 'new', 1)")
            .unwrap();
        txn.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
            .unwrap();
        txn.execute("DELETE FROM accounts WHERE id = 2").unwrap();
        txn.rollback().unwrap();
        assert_eq!(db.table_len("accounts"), 10);
        let r = db
            .execute("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(100));
        let r = db
            .execute("SELECT COUNT(*) FROM accounts WHERE id = 2")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(1));
    }

    #[test]
    fn rolling_back_a_create_index_drops_it() {
        let db = bank();
        let mut txn = db.begin().unwrap();
        txn.execute("CREATE INDEX idx_owner ON accounts (owner)")
            .unwrap();
        txn.rollback().unwrap();
        db.execute("SELECT id FROM accounts WHERE owner = 'o1'")
            .unwrap();
        let paths: Vec<String> = db
            .cached_plans()
            .into_iter()
            .filter_map(|(_, p)| p)
            .collect();
        assert_eq!(paths, ["full scan"]);
    }

    #[test]
    fn effects_carry_ddl_text_that_parses_back() {
        let db = bank();
        let mut txn = db.begin().unwrap();
        txn.execute("CREATE TABLE t (a INT, b DECIMAL(4, 2), c VARCHAR(3), PRIMARY KEY (c, a))")
            .unwrap();
        txn.execute("CREATE INDEX t_b ON t (b, a)").unwrap();
        txn.execute("DROP TABLE accounts").unwrap();
        let fx = txn.effects_since(0);
        txn.commit().unwrap();
        let copy = bank();
        copy.apply_effects([&fx]).unwrap();
        assert!(copy.snapshot() == db.snapshot());
        assert_eq!(
            fx.decode().unwrap().ddl,
            [
                "CREATE TABLE t (a INT, b REAL, c TEXT, PRIMARY KEY (c, a))",
                "CREATE INDEX t_b ON t (b, a)",
                "DROP TABLE accounts",
            ]
        );
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let db = bank();
        {
            let mut txn = db.begin().unwrap();
            txn.execute("DELETE FROM accounts WHERE id = 0").unwrap();
        }
        assert_eq!(db.table_len("accounts"), 10);
    }

    #[test]
    fn table_lock_contention_times_out() {
        let db = bank();
        let mut t1 = db.begin().unwrap();
        t1.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
            .unwrap();
        // A second writer on a table-locking engine must time out.
        let mut t2 = db.begin().unwrap();
        let err = t2
            .execute("UPDATE accounts SET balance = 2 WHERE id = 2")
            .unwrap_err();
        assert!(matches!(err, SqlError::LockTimeout { .. }));
        t1.commit().unwrap();
        // After commit, a fresh transaction succeeds.
        db.execute("UPDATE accounts SET balance = 2 WHERE id = 2")
            .unwrap();
    }

    #[test]
    fn row_locks_allow_disjoint_writers() {
        let db = Database::new(EngineProfile::innodb());
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0)").unwrap();
        let mut t1 = db.begin().unwrap();
        t1.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
        let mut t2 = db.begin().unwrap();
        t2.execute("UPDATE t SET v = 2 WHERE id = 2").unwrap(); // disjoint row: ok
        t1.commit().unwrap();
        t2.commit().unwrap();
        let r = db.execute("SELECT v FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Int(1)], vec![SqlValue::Int(2)]]);
    }

    #[test]
    fn lock_timeout_aborts_transaction() {
        let db = bank();
        let mut t1 = db.begin().unwrap();
        t1.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
            .unwrap();
        let mut t2 = db.begin().unwrap();
        t2.execute("INSERT INTO accounts VALUES (50, 'x', 0)")
            .unwrap_err();
        // t2 aborted: further use fails.
        assert!(matches!(
            t2.execute("SELECT id FROM accounts"),
            Err(SqlError::TransactionClosed)
        ));
        t1.commit().unwrap();
        // And its insert never happened.
        assert_eq!(db.table_len("accounts"), 10);
    }

    #[test]
    fn virtual_cost_accumulates() {
        let db = bank();
        let mut txn = db.begin().unwrap();
        txn.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
            .unwrap();
        let c = txn.virtual_cost();
        assert!(c > Duration::ZERO);
        txn.execute("UPDATE accounts SET balance = 0 WHERE id = 2")
            .unwrap();
        assert!(txn.virtual_cost() > c);
        txn.commit().unwrap();
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let db = bank();
        let snap = db.snapshot();
        let copy = Database::new(EngineProfile::derby());
        copy.restore(&snap).unwrap();
        assert_eq!(copy.table_len("accounts"), 10);
        let r = copy
            .execute("SELECT balance FROM accounts WHERE id = 7")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(700));
    }

    #[test]
    fn errors_on_unknown_objects() {
        let db = bank();
        assert!(matches!(
            db.execute("SELECT x FROM missing"),
            Err(SqlError::Unknown(_))
        ));
        assert!(matches!(
            db.execute("SELECT nosuch FROM accounts"),
            Err(SqlError::Unknown(_))
        ));
        // A statement cached while its table was missing resolves once the
        // table exists.
        assert!(matches!(
            db.execute("SELECT id FROM later"),
            Err(SqlError::Unknown(_))
        ));
        db.execute("CREATE TABLE later (id INT PRIMARY KEY)")
            .unwrap();
        assert!(db.execute("SELECT id FROM later").unwrap().rows.is_empty());
    }

    #[test]
    fn cached_execution_matches_uncached() {
        let db = bank();
        let sql = "UPDATE accounts SET balance = balance + 1 WHERE id = 4";
        let read = "SELECT balance FROM accounts WHERE id = 4";
        // Prime the cache with the shape (other literals), then compare a
        // cached run against an uncached run: same results, same virtual
        // cost (the cache must not change the simulated cost model, only
        // real parse/bind work).
        db.execute("UPDATE accounts SET balance = balance + 5 WHERE id = 7")
            .unwrap();
        let mut cached = db.begin().unwrap();
        cached.execute(sql).unwrap();
        let cost_cached = cached.virtual_cost();
        let r1 = cached.execute(read).unwrap();
        cached.commit().unwrap();
        let mut uncached = db.begin().unwrap();
        uncached.execute_uncached(sql).unwrap();
        assert_eq!(uncached.virtual_cost(), cost_cached);
        let r2 = uncached.execute_uncached(read).unwrap();
        uncached.commit().unwrap();
        assert_eq!(r1.rows[0][0], SqlValue::Int(401));
        assert_eq!(r2.rows[0][0], SqlValue::Int(402));
    }

    #[test]
    fn one_plan_serves_every_literal_of_a_shape() {
        let db = bank();
        let before = db.plan_cache_stats();
        for (id, delta) in [(4, 1), (5, 7), (6, -2)] {
            let sql = if delta < 0 {
                format!(
                    "UPDATE accounts SET balance = balance - {} WHERE id = {id}",
                    -delta
                )
            } else {
                format!("UPDATE accounts SET balance = balance + {delta} WHERE id = {id}")
            };
            assert_eq!(db.execute(&sql).unwrap().affected, 1);
        }
        for (id, want) in [(4, 401), (5, 507), (6, 598)] {
            let r = db
                .execute(&format!("SELECT balance FROM accounts WHERE id = {id}"))
                .unwrap();
            assert_eq!(r.rows, vec![vec![SqlValue::Int(want)]]);
        }
        // Six lookups over three shapes (`+`, `-`, the select): three hits.
        let after = db.plan_cache_stats();
        assert_eq!(after.lookups - before.lookups, 6);
        assert_eq!(after.hits - before.hits, 3);
        let plans = db.cached_plans();
        assert!(plans.contains(&(
            "UPDATE accounts SET balance = balance + ? WHERE id = ?".into(),
            Some("pk(=)".into())
        )));
        assert!(plans.contains(&("INSERT INTO accounts VALUES (?, ?, ?)".into(), None)));
    }

    #[test]
    fn ddl_bypasses_the_cache() {
        let db = Database::new(EngineProfile::h2());
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16), r DECIMAL(12, 2))")
            .unwrap();
        db.execute("CREATE INDEX by_name ON t (name)").unwrap();
        assert_eq!(db.plan_cache_stats(), PlanCacheStats::default());
        assert!(db.cached_plans().is_empty());
        db.execute("INSERT INTO t VALUES (1, 'a', 2.5)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        assert_eq!(db.plan_cache_stats().lookups, 1);
    }

    #[test]
    fn one_end_reads_keep_the_charge_of_every_match() {
        let db = Database::new(EngineProfile::h2());
        db.execute("CREATE TABLE o (w INT, id INT, v INT, PRIMARY KEY (w, id))")
            .unwrap();
        for w in 1..=2 {
            for id in 1..=10 {
                db.execute(&format!("INSERT INTO o VALUES ({w}, {id}, {})", id * w))
                    .unwrap();
            }
        }
        let costs = EngineProfile::h2().costs;
        // w = 1 matches ten of the twenty rows: each read charges the
        // statement plus ten point reads, however few rows it keeps.
        let ten = Duration::from_micros(costs.per_statement_us + 10 * costs.point_read_us);
        for (sql, want, plan) in [
            (
                "SELECT MIN(id) FROM o WHERE w = 1",
                vec![vec![SqlValue::Int(1)]],
                "pk(=) min",
            ),
            (
                "SELECT MAX(id) FROM o WHERE w = 1",
                vec![vec![SqlValue::Int(10)]],
                "pk(=) max",
            ),
            (
                "SELECT id FROM o WHERE w = 1 ORDER BY id DESC LIMIT 2",
                vec![vec![SqlValue::Int(10)], vec![SqlValue::Int(9)]],
                "pk(=) last 2",
            ),
            (
                "SELECT id FROM o WHERE w = 1 ORDER BY id LIMIT 1",
                vec![vec![SqlValue::Int(1)]],
                "pk(=) first 1",
            ),
            // Ordered by a column the range is not: every match is kept.
            (
                "SELECT id FROM o WHERE w = 1 ORDER BY v DESC LIMIT 1",
                vec![vec![SqlValue::Int(10)]],
                "pk(=)",
            ),
        ] {
            let (rs, cost) = db.execute_read_only(sql).unwrap();
            assert_eq!(rs.rows, want, "{sql}");
            assert_eq!(cost, ten, "{sql}");
            let mut txn = db.begin().unwrap();
            assert_eq!(txn.execute_uncached(sql).unwrap().rows, want, "{sql}");
            assert_eq!(txn.virtual_cost(), ten, "{sql}");
            let (shape, _) = crate::sql::shape(sql).unwrap();
            let described = db.cached_plans().into_iter().find(|(s, _)| *s == shape);
            assert_eq!(described, Some((shape, Some(plan.into()))), "{sql}");
        }
        // A bounded range charges only what it matches; the walk takes
        // the bound inclusively and the filter drops the equal row.
        let (rs, cost) = db
            .execute_read_only("SELECT id FROM o WHERE w = 2 AND id > 8")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![SqlValue::Int(9)], vec![SqlValue::Int(10)]]
        );
        let two = costs.per_statement_us + 2 * costs.point_read_us;
        assert_eq!(cost, Duration::from_micros(two));
    }

    #[test]
    fn create_index_refreshes_cached_full_scan_plan() {
        let db = bank();
        let sql = "SELECT balance FROM accounts WHERE owner = 'own3'";
        let cost_of = |db: &Database| {
            let mut t = db.begin().unwrap();
            let r = t.execute(sql).unwrap();
            assert_eq!(r.rows, vec![vec![SqlValue::Int(300)]]);
            t.commit().unwrap();
            t.virtual_cost()
        };
        // No index on owner: the cached plan is a full scan. Run twice so
        // the second run provably executes from the cache.
        let scan = cost_of(&db);
        assert_eq!(cost_of(&db), scan);
        // The new index bumps the DDL epoch; the *same* SQL text must be
        // re-planned onto the index, observable as a cheaper execution.
        db.execute("CREATE INDEX by_owner ON accounts (owner)")
            .unwrap();
        let probe = cost_of(&db);
        assert!(
            probe < scan,
            "cached plan kept scanning after CREATE INDEX: {probe:?} >= {scan:?}"
        );
    }

    #[test]
    fn drop_and_recreate_invalidates_cached_positions() {
        let db = Database::new(EngineProfile::h2());
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, pad TEXT, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', 10)").unwrap();
        let sql = "SELECT v FROM t WHERE k = 1";
        assert_eq!(db.execute(sql).unwrap().rows, vec![vec![SqlValue::Int(10)]]);
        // Recreate with `v` at a different column position: the cached
        // plan's resolved positions are stale and must not be served.
        db.execute("DROP TABLE t").unwrap();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, pad TEXT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 20, 'x')").unwrap();
        assert_eq!(db.execute(sql).unwrap().rows, vec![vec![SqlValue::Int(20)]]);
    }

    #[test]
    fn drop_table_rolls_back_with_contents_and_indexes() {
        let db = bank();
        db.execute("CREATE INDEX by_owner ON accounts (owner)")
            .unwrap();
        {
            let mut txn = db.begin().unwrap();
            txn.execute("DROP TABLE accounts").unwrap();
            assert_eq!(db.table_len("accounts"), 0);
            txn.rollback().unwrap();
        }
        assert_eq!(db.table_len("accounts"), 10);
        // The restored table still answers through its secondary index,
        // and the post-rollback epoch bump forces a replan.
        let r = db
            .execute("SELECT balance FROM accounts WHERE owner = 'own5'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Int(500)]]);
    }

    #[test]
    fn read_only_path_never_blocks_behind_the_lock_table() {
        let db = bank();
        // A writer pins the table's exclusive lock (H2 locks at table
        // granularity) without mutating anything.
        let mut writer = db.begin().unwrap();
        writer
            .execute("SELECT balance FROM accounts WHERE id = 1 FOR UPDATE")
            .unwrap();
        // An ordinary locking reader times out behind it…
        let mut reader = db.begin().unwrap();
        assert!(matches!(
            reader.execute("SELECT balance FROM accounts WHERE id = 3"),
            Err(SqlError::LockTimeout { .. })
        ));
        // …while the lock-free read path answers with committed state.
        let (rs, cost) = db
            .execute_read_only("SELECT balance FROM accounts WHERE id = 3")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![SqlValue::Int(300)]]);
        assert!(cost > Duration::ZERO);
        writer.commit().unwrap();
    }

    #[test]
    fn read_only_path_matches_uncached_execution_and_cost() {
        let db = bank();
        let sql = "SELECT id, balance FROM accounts ORDER BY balance DESC LIMIT 3";
        // Twice: the second run provably executes from the plan cache.
        let (first, c1) = db.execute_read_only(sql).unwrap();
        let (second, c2) = db.execute_read_only(sql).unwrap();
        assert_eq!(first, second);
        assert_eq!(c1, c2);
        let mut txn = db.begin().unwrap();
        let reference = txn.execute_uncached(sql).unwrap();
        let ref_cost = txn.virtual_cost();
        txn.commit().unwrap();
        assert_eq!(first, reference);
        assert_eq!(c1, ref_cost, "lock-free reads charge the same cost");
    }

    #[test]
    fn read_only_path_refuses_everything_but_plain_selects() {
        let db = bank();
        for sql in [
            "UPDATE accounts SET balance = 0 WHERE id = 1",
            "INSERT INTO accounts VALUES (99, 'x', 0)",
            "DELETE FROM accounts WHERE id = 1",
            "SELECT balance FROM accounts WHERE id = 1 FOR UPDATE",
            "DROP TABLE accounts",
        ] {
            assert!(db.execute_read_only(sql).is_err(), "{sql}");
        }
        assert_eq!(db.table_len("accounts"), 10, "refusals leave no trace");
        let r = db
            .execute("SELECT balance FROM accounts WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(100));
    }

    #[test]
    fn savepoint_rolls_back_partial_work_keeping_txn_open() {
        let db = bank();
        let mut txn = db.begin().unwrap();
        txn.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
            .unwrap();
        let sp = txn.savepoint();
        txn.execute("UPDATE accounts SET balance = 2 WHERE id = 2")
            .unwrap();
        txn.execute("INSERT INTO accounts VALUES (100, 'new', 0)")
            .unwrap();
        txn.rollback_to(sp).unwrap();
        // Work after the savepoint is gone; work before it commits.
        txn.execute("UPDATE accounts SET balance = 3 WHERE id = 3")
            .unwrap();
        txn.commit().unwrap();
        let r = db
            .execute("SELECT balance FROM accounts WHERE id <= 3 ORDER BY id")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![SqlValue::Int(0)],
                vec![SqlValue::Int(1)],
                vec![SqlValue::Int(200)],
                vec![SqlValue::Int(3)],
            ]
        );
        assert_eq!(db.table_len("accounts"), 10);
    }
}
