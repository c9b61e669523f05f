//! An embedded SQL-subset database.
//!
//! ShadowDB layers replication over *unmodified* embedded SQL databases
//! reached through JDBC — H2, HSQLDB, and Apache Derby in the paper, plus
//! MySQL as a baseline. This crate is the from-scratch substitute for that
//! entire layer: a single storage/execution engine with pluggable
//! **personalities** that differ exactly where the paper's engines differ —
//! lock granularity (H2 and MySQL's memory engine lock whole tables;
//! InnoDB locks rows), lock-timeout behaviour (timeouts abort, producing
//! the contention collapse of Fig. 9a), and per-operation cost
//! coefficients used by the simulator.
//!
//! Features: `CREATE TABLE` / `CREATE INDEX`, `INSERT`, `UPDATE`, `DELETE`,
//! `SELECT` with `WHERE`, `ORDER BY`, `LIMIT` and aggregates, composite
//! primary keys with B-tree indexes, secondary indexes, strict two-phase
//! locking with timeout-abort, rollback via undo logging, and full-database
//! snapshots streamed as ~50 KB row batches (the paper's state-transfer
//! mechanism, Fig. 10b).
//!
//! Execution is built for the traffic a replica gets: stored procedures
//! sending a few statement shapes with fresh literals each time. A plan
//! cache keyed by shape ([`sql::shape`]) parses and plans each shape once
//! and binds every execution's literals to the plan's parameter slots;
//! a plan reads only the index range its predicate can match
//! ([`table::AccessPath`]), and only one end of it for `MIN`/`MAX` or a
//! `LIMIT`ed `ORDER BY` on the range column. Neither changes what a
//! statement returns or the virtual cost it charges.
//!
//! # Example
//!
//! ```
//! use shadowdb_sqldb::{Database, EngineProfile, SqlValue};
//!
//! let db = Database::new(EngineProfile::h2());
//! let mut txn = db.begin()?;
//! txn.execute("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")?;
//! txn.execute("INSERT INTO accounts VALUES (1, 'alice', 100)")?;
//! txn.execute("UPDATE accounts SET balance = balance + 20 WHERE id = 1")?;
//! let rows = txn.query("SELECT balance FROM accounts WHERE id = 1")?;
//! assert_eq!(rows.rows[0][0], SqlValue::Int(120));
//! txn.commit()?;
//! # Ok::<(), shadowdb_sqldb::SqlError>(())
//! ```

pub mod engine;
pub mod expr;
pub mod lock;
pub mod profile;
pub mod schema;
pub mod snapshot;
pub mod sql;
pub mod table;
pub mod value;

pub use engine::{Database, PlanCacheStats, ResultSet, Transaction};
pub use lock::{LockGranularity, ShardScope};
pub use profile::EngineProfile;
pub use schema::{Column, DataType, TableSchema};
pub use snapshot::{RowBatch, Snapshot};
pub use value::{SharedRow, SqlValue};

use std::fmt;

/// Errors produced by the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqlError {
    /// Syntax error while parsing a statement.
    Parse(String),
    /// Reference to an unknown table, column, or index.
    Unknown(String),
    /// Schema violation: duplicate primary key, arity mismatch, type error.
    Constraint(String),
    /// A lock could not be acquired within the engine's timeout; the
    /// transaction has been rolled back (H2's "timeout trying to lock
    /// table" — the failure mode behind the paper's contention plots).
    LockTimeout {
        /// The contended table.
        table: String,
    },
    /// The transaction was already finished (committed or rolled back).
    TransactionClosed,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Unknown(m) => write!(f, "unknown object: {m}"),
            SqlError::Constraint(m) => write!(f, "constraint violation: {m}"),
            SqlError::LockTimeout { table } => {
                write!(f, "timeout trying to lock table {table}")
            }
            SqlError::TransactionClosed => write!(f, "transaction already finished"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, SqlError>;
