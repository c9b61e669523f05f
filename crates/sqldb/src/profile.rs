//! Engine personalities.
//!
//! ShadowDB "allows to easily plug in any JDBC-enabled database by
//! specifying the database driver and the connection URL" and deploys a
//! *different* engine per replica for diversity (H2, HSQLDB, Apache Derby),
//! with MySQL variants as baselines. An [`EngineProfile`] captures how
//! those engines differ for the behaviours the paper measures:
//!
//! * **lock granularity** — table-level (H2, HSQLDB, MySQL-memory) vs
//!   row-level (InnoDB); under contention, table locking causes the
//!   timeout-abort collapse of Fig. 9(a);
//! * **lock timeout** — how long a blocked statement waits before aborting;
//! * **cost coefficients** — virtual CPU microseconds per operation, used
//!   by the simulator's cost models (calibrated against Fig. 9/10; the
//!   paper measures H2 as "the fastest database among H2, Derby, and
//!   HSQLDB", with state transfer bottlenecked on row insertion).

use crate::lock::LockGranularity;
use std::time::Duration;

/// Virtual CPU cost coefficients for an engine (microseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostCoefficients {
    /// Fixed cost per statement.
    pub per_statement_us: u64,
    /// Cost per row read through an index.
    pub point_read_us: u64,
    /// Cost per row written (insert, update, delete).
    pub write_us: u64,
    /// Cost per row visited by a scan.
    pub scan_row_us: u64,
    /// Cost per row inserted during bulk state transfer (the paper finds
    /// "row insertion speed constitutes the bottleneck of state transfer").
    pub bulk_insert_us: u64,
    /// Additional bulk-insert cost per row byte, in nanoseconds (large rows
    /// insert slower).
    pub bulk_insert_byte_ns: u64,
    /// Serialization cost per column when encoding a row for transfer
    /// ("serialization overhead is proportional to the number of table
    /// columns").
    pub serialize_col_us: u64,
}

/// An engine personality: name, locking behaviour, and cost model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineProfile {
    /// Engine name (diagnostics and experiment labels).
    pub name: &'static str,
    /// Lock granularity.
    pub granularity: LockGranularity,
    /// How long a blocked statement waits before the transaction aborts.
    pub lock_timeout: Duration,
    /// Virtual cost coefficients.
    pub costs: CostCoefficients,
}

impl EngineProfile {
    /// H2-like: in-memory, table locks, fastest of the embedded trio.
    pub fn h2() -> EngineProfile {
        EngineProfile {
            name: "h2",
            granularity: LockGranularity::Table,
            lock_timeout: Duration::from_millis(1_000),
            costs: CostCoefficients {
                per_statement_us: 25,
                point_read_us: 3,
                write_us: 8,
                scan_row_us: 1,
                bulk_insert_us: 28,
                bulk_insert_byte_ns: 90,
                serialize_col_us: 5,
            },
        }
    }

    /// HSQLDB-like: table locks, somewhat slower than H2.
    pub fn hsqldb() -> EngineProfile {
        EngineProfile {
            name: "hsqldb",
            granularity: LockGranularity::Table,
            lock_timeout: Duration::from_millis(1_000),
            costs: CostCoefficients {
                per_statement_us: 32,
                point_read_us: 4,
                write_us: 10,
                scan_row_us: 1,
                bulk_insert_us: 52,
                bulk_insert_byte_ns: 90,
                serialize_col_us: 10,
            },
        }
    }

    /// Apache-Derby-like: the slowest of the embedded trio.
    pub fn derby() -> EngineProfile {
        EngineProfile {
            name: "derby",
            granularity: LockGranularity::Row,
            lock_timeout: Duration::from_millis(1_000),
            costs: CostCoefficients {
                per_statement_us: 45,
                point_read_us: 6,
                write_us: 14,
                scan_row_us: 2,
                bulk_insert_us: 60,
                bulk_insert_byte_ns: 90,
                serialize_col_us: 11,
            },
        }
    }

    /// MySQL with the MEMORY storage engine: table locks only; "suffers
    /// from a similar issue" to H2 under contention.
    pub fn mysql_memory() -> EngineProfile {
        EngineProfile {
            name: "mysql-memory",
            granularity: LockGranularity::Table,
            lock_timeout: Duration::from_millis(500),
            costs: CostCoefficients {
                per_statement_us: 30,
                point_read_us: 3,
                write_us: 9,
                scan_row_us: 1,
                bulk_insert_us: 50,
                bulk_insert_byte_ns: 90,
                serialize_col_us: 9,
            },
        }
    }

    /// MySQL with InnoDB (synchronous writes disabled): row-level locks
    /// lower the abort rate, but peak throughput is below the memory
    /// engine's, and index operations ("less than", "order by") are better
    /// optimized than the memory engine's.
    pub fn innodb() -> EngineProfile {
        EngineProfile {
            name: "mysql-innodb",
            granularity: LockGranularity::Row,
            lock_timeout: Duration::from_millis(5_000),
            costs: CostCoefficients {
                per_statement_us: 40,
                point_read_us: 5,
                write_us: 14,
                scan_row_us: 1,
                bulk_insert_us: 55,
                bulk_insert_byte_ns: 90,
                serialize_col_us: 10,
            },
        }
    }

    /// The diverse trio the paper deploys across ShadowDB replicas.
    pub fn diverse_trio() -> [EngineProfile; 3] {
        [
            EngineProfile::h2(),
            EngineProfile::hsqldb(),
            EngineProfile::derby(),
        ]
    }
}

impl Default for EngineProfile {
    fn default() -> Self {
        EngineProfile::h2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h2_is_fastest_embedded_engine() {
        // "the fastest database among H2, Derby, and HSQLDB" (Sec. IV-B).
        let h2 = EngineProfile::h2().costs;
        let hsql = EngineProfile::hsqldb().costs;
        let derby = EngineProfile::derby().costs;
        assert!(h2.per_statement_us < hsql.per_statement_us);
        assert!(hsql.per_statement_us < derby.per_statement_us);
    }

    #[test]
    fn granularities_match_the_paper() {
        assert_eq!(EngineProfile::h2().granularity, LockGranularity::Table);
        assert_eq!(
            EngineProfile::mysql_memory().granularity,
            LockGranularity::Table
        );
        assert_eq!(EngineProfile::innodb().granularity, LockGranularity::Row);
    }
}
