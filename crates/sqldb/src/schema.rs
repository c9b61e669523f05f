//! Table schemas.

use crate::value::SqlValue;
use crate::{Result, SqlError};

/// Column data types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer (`INT`, `BIGINT`).
    Int,
    /// 64-bit float (`REAL`, `DOUBLE`, `DECIMAL`).
    Real,
    /// String (`TEXT`, `VARCHAR(n)`, `CHAR(n)`).
    Text,
}

impl DataType {
    /// Whether `v` inhabits this type (NULL inhabits every type).
    pub fn admits(self, v: &SqlValue) -> bool {
        matches!(
            (self, v),
            (_, SqlValue::Null)
                | (DataType::Int, SqlValue::Int(_))
                | (DataType::Real, SqlValue::Real(_))
                | (DataType::Real, SqlValue::Int(_))
                | (DataType::Text, SqlValue::Text(_))
        )
    }
}

/// One column of a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name (stored lowercase; lookups are case-insensitive).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

/// A table schema: named, typed columns and a (possibly composite) primary
/// key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lowercase).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Indices of the primary-key columns, in key order.
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Creates a schema.
    ///
    /// # Errors
    ///
    /// Rejects empty or out-of-range primary keys and duplicate column
    /// names.
    pub fn new(name: &str, columns: Vec<Column>, primary_key: Vec<usize>) -> Result<TableSchema> {
        if primary_key.is_empty() {
            return Err(SqlError::Constraint(format!(
                "table {name} needs a primary key"
            )));
        }
        for &k in &primary_key {
            if k >= columns.len() {
                return Err(SqlError::Constraint(format!(
                    "primary key column {k} out of range in {name}"
                )));
            }
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name == c.name) {
                return Err(SqlError::Constraint(format!(
                    "duplicate column {} in {name}",
                    c.name
                )));
            }
        }
        Ok(TableSchema {
            name: name.to_lowercase(),
            columns,
            primary_key,
        })
    }

    /// Index of a column by (case-insensitive) name.
    pub fn col(&self, name: &str) -> Result<usize> {
        let lower = name.to_lowercase();
        self.columns
            .iter()
            .position(|c| c.name == lower)
            .ok_or_else(|| SqlError::Unknown(format!("column {name} in table {}", self.name)))
    }

    /// Extracts the primary-key values of a row.
    pub fn key_of(&self, row: &[SqlValue]) -> Vec<SqlValue> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Validates a row against the schema (arity and types).
    pub fn check_row(&self, row: &[SqlValue]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(SqlError::Constraint(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (c, v) in self.columns.iter().zip(row) {
            if !c.dtype.admits(v) {
                return Err(SqlError::Constraint(format!(
                    "value {v} does not fit column {} of type {:?}",
                    c.name, c.dtype
                )));
            }
        }
        Ok(())
    }

    /// Approximate byte size of a row under this schema.
    pub fn row_bytes(&self, row: &[SqlValue]) -> usize {
        row.iter().map(SqlValue::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "Accounts",
            vec![
                Column {
                    name: "id".into(),
                    dtype: DataType::Int,
                },
                Column {
                    name: "owner".into(),
                    dtype: DataType::Text,
                },
                Column {
                    name: "balance".into(),
                    dtype: DataType::Int,
                },
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn name_lowercased_and_lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.name, "accounts");
        assert_eq!(s.col("BALANCE").unwrap(), 2);
        assert!(s.col("missing").is_err());
    }

    #[test]
    fn key_extraction() {
        let s = schema();
        let row = vec![SqlValue::Int(7), SqlValue::from("a"), SqlValue::Int(0)];
        assert_eq!(s.key_of(&row), vec![SqlValue::Int(7)]);
    }

    #[test]
    fn row_validation() {
        let s = schema();
        assert!(s
            .check_row(&[SqlValue::Int(1), SqlValue::from("x"), SqlValue::Int(2)])
            .is_ok());
        assert!(s.check_row(&[SqlValue::Int(1)]).is_err());
        assert!(s
            .check_row(&[
                SqlValue::from("oops"),
                SqlValue::from("x"),
                SqlValue::Int(2)
            ])
            .is_err());
        // NULL fits anywhere; INT fits REAL.
        let real = TableSchema::new(
            "t",
            vec![Column {
                name: "x".into(),
                dtype: DataType::Real,
            }],
            vec![0],
        )
        .unwrap();
        assert!(real.check_row(&[SqlValue::Int(3)]).is_ok());
        assert!(real.check_row(&[SqlValue::Null]).is_ok());
    }

    #[test]
    fn bad_schemas_rejected() {
        assert!(TableSchema::new("t", vec![], vec![]).is_err());
        let c = Column {
            name: "a".into(),
            dtype: DataType::Int,
        };
        assert!(TableSchema::new("t", vec![c.clone()], vec![3]).is_err());
        assert!(TableSchema::new("t", vec![c.clone(), c], vec![0]).is_err());
    }

    #[test]
    fn micro_benchmark_row_is_16_bytes() {
        // The paper's micro-benchmark uses 16-byte rows; our bank schema
        // produces exactly that with an empty owner string padded to 0.
        let s = schema();
        let row = vec![
            SqlValue::Int(1),
            SqlValue::Text(String::new()),
            SqlValue::Int(100),
        ];
        assert_eq!(s.row_bytes(&row), 16);
    }
}
