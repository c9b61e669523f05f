//! SQL values with a total order.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single SQL value.
///
/// Values are totally ordered (NULL < INT/REAL < TEXT, numerics compared
/// numerically across INT and REAL) and hashable (REAL by bit pattern), so
/// they can key B-tree indexes.
#[derive(Clone, Debug)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 string.
    Text(String),
}

impl SqlValue {
    /// The value as an integer (REALs truncate), if numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SqlValue::Int(i) => Some(*i),
            SqlValue::Real(r) => Some(*r as i64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            SqlValue::Int(i) => Some(*i as f64),
            SqlValue::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// Approximate in-memory/wire size in bytes (used for batch sizing and
    /// the paper's row-size accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            SqlValue::Null => 1,
            SqlValue::Int(_) | SqlValue::Real(_) => 8,
            SqlValue::Text(s) => s.len(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            SqlValue::Null => 0,
            SqlValue::Int(_) | SqlValue::Real(_) => 1,
            SqlValue::Text(_) => 2,
        }
    }
}

impl PartialEq for SqlValue {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SqlValue {}

impl PartialOrd for SqlValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SqlValue {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (SqlValue::Int(a), SqlValue::Int(b)) => a.cmp(b),
            (SqlValue::Real(a), SqlValue::Real(b)) => a.total_cmp(b),
            (SqlValue::Int(a), SqlValue::Real(b)) => (*a as f64).total_cmp(b),
            (SqlValue::Real(a), SqlValue::Int(b)) => a.total_cmp(&(*b as f64)),
            (SqlValue::Text(a), SqlValue::Text(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for SqlValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            SqlValue::Null => 0u8.hash(state),
            // Int and Real that compare equal must hash equal: hash the
            // f64 bits of the numeric value.
            SqlValue::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            SqlValue::Real(r) => {
                1u8.hash(state);
                r.to_bits().hash(state);
            }
            SqlValue::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => write!(f, "NULL"),
            SqlValue::Int(i) => write!(f, "{i}"),
            SqlValue::Real(r) => write!(f, "{r}"),
            SqlValue::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for SqlValue {
    fn from(i: i64) -> SqlValue {
        SqlValue::Int(i)
    }
}

impl From<f64> for SqlValue {
    fn from(r: f64) -> SqlValue {
        SqlValue::Real(r)
    }
}

impl From<&str> for SqlValue {
    fn from(s: &str) -> SqlValue {
        SqlValue::Text(s.to_owned())
    }
}

impl From<String> for SqlValue {
    fn from(s: String) -> SqlValue {
        SqlValue::Text(s)
    }
}

/// A row: one value per schema column.
pub type Row = Vec<SqlValue>;

/// A stored row: immutable and shared. A table replaces the row it
/// writes, so whoever holds one — a snapshot, an undo record — keeps the
/// row as it was for the cost of one reference.
pub type SharedRow = std::sync::Arc<[SqlValue]>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_spans_types() {
        assert!(SqlValue::Null < SqlValue::Int(i64::MIN));
        assert!(SqlValue::Int(5) < SqlValue::Text(String::new()));
        assert!(SqlValue::Int(2) < SqlValue::Real(2.5));
        assert!(SqlValue::Real(1.5) < SqlValue::Int(2));
        assert_eq!(SqlValue::Int(2), SqlValue::Real(2.0));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &SqlValue| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&SqlValue::Int(2)), h(&SqlValue::Real(2.0)));
        assert_ne!(h(&SqlValue::Int(2)), h(&SqlValue::Int(3)));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(SqlValue::Int(1).byte_size(), 8);
        assert_eq!(SqlValue::Text("abcd".into()).byte_size(), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SqlValue::Null.to_string(), "NULL");
        assert_eq!(SqlValue::Text("x".into()).to_string(), "'x'");
    }
}
