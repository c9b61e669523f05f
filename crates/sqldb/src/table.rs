//! Table storage: row heap plus B-tree indexes.

use crate::expr::{CmpOp, Expr};
use crate::schema::TableSchema;
use crate::value::{Row, SqlValue};
use crate::{Result, SqlError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifies a row within its table for the lifetime of the table.
pub type RowId = u64;

/// Which index an [`AccessPath`] walks.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexName {
    /// The primary key.
    Primary,
    /// A secondary index, re-resolved by name at execution time.
    Secondary(String),
}

/// A resolved access path: which rows a predicate can match, as a walk of
/// the heap or of one index. Its keys are the predicate's constants —
/// literals, or parameter slots bound per execution — so a path depends
/// only on the schema and the set of indexes, never on row data or on the
/// values one execution binds: a cached path stays valid across DML and
/// across every execution of its statement shape, and needs recomputing
/// only after DDL.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessPath {
    /// No usable index: walk the heap.
    FullScan,
    /// Walk `index` over the keys whose leading columns equal `eq` and
    /// whose next column lies between `lower` and `upper` (either may be
    /// absent). The bounds are inclusive even when the predicate's are
    /// strict: unless the range is `exact`, the filter re-checks every
    /// row the walk visits.
    Range {
        /// The index walked.
        index: IndexName,
        /// Values of the leading key columns, in key order.
        eq: Vec<Expr>,
        /// Lowest value of the next key column.
        lower: Option<Expr>,
        /// Highest value of the next key column.
        upper: Option<Expr>,
        /// Whether the range is the whole predicate — its `=` and
        /// inclusive-bound conjuncts and nothing else — so every row in it
        /// matches, unless a key binds to NULL.
        exact: bool,
    },
}

impl fmt::Display for AccessPath {
    /// `full scan`, or the index and what each key column is held to:
    /// `pk(=,=,>=)` walks the primary key with two columns pinned and the
    /// third bounded below.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let AccessPath::Range {
            index,
            eq,
            lower,
            upper,
            ..
        } = self
        else {
            return f.write_str("full scan");
        };
        let mut cols = vec!["="; eq.len()];
        match (lower, upper) {
            (Some(_), Some(_)) => cols.push(">=..<="),
            (Some(_), None) => cols.push(">="),
            (None, Some(_)) => cols.push("<="),
            (None, None) => {}
        }
        let name = match index {
            IndexName::Primary => "pk",
            IndexName::Secondary(name) => name,
        };
        write!(f, "{name}({})", cols.join(","))
    }
}

/// What an access path visits in one execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Walk {
    /// Row ids in index order (heap order for a full scan).
    pub rids: Vec<RowId>,
    /// Whether the walk visits every row of the table.
    pub whole_table: bool,
    /// Whether every row visited matches the predicate the path was
    /// planned for: an exact range with no NULL key.
    pub exact: bool,
}

/// An index range with its keys bound.
struct KeyRange {
    eq: Vec<SqlValue>,
    lower: Option<SqlValue>,
    upper: Option<SqlValue>,
}

impl KeyRange {
    fn has_null(&self) -> bool {
        let bounds = self.lower.iter().chain(&self.upper);
        self.eq.iter().chain(bounds).any(SqlValue::is_null)
    }

    fn contains(&self, key: &[SqlValue]) -> bool {
        let next = key.get(self.eq.len());
        key.starts_with(&self.eq)
            && self
                .lower
                .as_ref()
                .is_none_or(|lo| next.is_some_and(|v| v >= lo))
            && self
                .upper
                .as_ref()
                .is_none_or(|hi| next.is_some_and(|v| v <= hi))
    }

    /// The entries of `map` in range, in key order. Keys sharing the
    /// prefix are contiguous and sorted by the next column, so the walk
    /// starts at the lower bound and stops at the first key past the range.
    fn walk<'m, V>(&'m self, map: &'m BTreeMap<Vec<SqlValue>, V>) -> impl Iterator<Item = &'m V> {
        let mut start = self.eq.clone();
        start.extend(self.lower.clone());
        map.range(start..)
            .take_while(|(k, _)| self.contains(k))
            .map(|(_, v)| v)
    }

    /// Whether the range holds every entry of a non-empty `map`: its first
    /// and last keys, since a range is contiguous.
    fn spans<V>(&self, map: &BTreeMap<Vec<SqlValue>, V>) -> bool {
        match (map.first_key_value(), map.last_key_value()) {
            (Some((first, _)), Some((last, _))) => self.contains(first) && self.contains(last),
            _ => false,
        }
    }
}

/// A secondary index over a subset of columns.
#[derive(Clone, Debug)]
pub struct SecondaryIndex {
    /// Index name.
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// key -> row ids (non-unique).
    map: BTreeMap<Vec<SqlValue>, BTreeSet<RowId>>,
}

/// A table: schema, heap, primary-key index, secondary indexes.
#[derive(Clone, Debug)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<RowId, Row>,
    next_rowid: RowId,
    pk: BTreeMap<Vec<SqlValue>, RowId>,
    secondary: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: BTreeMap::new(),
            next_rowid: 0,
            pk: BTreeMap::new(),
            secondary: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds a secondary index over `columns`, indexing existing rows.
    ///
    /// # Errors
    ///
    /// Fails if an index with the same name exists or a column is unknown.
    pub fn create_index(&mut self, name: &str, columns: &[String]) -> Result<()> {
        if self.secondary.iter().any(|i| i.name == name) {
            return Err(SqlError::Constraint(format!("index {name} already exists")));
        }
        let cols: Result<Vec<usize>> = columns.iter().map(|c| self.schema.col(c)).collect();
        let mut idx = SecondaryIndex {
            name: name.to_owned(),
            columns: cols?,
            map: BTreeMap::new(),
        };
        for (&rid, row) in &self.rows {
            let key: Vec<SqlValue> = idx.columns.iter().map(|&c| row[c].clone()).collect();
            idx.map.entry(key).or_default().insert(rid);
        }
        self.secondary.push(idx);
        Ok(())
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// Fails on arity/type mismatch or duplicate primary key.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.schema.check_row(&row)?;
        let key = self.schema.key_of(&row);
        if self.pk.contains_key(&key) {
            return Err(SqlError::Constraint(format!(
                "duplicate primary key {key:?} in {}",
                self.schema.name
            )));
        }
        let rid = self.next_rowid;
        self.next_rowid += 1;
        for idx in &mut self.secondary {
            let ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| row[c].clone()).collect();
            idx.map.entry(ikey).or_default().insert(rid);
        }
        self.pk.insert(key, rid);
        self.rows.insert(rid, row);
        Ok(rid)
    }

    /// Fetches a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(&rid)
    }

    /// Re-inserts a previously deleted row under its *original* id (the
    /// undo path: a transaction that deleted and re-inserted a key must
    /// roll back to exactly the ids it started from).
    ///
    /// # Errors
    ///
    /// Fails if the id or primary key is already in use, or on schema
    /// violations.
    pub fn restore(&mut self, rid: RowId, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        if self.rows.contains_key(&rid) {
            return Err(SqlError::Constraint(format!(
                "row id {rid} already occupied"
            )));
        }
        let key = self.schema.key_of(&row);
        if self.pk.contains_key(&key) {
            return Err(SqlError::Constraint(format!(
                "duplicate primary key {key:?}"
            )));
        }
        for idx in &mut self.secondary {
            let ikey: Vec<SqlValue> = idx.columns.iter().map(|c| row[*c].clone()).collect();
            idx.map.entry(ikey).or_default().insert(rid);
        }
        self.pk.insert(key, rid);
        self.rows.insert(rid, row);
        self.next_rowid = self.next_rowid.max(rid + 1);
        Ok(())
    }

    /// Deletes a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let row = self.rows.remove(&rid)?;
        self.pk.remove(&self.schema.key_of(&row));
        for idx in &mut self.secondary {
            let ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| row[c].clone()).collect();
            if let Some(set) = idx.map.get_mut(&ikey) {
                set.remove(&rid);
                if set.is_empty() {
                    idx.map.remove(&ikey);
                }
            }
        }
        Some(row)
    }

    /// Replaces a row in place, maintaining all indexes.
    ///
    /// # Errors
    ///
    /// Fails on schema violations or if the new primary key collides with a
    /// different row.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Result<Row> {
        self.schema.check_row(&new_row)?;
        let old = self
            .rows
            .get(&rid)
            .cloned()
            .ok_or_else(|| SqlError::Unknown(format!("row id {rid}")))?;
        let old_key = self.schema.key_of(&old);
        let new_key = self.schema.key_of(&new_row);
        if new_key != old_key {
            if self.pk.contains_key(&new_key) {
                return Err(SqlError::Constraint(format!(
                    "update collides on primary key {new_key:?}"
                )));
            }
            self.pk.remove(&old_key);
            self.pk.insert(new_key, rid);
        }
        for idx in &mut self.secondary {
            let old_ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| old[c].clone()).collect();
            let new_ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| new_row[c].clone()).collect();
            if old_ikey != new_ikey {
                if let Some(set) = idx.map.get_mut(&old_ikey) {
                    set.remove(&rid);
                    if set.is_empty() {
                        idx.map.remove(&old_ikey);
                    }
                }
                idx.map.entry(new_ikey).or_default().insert(rid);
            }
        }
        self.rows.insert(rid, new_row);
        Ok(old)
    }

    /// Looks up a row id by full primary key.
    pub fn lookup_pk(&self, key: &[SqlValue]) -> Option<RowId> {
        self.pk.get(key).copied()
    }

    /// Chooses the access path for a bound predicate: the index whose
    /// leading columns the predicate pins with the most `=` conjuncts, then
    /// one whose next column it bounds with `<`, `<=`, `>` or `>=`; the
    /// primary key wins a tie. The choice depends only on the schema and
    /// the index set, so callers may cache it and invalidate on DDL.
    pub fn plan_path(&self, filter: Option<&Expr>) -> AccessPath {
        let Some(f) = filter else {
            return AccessPath::FullScan;
        };
        let facts = f.key_facts();
        let find = |col: usize, ops: &[CmpOp]| {
            facts
                .iter()
                .find(|(c, op, _)| *c == col && ops.contains(op))
                .map(|(_, op, k)| (*op, (*k).clone()))
        };
        let indexes = std::iter::once((IndexName::Primary, &self.schema.primary_key)).chain(
            self.secondary
                .iter()
                .map(|i| (IndexName::Secondary(i.name.clone()), &i.columns)),
        );
        let mut best: Option<((usize, bool), AccessPath)> = None;
        for (index, cols) in indexes {
            let eq: Vec<Expr> = cols
                .iter()
                .map_while(|&c| find(c, &[CmpOp::Eq]).map(|(_, k)| k))
                .collect();
            let next = cols.get(eq.len()).copied();
            let lower = next.and_then(|c| find(c, &[CmpOp::Gt, CmpOp::Ge]));
            let upper = next.and_then(|c| find(c, &[CmpOp::Lt, CmpOp::Le]));
            let bounds = [&lower, &upper].map(Option::as_ref);
            let score = (eq.len(), bounds.iter().any(Option::is_some));
            if score > best.as_ref().map_or((0, false), |b| b.0) {
                let used = eq.len() + bounds.iter().flatten().count();
                let strict = bounds
                    .iter()
                    .flatten()
                    .any(|(op, _)| matches!(op, CmpOp::Gt | CmpOp::Lt));
                // An upper bound alone also holds the NULLs sorting below it.
                let nulls = upper.is_some() && lower.is_none();
                let path = AccessPath::Range {
                    index,
                    eq,
                    lower: lower.map(|(_, k)| k),
                    upper: upper.map(|(_, k)| k),
                    exact: used == f.conjuncts() && !strict && !nulls,
                };
                best = Some((score, path));
            }
        }
        best.map_or(AccessPath::FullScan, |(_, path)| path)
    }

    /// The column a range path visits rows in order of — the key column
    /// after its `=` prefix — and whether no two rows in the range can tie
    /// on it (it is the last primary-key column). `None` for a full scan,
    /// a pinned whole key, or an index that no longer exists.
    pub(crate) fn range_order(&self, path: &AccessPath) -> Option<(usize, bool)> {
        let AccessPath::Range { index, eq, .. } = path else {
            return None;
        };
        let cols = match index {
            IndexName::Primary => &self.schema.primary_key,
            IndexName::Secondary(name) => &self.secondary.iter().find(|i| &i.name == name)?.columns,
        };
        let col = *cols.get(eq.len())?;
        Some((
            col,
            *index == IndexName::Primary && eq.len() + 1 == cols.len(),
        ))
    }

    /// Walks a previously chosen access path against current data, with
    /// `params` bound to its keys' parameter slots. An index that no
    /// longer exists walks nothing — callers invalidate cached paths on
    /// DDL before that can be observed.
    ///
    /// # Errors
    ///
    /// Fails if a key does not evaluate (an unbound parameter, arithmetic
    /// on text).
    pub fn walk(&self, path: &AccessPath, params: &[SqlValue]) -> Result<Walk> {
        let AccessPath::Range {
            index,
            eq,
            lower,
            upper,
            exact,
        } = path
        else {
            return Ok(Walk {
                rids: self.rows.keys().copied().collect(),
                whole_table: true,
                exact: false,
            });
        };
        let eval = |e: &Expr| e.eval(&[], params);
        let keys = KeyRange {
            eq: eq.iter().map(eval).collect::<Result<_>>()?,
            lower: lower.as_ref().map(eval).transpose()?,
            upper: upper.as_ref().map(eval).transpose()?,
        };
        let exact = *exact && !keys.has_null();
        Ok(match index {
            IndexName::Primary => Walk {
                rids: keys.walk(&self.pk).copied().collect(),
                whole_table: keys.spans(&self.pk),
                exact,
            },
            IndexName::Secondary(name) => match self.secondary.iter().find(|i| &i.name == name) {
                Some(i) => Walk {
                    rids: keys.walk(&i.map).flatten().copied().collect(),
                    whole_table: keys.spans(&i.map),
                    exact,
                },
                None => Walk {
                    rids: Vec::new(),
                    whole_table: false,
                    exact,
                },
            },
        })
    }

    /// Iterates over `(row id, row)` pairs in heap order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows.iter().map(|(rid, row)| (*rid, row))
    }

    /// Approximate total data size in bytes.
    pub fn byte_size(&self) -> usize {
        self.rows.values().map(|r| self.schema.row_bytes(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn accounts() -> Table {
        Table::new(
            TableSchema::new(
                "accounts",
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
            .unwrap(),
        )
    }

    fn row(id: i64, owner: &str, bal: i64) -> Row {
        vec![SqlValue::Int(id), SqlValue::from(owner), SqlValue::Int(bal)]
    }

    #[test]
    fn insert_lookup_delete() {
        let mut t = accounts();
        let rid = t.insert(row(1, "a", 10)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup_pk(&[SqlValue::Int(1)]), Some(rid));
        assert_eq!(t.delete(rid).unwrap()[2], SqlValue::Int(10));
        assert!(t.is_empty());
        assert_eq!(t.lookup_pk(&[SqlValue::Int(1)]), None);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = accounts();
        t.insert(row(1, "a", 10)).unwrap();
        assert!(matches!(
            t.insert(row(1, "b", 20)),
            Err(SqlError::Constraint(_))
        ));
    }

    #[test]
    fn update_maintains_pk_index() {
        let mut t = accounts();
        let rid = t.insert(row(1, "a", 10)).unwrap();
        t.update(rid, row(2, "a", 10)).unwrap();
        assert_eq!(t.lookup_pk(&[SqlValue::Int(1)]), None);
        assert_eq!(t.lookup_pk(&[SqlValue::Int(2)]), Some(rid));
        // Colliding key change rejected.
        let rid3 = t.insert(row(3, "c", 0)).unwrap();
        assert!(t.update(rid3, row(2, "c", 0)).is_err());
    }

    fn cmp(op: CmpOp, col: usize, v: impl Into<SqlValue>) -> Expr {
        Expr::Cmp(op, Box::new(Expr::Col(col)), Box::new(Expr::Lit(v.into())))
    }

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// The rows the chosen path for `f` visits.
    fn visits(t: &Table, f: &Expr) -> Vec<RowId> {
        t.walk(&t.plan_path(Some(f)), &[]).unwrap().rids
    }

    /// `orders (w, d, id)`, all three the primary key: 2 × 3 × 4 rows.
    fn orders() -> Table {
        let col = |name: &str| Column {
            name: name.into(),
            dtype: DataType::Int,
        };
        let mut t = Table::new(
            TableSchema::new("orders", vec![col("w"), col("d"), col("id")], vec![0, 1, 2]).unwrap(),
        );
        for w in 0..2 {
            for d in 0..3 {
                for id in 0..4 {
                    t.insert(vec![SqlValue::Int(w), SqlValue::Int(d), SqlValue::Int(id)])
                        .unwrap();
                }
            }
        }
        t
    }

    #[test]
    fn secondary_index_used_and_maintained() {
        let mut t = accounts();
        for i in 0..10 {
            t.insert(row(i, if i % 2 == 0 { "even" } else { "odd" }, i * 10))
                .unwrap();
        }
        t.create_index("by_owner", &["owner".into()]).unwrap();
        let f = cmp(CmpOp::Eq, 1, "even");
        assert_eq!(visits(&t, &f).len(), 5);
        // Update moves a row between index keys.
        let rid = t.lookup_pk(&[SqlValue::Int(0)]).unwrap();
        t.update(rid, row(0, "odd", 0)).unwrap();
        assert_eq!(visits(&t, &f).len(), 4);
        // Delete removes from the index.
        let rid2 = t.lookup_pk(&[SqlValue::Int(2)]).unwrap();
        t.delete(rid2);
        assert_eq!(visits(&t, &f).len(), 3);
    }

    #[test]
    fn pk_point_lookup_path() {
        let mut t = accounts();
        for i in 0..100 {
            t.insert(row(i, "x", 0)).unwrap();
        }
        let c = visits(&t, &cmp(CmpOp::Eq, 0, 42));
        assert_eq!(c.len(), 1);
        assert_eq!(t.get(c[0]).unwrap()[0], SqlValue::Int(42));
    }

    #[test]
    fn composite_pk_prefix_range() {
        let t = orders();
        // w = 1 AND d = 2 pins a prefix of 2 of 3 key columns → 4 rows.
        let f = and(cmp(CmpOp::Eq, 0, 1), cmp(CmpOp::Eq, 1, 2));
        assert_eq!(t.plan_path(Some(&f)).to_string(), "pk(=,=)");
        assert_eq!(visits(&t, &f).len(), 4);
    }

    #[test]
    fn range_path_bounds_the_column_after_the_prefix() {
        let t = orders();
        let ids = |f: &Expr| -> Vec<i64> {
            visits(&t, f)
                .iter()
                .map(|r| t.get(*r).unwrap()[2].as_int().unwrap())
                .collect()
        };
        let prefix = || and(cmp(CmpOp::Eq, 0, 1), cmp(CmpOp::Eq, 1, 2));
        // Strict bounds walk inclusively; the filter drops the equal row.
        let f = and(prefix(), cmp(CmpOp::Gt, 2, 1));
        assert_eq!(t.plan_path(Some(&f)).to_string(), "pk(=,=,>=)");
        assert_eq!(ids(&f), vec![1, 2, 3]);
        let f = and(and(prefix(), cmp(CmpOp::Le, 2, 2)), cmp(CmpOp::Ge, 2, 1));
        assert_eq!(t.plan_path(Some(&f)).to_string(), "pk(=,=,>=..<=)");
        assert_eq!(ids(&f), vec![1, 2]);
        // `k < c` is `c > k`; an empty range walks nothing.
        let f = and(
            prefix(),
            Expr::Cmp(
                CmpOp::Lt,
                Box::new(Expr::Lit(9.into())),
                Box::new(Expr::Col(2)),
            ),
        );
        assert_eq!(ids(&f), Vec::<i64>::new());
        // A REAL bound on an INT column orders numerically.
        let f = and(prefix(), cmp(CmpOp::Lt, 2, 1.5));
        assert_eq!(t.plan_path(Some(&f)).to_string(), "pk(=,=,<=)");
        assert_eq!(ids(&f), vec![0, 1]);
        // A bound on the first key column is a range of its own.
        let f = cmp(CmpOp::Ge, 0, 1);
        assert_eq!(t.plan_path(Some(&f)).to_string(), "pk(>=)");
        assert_eq!(visits(&t, &f).len(), 12);
        // A parameter slot is bound per walk.
        let f = and(
            prefix(),
            Expr::Cmp(CmpOp::Ge, Box::new(Expr::Col(2)), Box::new(Expr::Param(0))),
        );
        let path = t.plan_path(Some(&f));
        assert_eq!(t.walk(&path, &[SqlValue::Int(3)]).unwrap().rids.len(), 1);
        assert_eq!(t.walk(&path, &[SqlValue::Int(0)]).unwrap().rids.len(), 4);
        assert!(t.walk(&path, &[]).is_err(), "an unbound slot fails");
    }

    #[test]
    fn a_range_is_exact_only_when_it_is_the_whole_predicate() {
        let t = orders();
        let prefix = || and(cmp(CmpOp::Eq, 0, 1), cmp(CmpOp::Eq, 1, 2));
        let exact = |f: &Expr, params: &[SqlValue]| {
            let path = t.plan_path(Some(f));
            t.walk(&path, params).unwrap().exact
        };
        assert!(exact(&prefix(), &[]));
        assert!(exact(&and(prefix(), cmp(CmpOp::Ge, 2, 1)), &[]));
        // A strict bound, a second bound on one column, a conjunct no
        // index serves: the filter must re-check.
        assert!(!exact(&and(prefix(), cmp(CmpOp::Gt, 2, 1)), &[]));
        let twice = and(and(prefix(), cmp(CmpOp::Ge, 2, 1)), cmp(CmpOp::Ge, 2, 3));
        assert!(!exact(&twice, &[]));
        assert!(!exact(&and(prefix(), cmp(CmpOp::Ne, 2, 1)), &[]));
        // A key bound to NULL matches nothing the range holds.
        let null = and(
            prefix(),
            Expr::Cmp(CmpOp::Le, Box::new(Expr::Col(2)), Box::new(Expr::Param(0))),
        );
        let null = and(null, cmp(CmpOp::Ge, 2, 0));
        assert!(exact(&null, &[SqlValue::Int(3)]));
        assert!(!exact(&null, &[SqlValue::Null]));
        // An upper bound alone holds the NULLs that sort below it.
        assert!(!exact(&and(prefix(), cmp(CmpOp::Le, 2, 3)), &[]));
    }

    #[test]
    fn the_index_pinning_most_columns_wins() {
        let mut t = accounts();
        for i in 0..10 {
            t.insert(row(i, if i < 5 { "low" } else { "high" }, 0))
                .unwrap();
        }
        t.create_index("by_owner", &["owner".into()]).unwrap();
        // One pinned column beats a bounded one…
        let f = and(cmp(CmpOp::Ge, 0, 3), cmp(CmpOp::Eq, 1, "low"));
        assert_eq!(t.plan_path(Some(&f)).to_string(), "by_owner(=)");
        assert_eq!(visits(&t, &f).len(), 5);
        // …and the primary key wins a tie.
        let f = and(cmp(CmpOp::Eq, 1, "low"), cmp(CmpOp::Eq, 0, 3));
        assert_eq!(t.plan_path(Some(&f)).to_string(), "pk(=)");
        // `<>` and column-to-column comparisons serve no index.
        let f = cmp(CmpOp::Ne, 0, 3);
        assert_eq!(t.plan_path(Some(&f)), AccessPath::FullScan);
    }

    #[test]
    fn a_walk_knows_when_it_visits_the_whole_table() {
        let mut t = accounts();
        let point = t.plan_path(Some(&cmp(CmpOp::Eq, 0, 1)));
        assert!(!t.walk(&point, &[]).unwrap().whole_table, "empty table");
        t.insert(row(1, "a", 0)).unwrap();
        assert!(t.walk(&point, &[]).unwrap().whole_table, "its only row");
        t.insert(row(2, "a", 0)).unwrap();
        assert!(!t.walk(&point, &[]).unwrap().whole_table);
        let all = t.plan_path(Some(&cmp(CmpOp::Le, 0, 2)));
        assert!(t.walk(&all, &[]).unwrap().whole_table);
        assert!(t.walk(&AccessPath::FullScan, &[]).unwrap().whole_table);
        t.create_index("by_owner", &["owner".into()]).unwrap();
        let owner = t.plan_path(Some(&cmp(CmpOp::Eq, 1, "a")));
        assert!(t.walk(&owner, &[]).unwrap().whole_table);
        t.insert(row(3, "b", 0)).unwrap();
        assert!(!t.walk(&owner, &[]).unwrap().whole_table);
    }

    #[test]
    fn range_order_names_the_column_after_the_prefix() {
        let mut t = orders();
        let w = cmp(CmpOp::Eq, 0, 1);
        let wd = and(cmp(CmpOp::Eq, 0, 1), cmp(CmpOp::Eq, 1, 2));
        let wdi = and(wd.clone(), cmp(CmpOp::Eq, 2, 0));
        let order = |t: &Table, f: &Expr| t.range_order(&t.plan_path(Some(f)));
        assert_eq!(order(&t, &w), Some((1, false)));
        assert_eq!(
            order(&t, &wd),
            Some((2, true)),
            "the last key column is unique"
        );
        assert_eq!(order(&t, &wdi), None, "a pinned key has no order");
        assert_eq!(t.range_order(&AccessPath::FullScan), None);
        t.create_index("by_d_id", &["d".into(), "id".into()])
            .unwrap();
        let d = cmp(CmpOp::Eq, 1, 2);
        assert_eq!(t.plan_path(Some(&d)).to_string(), "by_d_id(=)");
        assert_eq!(order(&t, &d), Some((2, false)), "a secondary index can tie");
    }

    #[test]
    fn plan_path_is_data_independent_but_index_dependent() {
        let mut t = accounts();
        for i in 0..4 {
            t.insert(row(i, "x", 0)).unwrap();
        }
        let f = cmp(CmpOp::Eq, 1, "x");
        // Without an index on `owner` the path is a full scan…
        let before = t.plan_path(Some(&f));
        assert_eq!(before, AccessPath::FullScan);
        // …and stays valid (same candidates) across DML.
        t.insert(row(9, "x", 0)).unwrap();
        assert_eq!(t.walk(&before, &[]).unwrap().rids.len(), 5);
        // A new index changes the chosen path; the *old* path still
        // executes (it is the cache's job to refresh it).
        t.create_index("by_owner", &["owner".into()]).unwrap();
        let after = t.plan_path(Some(&f));
        assert_eq!(after.to_string(), "by_owner(=)");
        assert_eq!(t.walk(&after, &[]).unwrap().rids.len(), 5);
        assert_eq!(t.walk(&before, &[]).unwrap().rids.len(), 5);
    }

    #[test]
    fn byte_size_tracks_rows() {
        let mut t = accounts();
        t.insert(row(1, "", 10)).unwrap();
        assert_eq!(t.byte_size(), 16);
        t.insert(row(2, "abcd", 10)).unwrap();
        assert_eq!(t.byte_size(), 36);
    }
}
