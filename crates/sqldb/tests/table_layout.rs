//! The table layout against the two-map layout it replaced.
//!
//! `Table` keeps its rows in a dense slab indexed by row id and every
//! index over one key type. The model below is the layout before it: a
//! `BTreeMap` from row id to row, a `BTreeMap` from key vector to row id,
//! and one from key vector to a row-id set per secondary index, maintained
//! one row at a time. Over random sequences of inserts (single and bulk),
//! deletes, updates (re-keying ones too), column updates, rollbacks to
//! savepoints through an undo log like the engine's, rebuilds from a
//! snapshot and forks, both must agree on heap order, point reads, key
//! lookups, every index walk, data size and snapshot bytes.

use proptest::prelude::*;
use shadowdb_sqldb::expr::Expr;
use shadowdb_sqldb::snapshot::RowBatch;
use shadowdb_sqldb::table::{AccessPath, IndexName, RowId, Table};
use shadowdb_sqldb::{
    Column, DataType, Database, EngineProfile, SharedRow, Snapshot, SqlError, SqlValue, TableSchema,
};
use std::collections::{BTreeMap, BTreeSet};

type Row = Vec<SqlValue>;

/// `(k0[, k1], c, v)`: a one- or two-column primary key, a text column
/// and a real one. Index `by_c` is over `c`; `by_cv`, over `(c, v)`, is
/// created by an operation.
fn schema(wide: bool) -> TableSchema {
    let col = |name: &str, dtype| Column {
        name: name.into(),
        dtype,
    };
    let mut cols = vec![col("k0", DataType::Int)];
    if wide {
        cols.push(col("k1", DataType::Int));
    }
    cols.push(col("c", DataType::Text));
    cols.push(col("v", DataType::Real));
    let key = if wide { vec![0, 1] } else { vec![0] };
    TableSchema::new("t", cols, key).unwrap()
}

/// The layout before the slab: two maps and a map of sets per index.
#[derive(Clone)]
struct Model {
    schema: TableSchema,
    rows: BTreeMap<RowId, SharedRow>,
    next_rowid: RowId,
    pk: BTreeMap<Row, RowId>,
    secondary: Vec<Index>,
}

/// A secondary index: its name, its columns, and a row-id set per key.
type Index = (String, Vec<usize>, BTreeMap<Row, BTreeSet<RowId>>);

fn key(row: &[SqlValue], cols: &[usize]) -> Row {
    cols.iter().map(|&c| row[c].clone()).collect()
}

impl Model {
    fn new(schema: TableSchema) -> Model {
        Model {
            schema,
            rows: BTreeMap::new(),
            next_rowid: 0,
            pk: BTreeMap::new(),
            secondary: Vec::new(),
        }
    }

    fn create_index(&mut self, name: &str, columns: &[String]) {
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.col(c).unwrap())
            .collect();
        let mut map: BTreeMap<Row, BTreeSet<RowId>> = BTreeMap::new();
        for (&rid, row) in &self.rows {
            map.entry(key(row, &cols)).or_default().insert(rid);
        }
        self.secondary.push((name.to_owned(), cols, map));
    }

    fn index(&mut self, rid: RowId, row: &[SqlValue]) {
        for (_, cols, map) in &mut self.secondary {
            map.entry(key(row, cols)).or_default().insert(rid);
        }
    }

    fn unindex(&mut self, rid: RowId, row: &[SqlValue]) {
        for (_, cols, map) in &mut self.secondary {
            let k = key(row, cols);
            let set = map.get_mut(&k).unwrap();
            set.remove(&rid);
            if set.is_empty() {
                map.remove(&k);
            }
        }
    }

    fn insert(&mut self, row: Row) -> Result<RowId, SqlError> {
        self.schema.check_row(&row)?;
        let k = self.schema.key_of(&row);
        if self.pk.contains_key(&k) {
            return Err(SqlError::Constraint(format!(
                "duplicate primary key {k:?} in t"
            )));
        }
        let rid = self.next_rowid;
        self.next_rowid += 1;
        self.index(rid, &row);
        self.pk.insert(k, rid);
        self.rows.insert(rid, row.into());
        Ok(rid)
    }

    fn restore(&mut self, rid: RowId, row: SharedRow) -> Result<(), SqlError> {
        self.schema.check_row(&row)?;
        let k = self.schema.key_of(&row);
        if self.rows.contains_key(&rid) || self.pk.contains_key(&k) {
            return Err(SqlError::Constraint("occupied".into()));
        }
        self.index(rid, &row);
        self.pk.insert(k, rid);
        self.rows.insert(rid, row);
        self.next_rowid = self.next_rowid.max(rid + 1);
        Ok(())
    }

    fn delete(&mut self, rid: RowId) -> Option<SharedRow> {
        let row = self.rows.remove(&rid)?;
        self.pk.remove(&self.schema.key_of(&row));
        self.unindex(rid, &row);
        Some(row)
    }

    fn update(&mut self, rid: RowId, new: SharedRow) -> Result<SharedRow, SqlError> {
        self.schema.check_row(&new)?;
        let old = self
            .rows
            .get(&rid)
            .cloned()
            .ok_or(SqlError::Unknown("rid".into()))?;
        let (old_key, new_key) = (self.schema.key_of(&old), self.schema.key_of(&new));
        if old_key != new_key {
            if self.pk.contains_key(&new_key) {
                return Err(SqlError::Constraint("collides".into()));
            }
            self.pk.remove(&old_key);
            self.pk.insert(new_key, rid);
        }
        self.unindex(rid, &old);
        self.index(rid, &new);
        self.rows.insert(rid, new);
        Ok(old)
    }

    /// Every value must fit its column, even one a later pair overwrites.
    fn update_columns(
        &mut self,
        rid: RowId,
        cols: &[(usize, SqlValue)],
    ) -> Result<SharedRow, SqlError> {
        let mut row = self.rows[&rid].to_vec();
        for (c, v) in cols {
            if !self.schema.columns[*c].dtype.admits(v) {
                return Err(SqlError::Constraint("does not fit".into()));
            }
            row[*c] = v.clone();
        }
        self.update(rid, row.into())
    }

    /// The row ids in `range` of index `which` (`None`: the primary key),
    /// in key order, found by filtering every entry, and whether the
    /// range holds them all.
    fn walk(&self, which: Option<usize>, range: &Range) -> (Vec<RowId>, bool) {
        let entries: Vec<(&Row, RowId)> = match which {
            None => self.pk.iter().map(|(k, &rid)| (k, rid)).collect(),
            Some(i) => {
                let map = &self.secondary[i].2;
                map.iter()
                    .flat_map(|(k, set)| set.iter().map(move |&rid| (k, rid)))
                    .collect()
            }
        };
        let rids = entries
            .iter()
            .filter(|(k, _)| range.contains(k))
            .map(|e| e.1);
        let whole = !entries.is_empty() && entries.iter().all(|(k, _)| range.contains(k));
        (rids.collect(), whole)
    }

    /// The secondary indexes' names and column names.
    fn index_defs(&self) -> Vec<(String, Vec<String>)> {
        let names = |cols: &Vec<usize>| {
            let name = |c: &usize| self.schema.columns[*c].name.clone();
            cols.iter().map(name).collect()
        };
        let def = |(name, cols, _): &Index| (name.clone(), names(cols));
        self.secondary.iter().map(def).collect()
    }

    fn snapshot(&self) -> Snapshot {
        let batch = RowBatch {
            table: self.schema.name.clone(),
            schema: Some(self.schema.clone()),
            indexes: self.index_defs(),
            rows: self.rows.values().map(|r| r.to_vec()).collect(),
        };
        Snapshot::from_batches(&[batch]).unwrap()
    }
}

/// An index range: the leading key values, then bounds on the next one.
#[derive(Clone, Debug)]
struct Range {
    eq: Vec<SqlValue>,
    lower: Option<SqlValue>,
    upper: Option<SqlValue>,
}

impl Range {
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

    fn path(&self, index: IndexName, exact: bool) -> AccessPath {
        let lit = |v: &SqlValue| Expr::Lit(v.clone());
        AccessPath::Range {
            index,
            eq: self.eq.iter().map(lit).collect(),
            lower: self.lower.as_ref().map(lit),
            upper: self.upper.as_ref().map(lit),
            exact,
        }
    }
}

/// Small domains, so keys collide, and NULL in every column.
fn int() -> impl Strategy<Value = SqlValue> {
    (0i64..9).prop_map(|i| {
        if i < 8 {
            SqlValue::Int(i / 2)
        } else {
            SqlValue::Null
        }
    })
}

fn text() -> impl Strategy<Value = SqlValue> {
    let texts = ["", "a", "b", "bb", "a", "b"];
    (0usize..7).prop_map(move |i| texts.get(i).map_or(SqlValue::Null, |&s| s.into()))
}

fn real() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        (0i64..4).prop_map(SqlValue::Int),
        (0usize..3).prop_map(|i| SqlValue::Real([0.5, 2.0, 3.5][i])),
        Just(SqlValue::Null),
    ]
}

/// A value of any column's domain — also the wrong type for it, which
/// the table must reject.
fn any_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![int(), text(), real()]
}

fn maybe(s: impl Strategy<Value = SqlValue> + 'static) -> impl Strategy<Value = Option<SqlValue>> {
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn row() -> impl Strategy<Value = Row> {
    (int(), int(), text(), real()).prop_map(|(k0, k1, c, v)| vec![k0, k1, c, v])
}

fn range() -> impl Strategy<Value = Range> {
    let eq = proptest::collection::vec(any_value(), 0..3);
    (eq, maybe(any_value()), maybe(any_value())).prop_map(|(eq, lower, upper)| Range {
        eq,
        lower,
        upper,
    })
}

/// A random operation. Rows are generated for the two-column key and cut
/// to the one-column table's shape by [`narrow`].
#[derive(Clone, Debug)]
enum Op {
    Insert(Row),
    InsertRows(Vec<Row>),
    /// Deletes the row at this position of the live rows (modulo).
    Delete(usize),
    Update(usize, Row),
    UpdateColumns(usize, Vec<(usize, SqlValue)>),
    CreateIndex,
    Savepoint,
    RollbackTo,
    Rollback,
    /// Rebuilds the table from its snapshot, as `Database::restore` does.
    Restore,
    /// Forks the table, writes both copies, and carries on with the fork.
    Fork(Row),
}

fn op() -> impl Strategy<Value = Op> {
    let pick = || 0usize..64;
    prop_oneof![
        row().prop_map(Op::Insert),
        row().prop_map(Op::Insert),
        row().prop_map(Op::Insert),
        proptest::collection::vec(row(), 0..12).prop_map(Op::InsertRows),
        pick().prop_map(Op::Delete),
        pick().prop_map(Op::Delete),
        (pick(), row()).prop_map(|(i, r)| Op::Update(i, r)),
        (pick(), row()).prop_map(|(i, r)| Op::Update(i, r)),
        (
            pick(),
            proptest::collection::vec((0usize..4, any_value()), 1..3)
        )
            .prop_map(|(i, cols)| Op::UpdateColumns(i, cols)),
        (
            pick(),
            proptest::collection::vec((0usize..4, any_value()), 1..3)
        )
            .prop_map(|(i, cols)| Op::UpdateColumns(i, cols)),
        Just(Op::CreateIndex),
        Just(Op::Savepoint),
        Just(Op::RollbackTo),
        Just(Op::Rollback),
        Just(Op::Restore),
        row().prop_map(Op::Fork),
    ]
}

/// One undo record, as the engine keeps them.
enum Undo {
    Insert(RowId),
    Delete(RowId, SharedRow),
    Update(RowId, SharedRow),
}

/// The table under test, its model, and the undo log of both.
struct World {
    table: Table,
    model: Model,
    undo: Vec<Undo>,
    savepoints: Vec<usize>,
}

impl World {
    fn new(wide: bool) -> World {
        let mut table = Table::new(schema(wide));
        let mut model = Model::new(schema(wide));
        table.create_index("by_c", &["c".into()]).unwrap();
        model.create_index("by_c", &["c".into()]);
        World {
            table,
            model,
            undo: Vec::new(),
            savepoints: Vec::new(),
        }
    }

    fn nth_live(&self, i: usize) -> Option<RowId> {
        let n = self.model.rows.len();
        (n > 0).then(|| *self.model.rows.keys().nth(i % n).unwrap())
    }

    fn undo_to(&mut self, sp: usize) {
        for u in self.undo.drain(sp..).rev() {
            match u {
                Undo::Insert(rid) => {
                    assert_eq!(self.table.delete(rid), self.model.delete(rid));
                }
                Undo::Delete(rid, row) => {
                    self.table.restore(rid, row.clone()).unwrap();
                    self.model.restore(rid, row).unwrap();
                }
                Undo::Update(rid, old) => {
                    let a = self.table.update(rid, old.clone()).unwrap();
                    assert_eq!(a, self.model.update(rid, old).unwrap());
                }
            }
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(row) => {
                let (a, b) = (self.table.insert(row.clone()), self.model.insert(row));
                assert_eq!(a.is_ok(), b.is_ok(), "{a:?} vs {b:?}");
                if let Ok(rid) = a {
                    assert_eq!(Ok(rid), b);
                    self.undo.push(Undo::Insert(rid));
                }
            }
            Op::InsertRows(rows) => {
                let first = self.model.next_rowid;
                let want = rows
                    .iter()
                    .try_fold(0, |n, r| self.model.insert(r.clone()).map(|_| n + 1));
                let got = self.table.insert_rows(rows);
                assert_eq!(got.as_ref().err(), want.as_ref().err());
                assert_eq!(got.is_ok(), want.is_ok());
                if let Ok(n) = got {
                    assert_eq!(Ok(n), want);
                }
                // The rows before a failure stay inserted, as they would
                // one by one.
                for rid in first..self.model.next_rowid {
                    self.undo.push(Undo::Insert(rid));
                }
            }
            Op::Delete(i) => {
                let Some(rid) = self.nth_live(i) else { return };
                let row = self.table.delete(rid).unwrap();
                assert_eq!(Some(&row), self.model.delete(rid).as_ref());
                self.undo.push(Undo::Delete(rid, row));
                assert_eq!(self.table.delete(rid), None, "a deleted row is gone");
            }
            Op::Update(i, row) => {
                let Some(rid) = self.nth_live(i) else { return };
                let a = self.table.update(rid, row.clone());
                let b = self.model.update(rid, row.into());
                assert_eq!(a.is_ok(), b.is_ok(), "{a:?} vs {b:?}");
                if let Ok(old) = a {
                    assert_eq!(Ok(&old), b.as_ref());
                    self.undo.push(Undo::Update(rid, old));
                }
            }
            Op::UpdateColumns(i, cols) => {
                let Some(rid) = self.nth_live(i) else { return };
                let b = self.model.update_columns(rid, &cols);
                let a = self.table.update_columns(rid, cols);
                assert_eq!(a.is_ok(), b.is_ok(), "{a:?} vs {b:?}");
                if let Ok(old) = a {
                    assert_eq!(Ok(&old), b.as_ref());
                    self.undo.push(Undo::Update(rid, old));
                }
            }
            Op::CreateIndex => {
                if self
                    .table
                    .create_index("by_cv", &["c".into(), "v".into()])
                    .is_ok()
                {
                    self.model.create_index("by_cv", &["c".into(), "v".into()]);
                }
            }
            Op::Savepoint => self.savepoints.push(self.undo.len()),
            Op::RollbackTo => {
                let sp = self.savepoints.pop().unwrap_or(0);
                self.undo_to(sp.min(self.undo.len()));
            }
            Op::Rollback => {
                self.undo_to(0);
                self.savepoints.clear();
            }
            Op::Restore => {
                let snapshot = Snapshot::from_tables(std::iter::once(&self.table));
                let dump = &snapshot.tables()[0];
                let mut table = Table::new(dump.schema.clone());
                table.insert_rows(dump.rows.iter().cloned()).unwrap();
                for (name, columns) in &dump.indexes {
                    table.create_index(name, columns).unwrap();
                }
                let mut model = Model::new(self.model.schema.clone());
                for row in self.model.rows.values() {
                    model.insert(row.to_vec()).unwrap();
                }
                for (name, columns) in self.model.index_defs() {
                    model.create_index(&name, &columns);
                }
                self.table = table;
                self.model = model;
                self.undo.clear();
                self.savepoints.clear();
            }
            Op::Fork(row) => {
                let (table, model) = (self.table.clone(), self.model.clone());
                self.apply(Op::Insert(row));
                self.apply(Op::Delete(0));
                self.apply(Op::UpdateColumns(1, vec![(0, SqlValue::Int(9))]));
                assert_agree(&table, &model, &[]);
                // And the other way round: writing the parent leaves the
                // fork (carried on with, and checked after this) alone.
                let mut parent = table;
                let first = parent.iter().next().map(|(rid, _)| rid);
                if let Some(rid) = first {
                    parent.delete(rid);
                }
            }
        }
    }
}

/// Compares every read of `t` with `m`.
fn assert_agree(t: &Table, m: &Model, ranges: &[Range]) {
    let heap: Vec<(RowId, Row)> = t.iter().map(|(rid, r)| (rid, r.to_vec())).collect();
    let want: Vec<(RowId, Row)> = m.rows.iter().map(|(&rid, r)| (rid, r.to_vec())).collect();
    assert_eq!(heap, want, "heap order");
    assert_eq!(t.len(), m.rows.len());
    for rid in 0..m.next_rowid + 2 {
        assert_eq!(t.get(rid), m.rows.get(&rid).map(|r| &**r), "get({rid})");
    }
    for (k, &rid) in &m.pk {
        assert_eq!(t.lookup_pk(k), Some(rid));
    }
    assert_eq!(
        t.byte_size(),
        m.rows.values().map(|r| m.schema.row_bytes(r)).sum()
    );
    assert_eq!(
        Snapshot::from_tables(std::iter::once(t)).to_bytes(),
        m.snapshot().to_bytes(),
        "snapshot bytes"
    );
    let indexes = std::iter::once((IndexName::Primary, None)).chain(
        m.secondary
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| (IndexName::Secondary(name.clone()), Some(i))),
    );
    for (index, which) in indexes {
        for (n, range) in ranges.iter().enumerate() {
            let exact = n % 2 == 0;
            let walk = t.walk(&range.path(index.clone(), exact), &[]).unwrap();
            let (rids, whole) = m.walk(which, range);
            assert_eq!(walk.rids, rids, "{index:?} {range:?}");
            for rid in &rids {
                if which.is_none() {
                    let k = m.schema.key_of(&m.rows[rid]);
                    assert_eq!(t.lookup_pk(&k), Some(*rid));
                }
            }
            assert_eq!(walk.whole_table, whole, "{index:?} {range:?}");
            let null = range.eq.iter().chain(&range.lower).chain(&range.upper);
            assert_eq!(walk.exact, exact && !null.clone().any(SqlValue::is_null));
        }
    }
    let scan = t.walk(&AccessPath::FullScan, &[]).unwrap();
    assert_eq!(scan.rids, m.rows.keys().copied().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_matches_the_two_map_model(
        wide in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..60),
        ranges in proptest::collection::vec(range(), 1..12),
    ) {
        let mut w = World::new(wide);
        for op in ops {
            let op = if wide { op } else { narrow(op) };
            w.apply(op);
            assert_agree(&w.table, &w.model, &ranges);
        }
    }
}

/// An operation generated for the two-column key, cut to the one-column
/// table: each row loses its second key column.
fn narrow(op: Op) -> Op {
    let cut = |mut r: Row| {
        r.remove(1);
        r
    };
    match op {
        Op::Insert(r) => Op::Insert(cut(r)),
        Op::InsertRows(rs) => Op::InsertRows(rs.into_iter().map(cut).collect()),
        Op::Update(i, r) => Op::Update(i, cut(r)),
        Op::UpdateColumns(i, cols) => {
            Op::UpdateColumns(i, cols.into_iter().map(|(c, v)| (c.min(2), v)).collect())
        }
        Op::Fork(r) => Op::Fork(cut(r)),
        other => other,
    }
}

/// A statement of a transaction on the two-column-key table.
#[derive(Clone, Debug)]
enum Stmt {
    Insert(Row),
    /// `DELETE` by primary key.
    Delete(i64, i64),
    /// Moves a row to another first key column.
    Rekey(i64, i64, i64),
    /// `UPDATE … SET v = n WHERE c = …`, walking index `by_c`.
    Set(&'static str, i64),
    Savepoint,
    RollbackTo,
}

/// A row as SQL can write it: integers and text, NULL in the non-key
/// columns.
fn sql_row() -> impl Strategy<Value = Row> {
    let v = (0i64..5).prop_map(|i| {
        if i < 4 {
            SqlValue::Int(i)
        } else {
            SqlValue::Null
        }
    });
    (0i64..4, 0i64..4, text(), v)
        .prop_map(|(k0, k1, c, v)| vec![SqlValue::Int(k0), SqlValue::Int(k1), c, v])
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let key = || 0i64..4;
    prop_oneof![
        sql_row().prop_map(Stmt::Insert),
        (key(), key()).prop_map(|(a, b)| Stmt::Delete(a, b)),
        (key(), key(), key()).prop_map(|(a, b, x)| Stmt::Rekey(a, b, x)),
        (key(), key(), key()).prop_map(|(a, b, x)| Stmt::Rekey(a, b, x)),
        ((0usize..3), key()).prop_map(|(c, n)| Stmt::Set(["a", "b", ""][c], n)),
        Just(Stmt::Savepoint),
        Just(Stmt::RollbackTo),
    ]
}

/// Undoes `undo` down to `sp` on the model, newest first.
fn undo_model(model: &mut Model, undo: &mut Vec<Undo>, sp: usize) {
    for u in undo.drain(sp..).rev() {
        match u {
            Undo::Insert(rid) => {
                model.delete(rid).unwrap();
            }
            Undo::Delete(rid, row) => model.restore(rid, row).unwrap(),
            Undo::Update(rid, old) => {
                model.update(rid, old).unwrap();
            }
        }
    }
}

/// Runs one statement on the transaction and its table-level operations
/// on the model, which must agree on whether it succeeded.
fn run(
    txn: &mut shadowdb_sqldb::Transaction,
    model: &mut Model,
    undo: &mut Vec<Undo>,
    stmt: &Stmt,
) {
    let key = |a: i64, b: i64| vec![SqlValue::Int(a), SqlValue::Int(b)];
    let (sql, ok) = match stmt {
        Stmt::Insert(row) => {
            let values: Vec<String> = row.iter().map(SqlValue::to_string).collect();
            let r = model.insert(row.clone());
            r.iter().for_each(|&rid| undo.push(Undo::Insert(rid)));
            (
                format!("INSERT INTO t VALUES ({})", values.join(", ")),
                r.is_ok(),
            )
        }
        Stmt::Delete(a, b) => {
            if let Some(&rid) = model.pk.get(&key(*a, *b)) {
                undo.push(Undo::Delete(rid, model.delete(rid).unwrap()));
            }
            (format!("DELETE FROM t WHERE k0 = {a} AND k1 = {b}"), true)
        }
        Stmt::Rekey(a, b, x) => {
            let mut ok = true;
            if let Some(&rid) = model.pk.get(&key(*a, *b)) {
                let mut row = model.rows[&rid].to_vec();
                row[0] = SqlValue::Int(*x);
                match model.update(rid, row.into()) {
                    Ok(old) => undo.push(Undo::Update(rid, old)),
                    Err(_) => ok = false,
                }
            }
            (
                format!("UPDATE t SET k0 = {x} WHERE k0 = {a} AND k1 = {b}"),
                ok,
            )
        }
        Stmt::Set(c, n) => {
            let rids = model.secondary[0].2.get(&vec![SqlValue::from(*c)]);
            for rid in rids.cloned().unwrap_or_default() {
                let mut row = model.rows[&rid].to_vec();
                row[3] = SqlValue::Int(*n);
                undo.push(Undo::Update(rid, model.update(rid, row.into()).unwrap()));
            }
            (format!("UPDATE t SET v = {n} WHERE c = '{c}'"), true)
        }
        Stmt::Savepoint | Stmt::RollbackTo => unreachable!("handled by the caller"),
    };
    let r = txn.execute(&sql);
    assert_eq!(r.is_ok(), ok, "{sql}: {r:?}");
}

/// Reads through the primary key, both indexes and a full scan.
fn reads(db: &Database) -> Vec<Vec<Row>> {
    [
        "SELECT * FROM t WHERE c = 'a'",
        "SELECT * FROM t WHERE c = 'b' AND v >= 1",
        "SELECT * FROM t WHERE k0 = 1",
        "SELECT * FROM t WHERE k0 = 2 AND k1 >= 1",
        "SELECT * FROM t WHERE k0 <= 1",
        "SELECT * FROM t WHERE v <= 2",
    ]
    .iter()
    .map(|sql| db.execute(sql).unwrap().rows)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Through the engine: a bulk load, a transaction with savepoints
    /// whose rollbacks re-insert deleted and re-keyed rows under their
    /// ids, then a restore from the snapshot and a fork.
    #[test]
    fn the_engine_matches_the_model_through_rollback_restore_and_fork(
        load in proptest::collection::vec(sql_row(), 0..24),
        stmts in proptest::collection::vec(stmt(), 0..30),
        commit in any::<bool>(),
    ) {
        let db = Database::new(EngineProfile::h2());
        db.execute("CREATE TABLE t (k0 INT, k1 INT, c TEXT, v REAL, PRIMARY KEY (k0, k1))")
            .unwrap();
        db.execute("CREATE INDEX by_c ON t (c)").unwrap();
        let mut model = Model::new(schema(true));
        model.create_index("by_c", &["c".into()]);
        let want = load.iter().try_fold(0, |n, r| model.insert(r.clone()).map(|_| n + 1));
        prop_assert_eq!(db.insert_rows("t", load), want);
        let same = |db: &Database, model: &Model| {
            db.snapshot().to_bytes() == model.snapshot().to_bytes()
        };
        prop_assert!(same(&db, &model), "after the load");

        let mut txn = db.begin().unwrap();
        let (mut undo, mut savepoints) = (Vec::new(), Vec::new());
        for stmt in &stmts {
            match stmt {
                Stmt::Savepoint => savepoints.push((txn.savepoint(), undo.len())),
                Stmt::RollbackTo => {
                    let (sp, msp) = savepoints.pop().unwrap_or((0, 0));
                    txn.rollback_to(sp).unwrap();
                    let msp = msp.min(undo.len());
                    undo_model(&mut model, &mut undo, msp);
                }
                _ => run(&mut txn, &mut model, &mut undo, stmt),
            }
            prop_assert!(same(&db, &model), "after {:?}", stmt);
        }
        if commit {
            txn.commit().unwrap();
        } else {
            txn.rollback().unwrap();
            undo_model(&mut model, &mut undo, 0);
        }
        prop_assert!(same(&db, &model), "after the transaction");

        let snapshot = db.snapshot();
        let copy = Database::new(EngineProfile::h2());
        copy.restore(&snapshot).unwrap();
        prop_assert_eq!(copy.snapshot().to_bytes(), snapshot.to_bytes());
        prop_assert_eq!(reads(&copy), reads(&db));

        let fork = db.fork();
        let before = (db.snapshot().to_bytes(), reads(&db));
        fork.execute("DELETE FROM t WHERE k0 = 1").unwrap();
        fork.execute("UPDATE t SET k0 = 9 WHERE k0 = 2 AND k1 = 0").unwrap();
        prop_assert_eq!((db.snapshot().to_bytes(), reads(&db)), before);
        let forked = fork.snapshot().to_bytes();
        db.execute("UPDATE t SET v = 7 WHERE c = 'a'").unwrap();
        db.execute("INSERT INTO t VALUES (8, 8, 'a', 1)").unwrap();
        prop_assert_eq!(fork.snapshot().to_bytes(), forked);
    }
}
