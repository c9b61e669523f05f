//! A transaction's effects: what it changed, as rows.
//!
//! A primary-backup group need not run a transaction twice. The primary
//! executes it and hands its backups the *effects* instead: after-images of
//! the rows it inserted, the changed columns of the rows it updated, the
//! primary keys of the rows it deleted, and its DDL as statement text.
//! Applying them ([`crate::Transaction::apply_effects`]) goes straight to
//! the table layer — indexes are maintained, but nothing is parsed (beyond
//! DDL), planned, read through a predicate or evaluated — and leaves the
//! database exactly as executing the transaction would have.
//!
//! Effects are captured from the undo log the transaction keeps anyway
//! ([`crate::Transaction::effects_since`]), so they are *net*: a row
//! inserted and deleted again leaves no trace, one updated twice leaves one
//! update, and work undone by a savepoint rollback none at all. Every table
//! has a primary key (the schema refuses one without), so every row change
//! is addressable by key.
//!
//! The wire form ([`Effects`]) is one compact byte string: integers as
//! zigzag varints, every key and row prefixed by its length.
//!
//! ```text
//! set     := varint n, ddl text × n, varint m, table × m     (empty: no effects)
//! table   := name, deletes, rekeys, updates, inserts          (applied in that order)
//! deletes := varint n, key × n
//! rekeys  := varint n, (old key, new row) × n                 (primary key changed)
//! updates := varint n, (key, varint c, (varint column, value) × c) × n
//! inserts := varint n, row × n                                (in the primary's row order)
//! key/row := varint n, value × n
//! value   := 0 (NULL) | 1 zigzag-varint | 2 f64 | 3 varint len, utf-8
//!          | 4 + i (the integer i, 0 ≤ i < 251)
//! ```

use crate::value::{Row, SqlValue};
use crate::{Result, SqlError};
use bytes::{BufMut, Bytes, BytesMut};

/// One transaction's effects in their wire form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Effects(Bytes);

impl Effects {
    /// Wraps bytes received from a peer or read from a log. They are
    /// validated when decoded or applied, not here.
    pub fn from_bytes(bytes: Bytes) -> Effects {
        Effects(bytes)
    }

    /// The wire form.
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }

    /// Whether the transaction changed nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// [`SqlError::Parse`] on truncated or malformed bytes.
    pub fn decode(&self) -> Result<EffectSet> {
        let mut r = Reader(&self.0);
        if r.0.is_empty() {
            return Ok(EffectSet::default());
        }
        let ddl = (0..r.len()?).map(|_| r.text()).collect::<Result<_>>()?;
        let mut tables = Vec::new();
        for _ in 0..r.len()? {
            let table = r.text()?;
            let deletes = (0..r.len()?).map(|_| r.row()).collect::<Result<_>>()?;
            let rekeys = (0..r.len()?)
                .map(|_| Ok((r.row()?, r.row()?)))
                .collect::<Result<_>>()?;
            let mut updates = Vec::new();
            for _ in 0..r.len()? {
                let key = r.row()?;
                let cols = (0..r.len()?)
                    .map(|_| Ok((r.column()?, r.value()?)))
                    .collect::<Result<_>>()?;
                updates.push((key, cols));
            }
            let inserts = (0..r.len()?).map(|_| r.row()).collect::<Result<_>>()?;
            tables.push(TableEffects {
                table,
                deletes,
                rekeys,
                updates,
                inserts,
            });
        }
        if !r.0.is_empty() {
            return Err(malformed());
        }
        Ok(EffectSet { ddl, tables })
    }
}

/// A decoded effect set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EffectSet {
    /// DDL statements, in execution order; applied before any row.
    pub ddl: Vec<String>,
    /// Row changes, per table.
    pub tables: Vec<TableEffects>,
}

/// One table's row changes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableEffects {
    /// The table (lowercase).
    pub table: String,
    /// Primary keys of deleted rows.
    pub deletes: Vec<Row>,
    /// Rows whose primary key changed: the old key and the new row.
    pub rekeys: Vec<(Row, Row)>,
    /// Updated rows: the key and each changed column's new value.
    pub updates: Vec<(Row, Vec<(usize, SqlValue)>)>,
    /// Inserted rows, whole.
    pub inserts: Vec<Row>,
}

impl TableEffects {
    /// Rows this table's changes write.
    pub fn rows(&self) -> usize {
        self.deletes.len() + self.rekeys.len() + self.updates.len() + self.inserts.len()
    }

    fn is_empty(&self) -> bool {
        self.rows() == 0
    }
}

impl EffectSet {
    /// Whether the set changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ddl.is_empty() && self.tables.iter().all(TableEffects::is_empty)
    }

    /// Encodes the set into its wire form (empty bytes for no effects).
    pub fn encode(&self) -> Effects {
        if self.is_empty() {
            return Effects::default();
        }
        let mut buf = BytesMut::with_capacity(64);
        put_len(&mut buf, self.ddl.len());
        for sql in &self.ddl {
            put_text(&mut buf, sql);
        }
        let tables: Vec<&TableEffects> = self.tables.iter().filter(|t| !t.is_empty()).collect();
        put_len(&mut buf, tables.len());
        for t in tables {
            put_text(&mut buf, &t.table);
            put_len(&mut buf, t.deletes.len());
            for key in &t.deletes {
                put_row(&mut buf, key);
            }
            put_len(&mut buf, t.rekeys.len());
            for (key, row) in &t.rekeys {
                put_row(&mut buf, key);
                put_row(&mut buf, row);
            }
            put_len(&mut buf, t.updates.len());
            for (key, cols) in &t.updates {
                put_row(&mut buf, key);
                put_len(&mut buf, cols.len());
                for (c, v) in cols {
                    put_len(&mut buf, *c);
                    put_value(&mut buf, v);
                }
            }
            put_len(&mut buf, t.inserts.len());
            for row in &t.inserts {
                put_row(&mut buf, row);
            }
        }
        // An exact-size copy: a replica may keep thousands of these.
        Effects(Bytes::copy_from_slice(&buf))
    }
}

/// One row a transaction touched, borrowed from the table: its image from
/// before the transaction (`None`: the transaction inserted it) and its
/// image now (`None`: the transaction deleted it).
pub(crate) type Change<'a> = (Option<&'a [SqlValue]>, Option<&'a [SqlValue]>);

/// One table's touched rows, with its primary-key columns.
pub(crate) struct TableChanges<'a> {
    pub(crate) table: &'a str,
    pub(crate) primary_key: &'a [usize],
    pub(crate) changes: Vec<Change<'a>>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Delete,
    Rekey,
    Update,
    Insert,
    Unchanged,
}

fn kind(pk: &[usize], change: Change<'_>) -> Kind {
    match change {
        (Some(_), None) => Kind::Delete,
        (None, Some(_)) => Kind::Insert,
        (Some(b), Some(n)) if pk.iter().any(|&i| !identical(&b[i], &n[i])) => Kind::Rekey,
        (Some(b), Some(n)) if b.iter().zip(n).any(|(x, y)| !identical(x, y)) => Kind::Update,
        _ => Kind::Unchanged,
    }
}

/// Encodes a transaction's DDL and touched rows straight into the wire
/// form, without building an [`EffectSet`]: what
/// [`crate::Transaction::effects_since`] runs on the primary's commit path.
pub(crate) fn encode_changes(ddl: &[&str], tables: &[TableChanges<'_>]) -> Effects {
    let kinds: Vec<Vec<Kind>> = tables
        .iter()
        .map(|t| t.changes.iter().map(|&c| kind(t.primary_key, c)).collect())
        .collect();
    let live = |k: &Vec<Kind>| k.iter().any(|&k| k != Kind::Unchanged);
    let touched = kinds.iter().filter(|k| live(k)).count();
    if ddl.is_empty() && touched == 0 {
        return Effects::default();
    }
    let mut buf = BytesMut::with_capacity(256);
    put_len(&mut buf, ddl.len());
    for sql in ddl {
        put_text(&mut buf, sql);
    }
    put_len(&mut buf, touched);
    for (t, kinds) in tables.iter().zip(&kinds).filter(|(_, k)| live(k)) {
        put_text(&mut buf, t.table);
        let put_key = |buf: &mut BytesMut, row: &[SqlValue]| {
            put_len(buf, t.primary_key.len());
            for &i in t.primary_key {
                put_value(buf, &row[i]);
            }
        };
        for section in [Kind::Delete, Kind::Rekey, Kind::Update, Kind::Insert] {
            let rows = t.changes.iter().zip(kinds).filter(|(_, &k)| k == section);
            put_len(&mut buf, rows.clone().count());
            for ((before, now), _) in rows {
                match (section, before, now) {
                    (Kind::Delete, Some(b), _) => put_key(&mut buf, b),
                    (Kind::Rekey, Some(b), Some(n)) => {
                        put_key(&mut buf, b);
                        put_row(&mut buf, n);
                    }
                    (Kind::Update, Some(b), Some(n)) => {
                        put_key(&mut buf, b);
                        let changed = || {
                            b.iter()
                                .zip(*n)
                                .enumerate()
                                .filter(|(_, (x, y))| !identical(x, y))
                        };
                        put_len(&mut buf, changed().count());
                        for (c, (_, v)) in changed() {
                            put_len(&mut buf, c);
                            put_value(&mut buf, v);
                        }
                    }
                    (_, _, Some(n)) => put_row(&mut buf, n),
                    _ => unreachable!("classified above"),
                }
            }
        }
    }
    Effects(buf.freeze())
}

/// Whether two values are the same value of the same type — stricter than
/// `==`, which equates `1` and `1.0`.
pub(crate) fn identical(a: &SqlValue, b: &SqlValue) -> bool {
    match (a, b) {
        (SqlValue::Null, SqlValue::Null) => true,
        (SqlValue::Int(x), SqlValue::Int(y)) => x == y,
        (SqlValue::Real(x), SqlValue::Real(y)) => x.to_bits() == y.to_bits(),
        (SqlValue::Text(x), SqlValue::Text(y)) => x == y,
        _ => false,
    }
}

/// Appends `values` in the wire form's row encoding — for records that
/// carry values beside a set of effects.
pub fn put_values(buf: &mut BytesMut, values: &[SqlValue]) {
    put_row(buf, values);
}

/// Reads one row encoding ([`put_values`]) off the front of `buf`.
///
/// # Errors
///
/// [`SqlError::Parse`] on truncated or malformed bytes.
pub fn take_values(buf: &mut &[u8]) -> Result<Row> {
    let mut r = Reader(buf);
    let row = r.row()?;
    *buf = r.0;
    Ok(row)
}

fn malformed() -> SqlError {
    SqlError::Parse("malformed effects".into())
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

fn put_len(buf: &mut BytesMut, n: usize) {
    put_varint(buf, n as u64);
}

fn put_text(buf: &mut BytesMut, s: &str) {
    put_len(buf, s.len());
    buf.put_slice(s.as_bytes());
}

/// Value tags from this one on are the integers `0..=251` themselves.
const SMALL_INT: u8 = 4;

fn put_value(buf: &mut BytesMut, v: &SqlValue) {
    match v {
        SqlValue::Null => buf.put_u8(0),
        SqlValue::Int(i) if (0..i64::from(u8::MAX - SMALL_INT)).contains(i) => {
            buf.put_u8(SMALL_INT + *i as u8);
        }
        SqlValue::Int(i) => {
            buf.put_u8(1);
            put_varint(buf, ((i << 1) ^ (i >> 63)) as u64);
        }
        SqlValue::Real(r) => {
            buf.put_u8(2);
            buf.put_f64_le(*r);
        }
        SqlValue::Text(s) => {
            buf.put_u8(3);
            put_text(buf, s);
        }
    }
}

fn put_row(buf: &mut BytesMut, row: &[SqlValue]) {
    put_len(buf, row.len());
    for v in row {
        put_value(buf, v);
    }
}

/// A cursor over the wire form.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn byte(&mut self) -> Result<u8> {
        let (&b, rest) = self.0.split_first().ok_or_else(malformed)?;
        self.0 = rest;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(malformed())
    }

    /// A count or column position, bounded by the bytes left (every item
    /// takes at least one).
    fn len(&mut self) -> Result<usize> {
        let n = self.varint()?;
        if n > self.0.len() as u64 {
            return Err(malformed());
        }
        Ok(n as usize)
    }

    fn column(&mut self) -> Result<usize> {
        usize::try_from(self.varint()?).map_err(|_| malformed())
    }

    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if n > self.0.len() {
            return Err(malformed());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn text(&mut self) -> Result<String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| malformed())
    }

    fn value(&mut self) -> Result<SqlValue> {
        Ok(match self.byte()? {
            0 => SqlValue::Null,
            1 => {
                let z = self.varint()?;
                SqlValue::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            2 => {
                let raw: [u8; 8] = self.take(8)?.try_into().expect("eight bytes");
                SqlValue::Real(f64::from_le_bytes(raw))
            }
            3 => SqlValue::Text(self.text()?),
            small => SqlValue::Int(i64::from(small - SMALL_INT)),
        })
    }

    fn row(&mut self) -> Result<Row> {
        (0..self.len()?).map(|_| self.value()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EffectSet {
        EffectSet {
            ddl: vec!["CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a))".into()],
            tables: vec![
                TableEffects {
                    table: "t".into(),
                    deletes: vec![vec![SqlValue::Int(-7)]],
                    rekeys: vec![(
                        vec![SqlValue::Int(1)],
                        vec![SqlValue::Int(2), SqlValue::Null],
                    )],
                    updates: vec![(
                        vec![SqlValue::Int(i64::MIN)],
                        vec![(1, SqlValue::Text("é".into()))],
                    )],
                    inserts: vec![vec![SqlValue::Int(i64::MAX), SqlValue::Real(-0.5)]],
                },
                TableEffects {
                    table: "empty".into(),
                    ..TableEffects::default()
                },
            ],
        }
    }

    #[test]
    fn the_wire_form_round_trips_and_drops_empty_tables() {
        let mut set = sample();
        let small = [0, 1, 250, 251, -1].map(SqlValue::Int).to_vec();
        set.tables[0].inserts.push(small);
        let back = set.encode().decode().unwrap();
        assert_eq!(back.ddl, set.ddl);
        assert_eq!(back.tables, set.tables[..1]);
        assert!(EffectSet::default().encode().is_empty());
        assert_eq!(Effects::default().decode().unwrap(), EffectSet::default());
    }

    #[test]
    fn every_truncation_and_trailing_garbage_is_rejected() {
        let bytes = sample().encode().bytes().clone();
        for cut in 1..bytes.len() {
            assert!(
                Effects::from_bytes(bytes.slice(..cut)).decode().is_err(),
                "{cut}"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(Effects::from_bytes(long.into()).decode().is_err());
    }
}
