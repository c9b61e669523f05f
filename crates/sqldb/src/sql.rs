//! The SQL-subset lexer and parser.
//!
//! Covers the statements the ShadowDB workloads (bank micro-benchmark and
//! TPC-C) and the recovery machinery need: `CREATE TABLE` with (composite)
//! primary keys, `CREATE INDEX`, multi-row `INSERT`, `SELECT` with `WHERE`
//! conjunctions/disjunctions, `ORDER BY`, `LIMIT`, `FOR UPDATE`, and
//! aggregates (`COUNT(*)`, `COUNT(DISTINCT c)`, `SUM`, `MIN`, `MAX`,
//! `AVG`), plus `UPDATE` and `DELETE`.
//!
//! [`shape`] splits a statement into its *shape* — the text with every
//! numeric and string literal replaced by `?` — and the literals, in
//! order; [`parse_shape`] parses that text into a [`Statement`] whose
//! literal slots are [`ExprAst::Param`]s. The engine's plan cache is keyed
//! by the shape, so a stored procedure that formats its arguments into
//! its SQL parses and plans each statement once.

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::schema::{Column, DataType, TableSchema};
use crate::value::SqlValue;
use crate::{Result, SqlError};

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    /// A numeric or string literal.
    Lit(SqlValue),
    Sym(&'static str),
    /// The `n`th `?` of a statement shape.
    Param(usize),
}

/// Lexes `input`; a `?` is a parameter slot only in a statement shape.
fn lex(input: &str, params: bool) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let b = input.as_bytes();
    let mut i = 0;
    let mut slots = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '?' if params => {
                out.push(Tok::Param(slots));
                slots += 1;
                i += 1;
            }
            '(' | ')' | ',' | '+' | '-' | '*' | '/' | '.' | ';' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '.' => ".",
                    _ => ";",
                }));
                i += 1;
            }
            '=' => {
                out.push(Tok::Sym("="));
                i += 1;
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Sym("<="));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Sym("<>"));
                    i += 2;
                } else {
                    out.push(Tok::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Sym(">="));
                    i += 2;
                } else {
                    out.push(Tok::Sym(">"));
                    i += 1;
                }
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Sym("<>"));
                    i += 2;
                } else {
                    return Err(SqlError::Parse("stray '!'".into()));
                }
            }
            '\'' | '0'..='9' => {
                let (lit, end) = literal(input, i)?;
                out.push(Tok::Lit(lit));
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(input[start..i].to_lowercase()));
            }
            other => return Err(SqlError::Parse(format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

/// Reads the numeric or string literal starting at byte `i` of `input`:
/// its value and the index just past it.
fn literal(input: &str, mut i: usize) -> Result<(SqlValue, usize)> {
    let b = input.as_bytes();
    if b[i] == b'\'' {
        let mut s = String::new();
        i += 1;
        loop {
            match b.get(i) {
                Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                    s.push('\'');
                    i += 2;
                }
                Some(b'\'') => return Ok((SqlValue::Text(s), i + 1)),
                Some(&ch) => {
                    s.push(ch as char);
                    i += 1;
                }
                None => return Err(SqlError::Parse("unterminated string".into())),
            }
        }
    }
    let start = i;
    let digits = |mut i: usize| {
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    i = digits(i);
    let real = b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit);
    if real {
        i = digits(i + 1);
    }
    let text = &input[start..i];
    let bad = || SqlError::Parse(format!("bad number {text}"));
    let v = if real {
        SqlValue::Real(text.parse().map_err(|_| bad())?)
    } else {
        SqlValue::Int(text.parse().map_err(|_| bad())?)
    };
    Ok((v, i))
}

/// Splits `sql` into its shape — the text with each numeric and string
/// literal replaced by `?` — and those literals in order, in one pass over
/// the bytes. A `LIMIT` count stays in the text: it is part of the
/// statement's plan, not a value it reads. Returns `None` for text no
/// shape can stand for (a malformed literal, or a `?` of its own), which
/// [`parse`] then rejects with its usual error.
pub fn shape(sql: &str) -> Option<(String, Vec<SqlValue>)> {
    let b = sql.as_bytes();
    let mut text = String::with_capacity(sql.len());
    let mut params = Vec::new();
    let (mut i, mut copied) = (0, 0);
    let mut after_limit = false;
    while i < b.len() {
        match b[i] {
            b'?' => return None,
            b'\'' | b'0'..=b'9' if !(after_limit && b[i].is_ascii_digit()) => {
                let (lit, end) = literal(sql, i).ok()?;
                text.push_str(&sql[copied..i]);
                text.push('?');
                params.push(lit);
                (i, copied) = (end, end);
                after_limit = false;
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let start = i;
                while b
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    i += 1;
                }
                after_limit = sql[start..i].eq_ignore_ascii_case("limit");
            }
            c => {
                after_limit &= c.is_ascii_whitespace();
                i += 1;
            }
        }
    }
    text.push_str(&sql[copied..]);
    Some((text, params))
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// An unresolved expression (column names, not indices).
#[derive(Clone, Debug, PartialEq)]
pub enum ExprAst {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(SqlValue),
    /// The `n`th literal of a statement shape, bound at execution.
    Param(usize),
    /// Arithmetic.
    Arith(ArithOp, Box<ExprAst>, Box<ExprAst>),
    /// Comparison.
    Cmp(CmpOp, Box<ExprAst>, Box<ExprAst>),
    /// Conjunction.
    And(Box<ExprAst>, Box<ExprAst>),
    /// Disjunction.
    Or(Box<ExprAst>, Box<ExprAst>),
    /// Negation.
    Not(Box<ExprAst>),
}

impl ExprAst {
    /// Resolves column names against a schema.
    pub fn bind(&self, schema: &TableSchema) -> Result<Expr> {
        Ok(match self {
            ExprAst::Col(name) => Expr::Col(schema.col(name)?),
            ExprAst::Lit(v) => Expr::Lit(v.clone()),
            ExprAst::Param(n) => Expr::Param(*n),
            ExprAst::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            ExprAst::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            ExprAst::And(a, b) => Expr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            ExprAst::Or(a, b) => Expr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            ExprAst::Not(a) => Expr::Not(Box::new(a.bind(schema)?)),
        })
    }

    /// Evaluates a schema-free expression (literals, parameters and
    /// arithmetic only).
    pub fn eval_const(&self, params: &[SqlValue]) -> Result<SqlValue> {
        self.bind(&TableSchema::new(
            "const",
            vec![Column {
                name: "dummy".into(),
                dtype: DataType::Int,
            }],
            vec![0],
        )?)
        .and_then(|e| e.eval(&[], params))
    }
}

/// An aggregate function in a projection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(col)` (non-NULL count)
    Count(String),
    /// `COUNT(DISTINCT col)`
    CountDistinct(String),
    /// `SUM(col)`
    Sum(String),
    /// `MIN(col)`
    Min(String),
    /// `MAX(col)`
    Max(String),
    /// `AVG(col)`
    Avg(String),
}

/// What a `SELECT` projects.
#[derive(Clone, Debug, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// A list of columns.
    Cols(Vec<String>),
    /// A list of aggregates.
    Aggregates(Vec<Aggregate>),
}

/// A parsed `SELECT`.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// Source table.
    pub table: String,
    /// Projection.
    pub projection: Projection,
    /// Optional filter.
    pub filter: Option<ExprAst>,
    /// Optional `(column, descending)` ordering.
    pub order_by: Option<(String, bool)>,
    /// Optional row limit.
    pub limit: Option<usize>,
    /// Whether `FOR UPDATE` was given (takes exclusive locks).
    pub for_update: bool,
}

/// A parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(TableSchema),
    /// `CREATE INDEX name ON table (cols)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed columns, in order.
        columns: Vec<String>,
    },
    /// `INSERT INTO table VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Rows of constant expressions.
        rows: Vec<Vec<ExprAst>>,
    },
    /// `SELECT`.
    Select(SelectStmt),
    /// `UPDATE table SET col = expr, … [WHERE …]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, ExprAst)>,
        /// Optional filter.
        filter: Option<ExprAst>,
    },
    /// `DELETE FROM table [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        filter: Option<ExprAst>,
    },
    /// `DROP TABLE table`.
    DropTable {
        /// Dropped table.
        table: String,
    },
}

/// Parses one SQL statement.
///
/// # Errors
///
/// Returns [`SqlError::Parse`] on any lexical or grammatical problem.
pub fn parse(input: &str) -> Result<Statement> {
    parse_tokens(lex(input, false)?)
}

/// Parses a statement shape made by [`shape`]: its `?`s become
/// [`ExprAst::Param`]s, numbered in order.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_shape(shape: &str) -> Result<Statement> {
    parse_tokens(lex(shape, true)?)
}

fn parse_tokens(toks: Vec<Tok>) -> Result<Statement> {
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";").ok();
    if p.pos != p.toks.len() {
        return Err(SqlError::Parse(format!(
            "trailing input at token {}",
            p.pos
        )));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Tok::Ident(w) if w == kw => Ok(()),
            other => Err(SqlError::Parse(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn try_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> Result<()> {
        match self.next()? {
            Tok::Sym(t) if t == s => Ok(()),
            other => Err(SqlError::Parse(format!("expected {s:?}, got {other:?}"))),
        }
    }

    fn try_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(w) => Ok(w),
            other => Err(SqlError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.next()? {
            Tok::Ident(w) if w == "create" => self.create(),
            Tok::Ident(w) if w == "insert" => self.insert(),
            Tok::Ident(w) if w == "select" => self.select().map(Statement::Select),
            Tok::Ident(w) if w == "update" => self.update(),
            Tok::Ident(w) if w == "delete" => self.delete(),
            Tok::Ident(w) if w == "drop" => {
                self.eat_kw("table")?;
                Ok(Statement::DropTable {
                    table: self.ident()?,
                })
            }
            other => Err(SqlError::Parse(format!(
                "unknown statement start {other:?}"
            ))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        if self.try_kw("table") {
            return self.create_table();
        }
        self.eat_kw("index")?;
        let name = self.ident()?;
        self.eat_kw("on")?;
        let table = self.ident()?;
        self.eat_sym("(")?;
        let mut columns = vec![self.ident()?];
        while self.try_sym(",") {
            columns.push(self.ident()?);
        }
        self.eat_sym(")")?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.eat_sym("(")?;
        let mut columns = Vec::new();
        let mut pk: Vec<String> = Vec::new();
        loop {
            if self.try_kw("primary") {
                self.eat_kw("key")?;
                self.eat_sym("(")?;
                pk.push(self.ident()?);
                while self.try_sym(",") {
                    pk.push(self.ident()?);
                }
                self.eat_sym(")")?;
            } else {
                let col = self.ident()?;
                let dtype = self.data_type()?;
                if self.try_kw("primary") {
                    self.eat_kw("key")?;
                    pk.push(col.clone());
                }
                if self.try_kw("not") {
                    self.eat_kw("null")?;
                }
                columns.push(Column { name: col, dtype });
            }
            if !self.try_sym(",") {
                break;
            }
        }
        self.eat_sym(")")?;
        let pk_idx: Result<Vec<usize>> = pk
            .iter()
            .map(|n| {
                columns
                    .iter()
                    .position(|c| c.name == *n)
                    .ok_or_else(|| SqlError::Parse(format!("primary key column {n} undefined")))
            })
            .collect();
        Ok(Statement::CreateTable(TableSchema::new(
            &name, columns, pk_idx?,
        )?))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let ty = self.ident()?;
        let dtype = match ty.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "tinyint" => DataType::Int,
            "real" | "double" | "float" | "decimal" | "numeric" => DataType::Real,
            "text" | "varchar" | "char" | "clob" => DataType::Text,
            other => return Err(SqlError::Parse(format!("unknown type {other}"))),
        };
        // Optional length/precision arguments: VARCHAR(16), DECIMAL(12, 2).
        if self.try_sym("(") {
            loop {
                match self.next()? {
                    Tok::Lit(SqlValue::Int(_)) => {}
                    other => return Err(SqlError::Parse(format!("bad type argument {other:?}"))),
                }
                if !self.try_sym(",") {
                    break;
                }
            }
            self.eat_sym(")")?;
        }
        Ok(dtype)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.eat_kw("into")?;
        let table = self.ident()?;
        self.eat_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.eat_sym("(")?;
            let mut row = vec![self.expr()?];
            while self.try_sym(",") {
                row.push(self.expr()?);
            }
            self.eat_sym(")")?;
            rows.push(row);
            if !self.try_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let projection = self.projection()?;
        self.eat_kw("from")?;
        let table = self.ident()?;
        let filter = if self.try_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.try_kw("order") {
            self.eat_kw("by")?;
            let col = self.ident()?;
            let desc = if self.try_kw("desc") {
                true
            } else {
                self.try_kw("asc");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.try_kw("limit") {
            match self.next()? {
                Tok::Lit(SqlValue::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(SqlError::Parse(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        let for_update = if self.try_kw("for") {
            self.eat_kw("update")?;
            true
        } else {
            false
        };
        Ok(SelectStmt {
            table,
            projection,
            filter,
            order_by,
            limit,
            for_update,
        })
    }

    fn projection(&mut self) -> Result<Projection> {
        if self.try_sym("*") {
            return Ok(Projection::Star);
        }
        // Either a list of aggregates or a list of plain columns.
        const AGGS: [&str; 5] = ["count", "sum", "min", "max", "avg"];
        let is_agg = matches!(self.peek(), Some(Tok::Ident(w)) if AGGS.contains(&w.as_str()))
            && matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("(")));
        if is_agg {
            let mut aggs = vec![self.aggregate()?];
            while self.try_sym(",") {
                aggs.push(self.aggregate()?);
            }
            Ok(Projection::Aggregates(aggs))
        } else {
            let mut cols = vec![self.ident()?];
            while self.try_sym(",") {
                cols.push(self.ident()?);
            }
            Ok(Projection::Cols(cols))
        }
    }

    fn aggregate(&mut self) -> Result<Aggregate> {
        let f = self.ident()?;
        self.eat_sym("(")?;
        let agg = match f.as_str() {
            "count" => {
                if self.try_sym("*") {
                    Aggregate::CountStar
                } else if self.try_kw("distinct") {
                    Aggregate::CountDistinct(self.ident()?)
                } else {
                    Aggregate::Count(self.ident()?)
                }
            }
            "sum" => Aggregate::Sum(self.ident()?),
            "min" => Aggregate::Min(self.ident()?),
            "max" => Aggregate::Max(self.ident()?),
            "avg" => Aggregate::Avg(self.ident()?),
            other => return Err(SqlError::Parse(format!("unknown aggregate {other}"))),
        };
        self.eat_sym(")")?;
        Ok(agg)
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.eat_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.eat_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.try_sym(",") {
                break;
            }
        }
        let filter = if self.try_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.eat_kw("from")?;
        let table = self.ident()?;
        let filter = if self.try_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // Expression grammar: or > and > not > cmp > add > mul > primary.
    fn expr(&mut self) -> Result<ExprAst> {
        let mut e = self.and_expr()?;
        while self.try_kw("or") {
            e = ExprAst::Or(Box::new(e), Box::new(self.and_expr()?));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<ExprAst> {
        let mut e = self.not_expr()?;
        while self.try_kw("and") {
            e = ExprAst::And(Box::new(e), Box::new(self.not_expr()?));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<ExprAst> {
        if self.try_kw("not") {
            Ok(ExprAst::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<ExprAst> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Sym("=")) => Some(CmpOp::Eq),
            Some(Tok::Sym("<>")) => Some(CmpOp::Ne),
            Some(Tok::Sym("<")) => Some(CmpOp::Lt),
            Some(Tok::Sym("<=")) => Some(CmpOp::Le),
            Some(Tok::Sym(">")) => Some(CmpOp::Gt),
            Some(Tok::Sym(">=")) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                Ok(ExprAst::Cmp(op, Box::new(lhs), Box::new(self.add_expr()?)))
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<ExprAst> {
        let mut e = self.mul_expr()?;
        loop {
            if self.try_sym("+") {
                e = ExprAst::Arith(ArithOp::Add, Box::new(e), Box::new(self.mul_expr()?));
            } else if self.try_sym("-") {
                e = ExprAst::Arith(ArithOp::Sub, Box::new(e), Box::new(self.mul_expr()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<ExprAst> {
        let mut e = self.primary()?;
        loop {
            if self.try_sym("*") {
                e = ExprAst::Arith(ArithOp::Mul, Box::new(e), Box::new(self.primary()?));
            } else if self.try_sym("/") {
                e = ExprAst::Arith(ArithOp::Div, Box::new(e), Box::new(self.primary()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<ExprAst> {
        match self.next()? {
            Tok::Lit(v) => Ok(ExprAst::Lit(v)),
            Tok::Param(n) => Ok(ExprAst::Param(n)),
            Tok::Ident(w) if w == "null" => Ok(ExprAst::Lit(SqlValue::Null)),
            Tok::Ident(w) => Ok(ExprAst::Col(w)),
            Tok::Sym("(") => {
                let e = self.expr()?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Tok::Sym("-") => {
                // Unary minus on a numeric literal or expression.
                let e = self.primary()?;
                Ok(ExprAst::Arith(
                    ArithOp::Sub,
                    Box::new(ExprAst::Lit(SqlValue::Int(0))),
                    Box::new(e),
                ))
            }
            other => Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_inline_pk() {
        let s = parse("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16), bal DECIMAL(12,2))")
            .unwrap();
        match s {
            Statement::CreateTable(schema) => {
                assert_eq!(schema.name, "t");
                assert_eq!(schema.primary_key, vec![0]);
                assert_eq!(schema.columns[1].dtype, DataType::Text);
                assert_eq!(schema.columns[2].dtype, DataType::Real);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_composite_pk() {
        let s = parse("CREATE TABLE o (w INT, d INT, id INT, PRIMARY KEY (w, d, id))").unwrap();
        match s {
            Statement::CreateTable(schema) => assert_eq!(schema.primary_key, vec![0, 1, 2]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t VALUES (1, 'a''b', 2.5), (2, 'c', -3)").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][1], ExprAst::Lit(SqlValue::Text("a'b".into())));
                assert_eq!(rows[1][2].eval_const(&[]).unwrap(), SqlValue::Int(-3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_with_everything() {
        let s = parse(
            "SELECT a, b FROM t WHERE a = 1 AND b > 2 OR NOT c <> 3 \
             ORDER BY b DESC LIMIT 10 FOR UPDATE",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.table, "t");
                assert_eq!(
                    sel.projection,
                    Projection::Cols(vec!["a".into(), "b".into()])
                );
                assert!(sel.filter.is_some());
                assert_eq!(sel.order_by, Some(("b".into(), true)));
                assert_eq!(sel.limit, Some(10));
                assert!(sel.for_update);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_aggregates() {
        let s = parse("SELECT COUNT(DISTINCT s_i_id), SUM(amount), MAX(o_id) FROM t").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(
                    sel.projection,
                    Projection::Aggregates(vec![
                        Aggregate::CountDistinct("s_i_id".into()),
                        Aggregate::Sum("amount".into()),
                        Aggregate::Max("o_id".into()),
                    ])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE t SET bal = bal + 10, n = 'x' WHERE id = 3").unwrap();
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
        let s = parse("DELETE FROM t WHERE id >= 5").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn drop_table() {
        let s = parse("DROP TABLE accounts").unwrap();
        assert_eq!(
            s,
            Statement::DropTable {
                table: "accounts".into()
            }
        );
        assert!(matches!(parse("DROP accounts"), Err(SqlError::Parse(_))));
    }

    #[test]
    fn create_index() {
        let s = parse("CREATE INDEX idx_cust ON customer (c_w_id, c_d_id, c_last)").unwrap();
        match s {
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                assert_eq!(name, "idx_cust");
                assert_eq!(table, "customer");
                assert_eq!(columns.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(parse("SELEC a FROM t"), Err(SqlError::Parse(_))));
        assert!(matches!(parse("SELECT FROM t"), Err(SqlError::Parse(_))));
        assert!(matches!(
            parse("INSERT INTO t VALUES (1"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT a FROM t WHERE a = 'unterminated"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT a FROM t extra junk"),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn shape_replaces_literals_in_order() {
        let (text, params) = shape(
            "SELECT o_id FROM orders WHERE o_w_id = 1 AND o_d_id=10 AND c_last = 'O''Neil' \
             AND x > -2.5 ORDER BY o_id DESC LIMIT 3",
        )
        .unwrap();
        assert_eq!(
            text,
            "SELECT o_id FROM orders WHERE o_w_id = ? AND o_d_id=? AND c_last = ? \
             AND x > -? ORDER BY o_id DESC LIMIT 3"
        );
        assert_eq!(
            params,
            vec![
                SqlValue::Int(1),
                SqlValue::Int(10),
                SqlValue::Text("O'Neil".into()),
                SqlValue::Real(2.5),
            ]
        );
        // Two texts differing only in literals share a shape; NULL is part
        // of it, as is the LIMIT count.
        let a = shape("INSERT INTO t VALUES (1, 'a', NULL)").unwrap();
        let b = shape("INSERT INTO t VALUES (22, 'bb', NULL)").unwrap();
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(
            shape("SELECT a FROM t LIMIT 1"),
            shape("SELECT a FROM t LIMIT 2")
        );
    }

    #[test]
    fn shape_parses_into_parameter_slots() {
        let (text, params) = shape("UPDATE t SET v = v + 7 WHERE id = 3").unwrap();
        let Statement::Update { sets, filter, .. } = parse_shape(&text).unwrap() else {
            panic!()
        };
        assert_eq!(
            sets[0].1,
            ExprAst::Arith(
                ArithOp::Add,
                Box::new(ExprAst::Col("v".into())),
                Box::new(ExprAst::Param(0))
            )
        );
        let Some(ExprAst::Cmp(CmpOp::Eq, _, rhs)) = filter else {
            panic!()
        };
        assert_eq!(*rhs, ExprAst::Param(1));
        assert_eq!(rhs.eval_const(&params).unwrap(), SqlValue::Int(3));
    }

    #[test]
    fn text_a_shape_cannot_stand_for_is_left_to_parse() {
        // A `?` of its own, or a malformed literal: no shape, and `parse`
        // reports the error as it always has.
        for bad in [
            "SELECT a FROM t WHERE a = ?",
            "SELECT a FROM t WHERE a = 'open",
            "SELECT a FROM t WHERE a = 99999999999999999999",
        ] {
            assert_eq!(shape(bad), None, "{bad}");
            assert!(matches!(parse(bad), Err(SqlError::Parse(_))), "{bad}");
        }
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 = 7 parses as (a + (b*2)) = 7.
        let s = parse("SELECT a FROM t WHERE a + b * 2 = 7").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let ExprAst::Cmp(CmpOp::Eq, lhs, _) = sel.filter.unwrap() else {
            panic!()
        };
        assert!(matches!(*lhs, ExprAst::Arith(ArithOp::Add, _, _)));
    }
}
