//! Scalar expressions and predicates.

use crate::value::SqlValue;
use crate::{Result, SqlError};

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison (NULL compares false against everything,
    /// as in SQL's three-valued logic collapsed to boolean).
    pub fn apply(self, a: &SqlValue, b: &SqlValue) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The same comparison with its operands swapped (`a < b` is `b > a`).
    pub(crate) fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A column reference, resolved to an index at bind time.
    Col(usize),
    /// A literal.
    Lit(SqlValue),
    /// The `n`th parameter of a statement shape, bound per execution.
    Param(usize),
    /// Arithmetic on two sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Evaluates the expression over a row, with `params` bound to the
    /// statement's parameter slots.
    pub fn eval(&self, row: &[SqlValue], params: &[SqlValue]) -> Result<SqlValue> {
        Ok(match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| SqlError::Unknown(format!("column index {i}")))?,
            Expr::Lit(v) => v.clone(),
            Expr::Param(n) => params
                .get(*n)
                .cloned()
                .ok_or_else(|| SqlError::Parse(format!("parameter {n} unbound")))?,
            Expr::Arith(op, a, b) => {
                let a = a.eval(row, params)?;
                let b = b.eval(row, params)?;
                if a.is_null() || b.is_null() {
                    return Ok(SqlValue::Null);
                }
                match (&a, &b) {
                    (SqlValue::Int(x), SqlValue::Int(y)) => match op {
                        ArithOp::Add => SqlValue::Int(x + y),
                        ArithOp::Sub => SqlValue::Int(x - y),
                        ArithOp::Mul => SqlValue::Int(x * y),
                        ArithOp::Div => {
                            if *y == 0 {
                                SqlValue::Null
                            } else {
                                SqlValue::Int(x / y)
                            }
                        }
                    },
                    _ => {
                        let x = a
                            .as_real()
                            .ok_or_else(|| SqlError::Constraint(format!("arithmetic on {a}")))?;
                        let y = b
                            .as_real()
                            .ok_or_else(|| SqlError::Constraint(format!("arithmetic on {b}")))?;
                        match op {
                            ArithOp::Add => SqlValue::Real(x + y),
                            ArithOp::Sub => SqlValue::Real(x - y),
                            ArithOp::Mul => SqlValue::Real(x * y),
                            ArithOp::Div => SqlValue::Real(x / y),
                        }
                    }
                }
            }
            Expr::Cmp(op, a, b) => {
                SqlValue::Int(op.apply(&a.eval(row, params)?, &b.eval(row, params)?) as i64)
            }
            Expr::And(a, b) => SqlValue::Int(
                (truthy(&a.eval(row, params)?) && truthy(&b.eval(row, params)?)) as i64,
            ),
            Expr::Or(a, b) => SqlValue::Int(
                (truthy(&a.eval(row, params)?) || truthy(&b.eval(row, params)?)) as i64,
            ),
            Expr::Not(a) => SqlValue::Int(!truthy(&a.eval(row, params)?) as i64),
        })
    }

    /// Evaluates as a predicate.
    pub fn matches(&self, row: &[SqlValue], params: &[SqlValue]) -> Result<bool> {
        Ok(truthy(&self.eval(row, params)?))
    }

    /// The conjuncts of this predicate's top-level `AND` chain that an
    /// index can serve: a column compared with a constant (an expression
    /// that reads no column), turned column-first, so `5 < c` reads
    /// `(c, >, 5)`. `<>` is left out — no index range serves it.
    pub(crate) fn key_facts(&self) -> Vec<(usize, CmpOp, &Expr)> {
        let mut out = Vec::new();
        collect_key_facts(self, &mut out);
        out
    }

    /// How many conjuncts the predicate's top-level `AND` chain has.
    pub(crate) fn conjuncts(&self) -> usize {
        match self {
            Expr::And(a, b) => a.conjuncts() + b.conjuncts(),
            _ => 1,
        }
    }

    /// Whether the expression reads no column: its value is fixed once
    /// the statement's parameters are bound.
    fn is_constant(&self) -> bool {
        match self {
            Expr::Col(_) => false,
            Expr::Lit(_) | Expr::Param(_) => true,
            Expr::Not(a) => a.is_constant(),
            Expr::Arith(_, a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.is_constant() && b.is_constant()
            }
        }
    }
}

fn truthy(v: &SqlValue) -> bool {
    match v {
        SqlValue::Null => false,
        SqlValue::Int(i) => *i != 0,
        SqlValue::Real(r) => *r != 0.0,
        SqlValue::Text(s) => !s.is_empty(),
    }
}

fn collect_key_facts<'e>(e: &'e Expr, out: &mut Vec<(usize, CmpOp, &'e Expr)>) {
    match e {
        Expr::And(a, b) => {
            collect_key_facts(a, out);
            collect_key_facts(b, out);
        }
        Expr::Cmp(op, a, b) if *op != CmpOp::Ne => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), k) if k.is_constant() => out.push((*c, *op, k)),
            (k, Expr::Col(c)) if k.is_constant() => out.push((*c, op.flipped(), k)),
            _ => {}
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Box<Expr> {
        Box::new(Expr::Lit(SqlValue::Int(i)))
    }
    fn col(i: usize) -> Box<Expr> {
        Box::new(Expr::Col(i))
    }

    #[test]
    fn arithmetic_and_comparison() {
        let row = vec![SqlValue::Int(10), SqlValue::Real(2.5)];
        let e = Expr::Arith(ArithOp::Add, col(0), lit(5));
        assert_eq!(e.eval(&row, &[]).unwrap(), SqlValue::Int(15));
        let e = Expr::Arith(ArithOp::Mul, col(0), col(1));
        assert_eq!(e.eval(&row, &[]).unwrap(), SqlValue::Real(25.0));
        let e = Expr::Cmp(CmpOp::Gt, col(0), lit(3));
        assert!(e.matches(&row, &[]).unwrap());
        // A parameter slot reads the bound value; an unbound one fails.
        let e = Expr::Cmp(CmpOp::Gt, col(0), Box::new(Expr::Param(0)));
        assert!(!e.matches(&row, &[SqlValue::Int(10)]).unwrap());
        assert!(e.matches(&row, &[SqlValue::Int(9)]).unwrap());
        assert!(e.matches(&row, &[]).is_err());
    }

    #[test]
    fn null_propagates_and_compares_false() {
        let row = vec![SqlValue::Null];
        let e = Expr::Arith(ArithOp::Add, col(0), lit(1));
        assert_eq!(e.eval(&row, &[]).unwrap(), SqlValue::Null);
        let e = Expr::Cmp(CmpOp::Eq, col(0), col(0));
        assert!(!e.matches(&row, &[]).unwrap());
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::Arith(ArithOp::Div, lit(5), lit(0));
        assert_eq!(e.eval(&[], &[]).unwrap(), SqlValue::Null);
    }

    #[test]
    fn boolean_connectives() {
        let t = Expr::Cmp(CmpOp::Eq, lit(1), lit(1));
        let f = Expr::Cmp(CmpOp::Eq, lit(1), lit(2));
        assert!(Expr::And(Box::new(t.clone()), Box::new(t.clone()))
            .matches(&[], &[])
            .unwrap());
        assert!(!Expr::And(Box::new(t.clone()), Box::new(f.clone()))
            .matches(&[], &[])
            .unwrap());
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone()))
            .matches(&[], &[])
            .unwrap());
        assert!(Expr::Not(Box::new(f)).matches(&[], &[]).unwrap());
        let _ = t;
    }

    #[test]
    fn key_facts_are_column_first_constant_comparisons() {
        let and = |a, b| Box::new(Expr::And(a, b));
        let cmp = |op, a, b| Box::new(Expr::Cmp(op, a, b));
        // a = 1 AND 2 < b AND c <= ? AND d <> 4 AND e > f AND NOT g = 5
        let e = and(
            and(
                and(
                    cmp(CmpOp::Eq, col(0), lit(1)),
                    cmp(CmpOp::Lt, lit(2), col(1)),
                ),
                and(
                    cmp(CmpOp::Le, col(2), Box::new(Expr::Param(0))),
                    cmp(CmpOp::Ne, col(3), lit(4)),
                ),
            ),
            and(
                cmp(CmpOp::Gt, col(4), col(5)),
                Box::new(Expr::Not(cmp(CmpOp::Eq, col(6), lit(5)))),
            ),
        );
        let facts: Vec<(usize, CmpOp)> = e.key_facts().iter().map(|f| (f.0, f.1)).collect();
        assert_eq!(facts, vec![(0, CmpOp::Eq), (1, CmpOp::Gt), (2, CmpOp::Le)]);
        // A negative literal parses as `0 - n`: still a constant.
        let neg = Expr::Arith(ArithOp::Sub, lit(0), Box::new(Expr::Param(1)));
        let e = Expr::Cmp(CmpOp::Ge, col(2), Box::new(neg.clone()));
        assert_eq!(e.key_facts(), vec![(2, CmpOp::Ge, &neg)]);
        // A disjunction pins nothing.
        let e = Expr::Or(
            cmp(CmpOp::Eq, col(0), lit(1)),
            cmp(CmpOp::Eq, col(0), lit(2)),
        );
        assert!(e.key_facts().is_empty());
    }
}
