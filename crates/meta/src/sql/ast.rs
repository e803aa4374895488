//! Abstract syntax tree for the SQL subset.

use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE [IF NOT EXISTS] name (col type [PRIMARY KEY] [NOT NULL], ...)`
    CreateTable {
        name: String,
        if_not_exists: bool,
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE [IF EXISTS] name`
    DropTable { name: String, if_exists: bool },
    /// `CREATE INDEX [IF NOT EXISTS] name ON table (column)` — a non-unique
    /// secondary index. Derived state: never logged, re-declared after open.
    CreateIndex {
        name: String,
        if_not_exists: bool,
        table: String,
        column: String,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)`
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    /// `SELECT items FROM table [WHERE e] [ORDER BY col [DESC], ...] [LIMIT n]`
    Select(Select),
    /// `UPDATE table SET col = e, ... [WHERE e]`
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE e]`
    Delete { table: String, filter: Option<Expr> },
    /// `EXPLAIN stmt` — one row naming the access path `stmt` would take.
    Explain(Box<Statement>),
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub primary_key: bool,
    pub not_null: bool,
}

/// Body of a SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub items: Vec<SelectItem>,
    pub table: String,
    /// `[INNER] JOIN table ON expr` (single join, nested-loop).
    pub join: Option<Join>,
    pub filter: Option<Expr>,
    pub order_by: Vec<(String, bool)>, // (column, descending)
    pub limit: Option<usize>,
}

/// An inner join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: String,
    pub on: Expr,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Plain expression (column ref or computed).
    Expr(Expr),
    /// `COUNT(*)`
    CountStar,
    /// `SUM(col)`, `MIN(col)`, `MAX(col)`, `COUNT(col)`
    Aggregate(AggFunc, String),
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value (includes INTLIST literals `[1,2,3]`).
    Literal(Value),
    /// Column reference.
    Column(String),
    /// The n-th `?` of the statement (0-based), bound at execution.
    Param(usize),
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `NOT e`
    Not(Box<Expr>),
    /// `e IS NULL` / `e IS NOT NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `e [NOT] IN (e1, e2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `e [NOT] LIKE 'pattern'` (`%` any run, `_` any single char); the
    /// pattern is a string literal or a parameter.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Scalar function call: `contains(list, x)`, `len(x)`, `append(list, x)`,
    /// `remove(list, x)`.
    Call { func: String, args: Vec<Expr> },
}
