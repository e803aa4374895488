//! Statement execution against the engine: the access-path planner, the
//! borrowing row pipeline, expression evaluation and nested-loop inner
//! joins.
//!
//! `SELECT`, `UPDATE` and `DELETE` share one way of reaching rows:
//! [`access_path`] looks through the `AND`-conjuncts of the `WHERE` clause
//! for `column = literal-or-parameter` and picks, in this order, a
//! primary-key point lookup, a secondary-index lookup, or a scan. Whatever
//! it picks only narrows the candidate rows; the complete filter is applied
//! to every candidate, so a path can lose time but never change a result.
//! Rows are filtered, sorted and aggregated as borrowed slices of the
//! table's heap; only the projected columns of surviving rows are cloned.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;

use crate::db::{Inner, ResultSet};
use crate::error::{MetaError, Result};
use crate::schema::{Column, Schema};
use crate::table::{RowId, Table};
use crate::value::Value;

use super::ast::*;

/// Column-name resolution over a (possibly joined) relation: the schemas of
/// its tables, side by side. Lookups accept `col` (must be unambiguous) or
/// `table.col`.
struct Rel<'a> {
    tables: Vec<(&'a str, &'a Schema)>,
}

impl<'a> Rel<'a> {
    fn new(table: &'a str, schema: &'a Schema) -> Rel<'a> {
        Rel {
            tables: vec![(table, schema)],
        }
    }

    fn join(mut self, table: &'a str, schema: &'a Schema) -> Rel<'a> {
        self.tables.push((table, schema));
        self
    }

    /// `(qualifier, column name)` of every column, in row order.
    fn columns(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.tables
            .iter()
            .flat_map(|(t, s)| s.columns().iter().map(move |c| (*t, c.name.as_str())))
    }

    fn arity(&self) -> usize {
        self.tables.iter().map(|(_, s)| s.arity()).sum()
    }

    fn resolve(&self, name: &str) -> Result<usize> {
        if let Some((q, c)) = name.split_once('.') {
            return self
                .columns()
                .position(|(qq, nn)| qq.eq_ignore_ascii_case(q) && nn.eq_ignore_ascii_case(c))
                .ok_or_else(|| MetaError::NoSuchColumn(name.to_string()));
        }
        let mut found = None;
        for (i, (_, n)) in self.columns().enumerate() {
            if n.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(MetaError::TypeError(format!(
                        "ambiguous column {name}: qualify as table.{name}"
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| MetaError::NoSuchColumn(name.to_string()))
    }

    /// Output name for column `i`: unqualified when unique, qualified
    /// otherwise.
    fn display_name(&self, i: usize) -> String {
        let (q, n) = self.columns().nth(i).expect("column index within arity");
        if self.columns().filter(|(_, x)| *x == n).count() > 1 {
            format!("{q}.{n}")
        } else {
            n.to_string()
        }
    }
}

/// One row of a relation, borrowed from the heap: a base-table row and, in
/// a join, the right-hand row beside it.
#[derive(Clone, Copy)]
struct Row<'a> {
    left: &'a [Value],
    right: &'a [Value],
}

impl<'a> Row<'a> {
    fn of(row: &'a [Value]) -> Row<'a> {
        Row {
            left: row,
            right: &[],
        }
    }

    fn get(self, i: usize) -> &'a Value {
        match i.checked_sub(self.left.len()) {
            None => &self.left[i],
            Some(j) => &self.right[j],
        }
    }
}

/// How a statement reaches its candidate rows. `key` is the literal or
/// parameter the chosen column is compared with.
enum AccessPath<'a> {
    /// At most one row, through the primary-key index.
    PkPoint { col: usize, key: &'a Expr },
    /// The rows of one key, through a secondary index.
    IndexEq { col: usize, key: &'a Expr },
    /// Every row.
    Scan,
}

#[cfg(test)]
thread_local! {
    /// The planner-equivalence oracle: while set, every statement scans.
    pub(crate) static FORCE_SCAN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The `AND`-conjuncts of `e`, left to right.
fn conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            conjuncts(lhs, out);
            conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

/// The value of a key expression. An unbound parameter counts as usable for
/// planning (`EXPLAIN` of a statement text) and fails when executed.
fn key_value<'a>(key: &'a Expr, params: &'a [Value]) -> Option<&'a Value> {
    match key {
        Expr::Literal(v) => Some(v),
        Expr::Param(i) => params.get(*i),
        _ => None,
    }
}

/// Choose the access path into `table` (the first table of `rel`) for
/// `filter`. An index serves `col = key` only for a key of the column's own
/// type (or NULL, which finds nothing the filter then keeps): a cross-type
/// comparison is a type error on the first row compared, and only the scan
/// compares one.
fn access_path<'a>(
    table: &Table,
    rel: &Rel<'_>,
    filter: Option<&'a Expr>,
    params: &[Value],
) -> AccessPath<'a> {
    #[cfg(test)]
    if FORCE_SCAN.with(|f| f.get()) {
        return AccessPath::Scan;
    }
    let mut terms = Vec::new();
    if let Some(f) = filter {
        conjuncts(f, &mut terms);
    }
    let schema = table.schema();
    let mut indexed = None;
    for term in terms {
        let Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = term
        else {
            continue;
        };
        let (name, key) = match (&**lhs, &**rhs) {
            (Expr::Column(c), k @ (Expr::Literal(_) | Expr::Param(_)))
            | (k @ (Expr::Literal(_) | Expr::Param(_)), Expr::Column(c)) => (c, k),
            _ => continue,
        };
        let Ok(col) = rel.resolve(name) else { continue };
        if col >= schema.arity() {
            continue; // a column of the joined table
        }
        let dtype = schema.columns()[col].dtype;
        if !key_value(key, params).is_none_or(|v| v.matches(dtype)) {
            continue;
        }
        if schema.pk_index() == Some(col) {
            return AccessPath::PkPoint { col, key };
        }
        if indexed.is_none() && table.has_index(col) {
            indexed = Some(AccessPath::IndexEq { col, key });
        }
    }
    indexed.unwrap_or(AccessPath::Scan)
}

type Candidates<'t> = Box<dyn Iterator<Item = (RowId, &'t [Value])> + 't>;

/// The rows `path` reaches, in row-id order.
fn candidates<'t>(
    table: &'t Table,
    path: &AccessPath<'_>,
    params: &[Value],
) -> Result<Candidates<'t>> {
    let bound = |key| key_value(key, params).ok_or_else(|| unbound(key));
    let row = move |id| (id, table.get(id).expect("indexed row is live"));
    Ok(match path {
        AccessPath::PkPoint { key, .. } => {
            Box::new(table.find_pk(bound(key)?).map(row).into_iter())
        }
        AccessPath::IndexEq { col, key } => Box::new(
            table
                .find_index(*col, bound(key)?)
                .expect("planner chose an indexed column")
                .map(row),
        ),
        AccessPath::Scan => Box::new(table.scan()),
    })
}

/// The rows of `table` (alone in `rel`) that `filter` keeps: the candidates
/// of the chosen access path, each checked against the whole filter.
fn matching<'t>(
    table: &'t Table,
    rel: &Rel<'_>,
    filter: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<(RowId, &'t [Value])>> {
    let path = access_path(table, rel, filter, params);
    let mut rows = Vec::new();
    for (id, row) in candidates(table, &path, params)? {
        if matches_filter(filter, params, Some((rel, Row::of(row))))? {
            rows.push((id, row));
        }
    }
    Ok(rows)
}

fn unbound(key: &Expr) -> MetaError {
    match key {
        Expr::Param(i) => MetaError::TypeError(format!("parameter ?{} is not bound", i + 1)),
        other => MetaError::TypeError(format!("not a key expression: {other:?}")),
    }
}

/// `EXPLAIN`: the access path of a `SELECT`, `UPDATE` or `DELETE` as one
/// row — `pk-point t.col`, `index-eq t.col` or `scan t`.
fn explain(inner: &Inner, stmt: &Statement, params: &[Value]) -> Result<ResultSet> {
    let (name, filter, joined) = match stmt {
        Statement::Select(sel) => (&sel.table, sel.filter.as_ref(), sel.join.as_ref()),
        Statement::Update { table, filter, .. } | Statement::Delete { table, filter } => {
            (table, filter.as_ref(), None)
        }
        _ => {
            return Err(MetaError::TypeError(
                "EXPLAIN supports SELECT, UPDATE and DELETE".into(),
            ))
        }
    };
    let table = inner.get_table(name)?;
    let mut rel = Rel::new(name, table.schema());
    if let Some(join) = joined {
        rel = rel.join(&join.table, inner.get_table(&join.table)?.schema());
    }
    let col_name = |col: usize| &table.schema().columns()[col].name;
    let path = match access_path(table, &rel, filter, params) {
        AccessPath::PkPoint { col, .. } => format!("pk-point {name}.{}", col_name(col)),
        AccessPath::IndexEq { col, .. } => format!("index-eq {name}.{}", col_name(col)),
        AccessPath::Scan => format!("scan {name}"),
    };
    Ok(ResultSet {
        columns: vec!["access_path".into()],
        rows: vec![vec![Value::Text(path)]],
    })
}

/// Execute one (non-transaction-control) statement inside the open
/// transaction of `inner`, with `params` bound to its `?` placeholders.
pub(crate) fn execute(inner: &mut Inner, stmt: &Statement, params: &[Value]) -> Result<ResultSet> {
    match stmt {
        Statement::CreateTable {
            name,
            if_not_exists,
            columns,
        } => {
            if *if_not_exists && inner.has_table(name) {
                return Ok(ResultSet::empty());
            }
            let cols = columns
                .iter()
                .map(|c| {
                    let mut col = Column::new(&c.name, c.dtype);
                    if c.not_null {
                        col = col.not_null();
                    }
                    if c.primary_key {
                        col = col.primary_key();
                    }
                    col
                })
                .collect();
            inner.create_table(name, Schema::new(cols)?)?;
            Ok(ResultSet::empty())
        }
        Statement::DropTable { name, if_exists } => {
            if *if_exists && !inner.has_table(name) {
                return Ok(ResultSet::empty());
            }
            inner.drop_table(name)?;
            Ok(ResultSet::empty())
        }
        Statement::CreateIndex {
            name,
            if_not_exists,
            table,
            column,
        } => {
            inner.create_index(name, table, column, *if_not_exists)?;
            Ok(ResultSet::empty())
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let schema = inner.get_table(table)?.schema();
            let arity = schema.arity();
            let positions: Vec<usize> = match columns {
                Some(cols) => cols
                    .iter()
                    .map(|c| schema.column_index(c))
                    .collect::<Result<_>>()?,
                None => (0..arity).collect(),
            };
            for row_exprs in rows {
                if row_exprs.len() != positions.len() {
                    return Err(MetaError::SchemaViolation(format!(
                        "INSERT expects {} values, got {}",
                        positions.len(),
                        row_exprs.len()
                    )));
                }
                let mut values = vec![Value::Null; arity];
                for (pos, e) in positions.iter().zip(row_exprs) {
                    // INSERT expressions cannot reference columns
                    values[*pos] = eval(e, params, None)?.into_owned();
                }
                inner.insert_row(table, values)?;
            }
            Ok(ResultSet::affected(rows.len()))
        }
        Statement::Select(sel) => select(inner, sel, params),
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let updates = {
                let t = inner.get_table(table)?;
                let rel = Rel::new(table, t.schema());
                let set_idx: Vec<(usize, &Expr)> = sets
                    .iter()
                    .map(|(c, e)| Ok((rel.resolve(c)?, e)))
                    .collect::<Result<_>>()?;
                let mut updates: Vec<(RowId, Vec<Value>)> = Vec::new();
                for (id, row) in matching(t, &rel, filter.as_ref(), params)? {
                    let ctx = Some((&rel, Row::of(row)));
                    let mut new_row = row.to_vec();
                    for (idx, e) in &set_idx {
                        new_row[*idx] = eval(e, params, ctx)?.into_owned();
                    }
                    updates.push((id, new_row));
                }
                updates
            };
            let n = updates.len();
            for (id, new_row) in updates {
                inner.update_row(table, id, new_row)?;
            }
            Ok(ResultSet::affected(n))
        }
        Statement::Delete { table, filter } => {
            let doomed: Vec<RowId> = {
                let t = inner.get_table(table)?;
                let rel = Rel::new(table, t.schema());
                let rows = matching(t, &rel, filter.as_ref(), params)?;
                rows.into_iter().map(|(id, _)| id).collect()
            };
            let n = doomed.len();
            for id in doomed {
                inner.delete_row(table, id)?;
            }
            Ok(ResultSet::affected(n))
        }
        Statement::Explain(stmt) => explain(inner, stmt, params),
    }
}

/// Row context of an expression: the relation and the row under evaluation.
type Ctx<'r, 'a> = Option<(&'r Rel<'r>, Row<'a>)>;

fn matches_filter<'a>(
    filter: Option<&'a Expr>,
    params: &'a [Value],
    ctx: Ctx<'_, 'a>,
) -> Result<bool> {
    match filter {
        None => Ok(true),
        Some(e) => Ok(truthy(eval(e, params, ctx)?.as_ref())),
    }
}

fn select(inner: &Inner, sel: &Select, params: &[Value]) -> Result<ResultSet> {
    // The source relation: the base table's candidate rows, nested-loop
    // joined with every row of the second table if requested.
    let base = inner.get_table(&sel.table)?;
    let mut rel = Rel::new(&sel.table, base.schema());
    let right = match &sel.join {
        Some(join) => {
            let t = inner.get_table(&join.table)?;
            rel = rel.join(&join.table, t.schema());
            Some((t, &join.on))
        }
        None => None,
    };
    let filter = sel.filter.as_ref();
    let path = access_path(base, &rel, filter, params);
    let mut rows: Vec<Row<'_>> = Vec::new();
    for (_, left) in candidates(base, &path, params)? {
        match right {
            None => {
                let row = Row::of(left);
                if matches_filter(filter, params, Some((&rel, row)))? {
                    rows.push(row);
                }
            }
            Some((t, on)) => {
                for (_, r) in t.scan() {
                    let row = Row { left, right: r };
                    let ctx = Some((&rel, row));
                    if truthy(eval(on, params, ctx)?.as_ref())
                        && matches_filter(filter, params, ctx)?
                    {
                        rows.push(row);
                    }
                }
            }
        }
    }

    // Aggregate query?
    let has_agg = sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::CountStar | SelectItem::Aggregate(..)));
    if has_agg {
        if sel
            .items
            .iter()
            .any(|i| !matches!(i, SelectItem::CountStar | SelectItem::Aggregate(..)))
        {
            return Err(MetaError::TypeError(
                "cannot mix aggregates with plain columns (no GROUP BY support)".into(),
            ));
        }
        let mut out_cols = Vec::new();
        let mut out_row = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::CountStar => {
                    out_cols.push("count(*)".to_string());
                    out_row.push(Value::Int(rows.len() as i64));
                }
                SelectItem::Aggregate(func, col) => {
                    let idx = rel.resolve(col)?;
                    out_cols.push(format!("{}({})", agg_name(*func), col));
                    out_row.push(aggregate(*func, &rows, idx)?);
                }
                SelectItem::Wildcard | SelectItem::Expr(_) => unreachable!(),
            }
        }
        return Ok(ResultSet {
            columns: out_cols,
            rows: vec![out_row],
        });
    }

    // ORDER BY
    if !sel.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = sel
            .order_by
            .iter()
            .map(|(c, desc)| Ok((rel.resolve(c)?, *desc)))
            .collect::<Result<_>>()?;
        rows.sort_by(|a, b| {
            for (idx, desc) in &keys {
                let ord = a.get(*idx).total_cmp(b.get(*idx));
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // LIMIT
    if let Some(n) = sel.limit {
        rows.truncate(n);
    }

    // Projection: the only place row values are cloned.
    let mut out_cols = Vec::new();
    let mut projectors: Vec<Projector<'_>> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for i in 0..rel.arity() {
                    out_cols.push(rel.display_name(i));
                    projectors.push(Projector::Index(i));
                }
            }
            SelectItem::Expr(Expr::Column(name)) => {
                let idx = rel.resolve(name)?;
                out_cols.push(name.clone());
                projectors.push(Projector::Index(idx));
            }
            SelectItem::Expr(e) => {
                out_cols.push("expr".to_string());
                projectors.push(Projector::Expr(e));
            }
            SelectItem::CountStar | SelectItem::Aggregate(..) => unreachable!(),
        }
    }

    let mut out_rows = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut out = Vec::with_capacity(projectors.len());
        for p in &projectors {
            match p {
                Projector::Index(i) => out.push(row.get(*i).clone()),
                Projector::Expr(e) => out.push(eval(e, params, Some((&rel, *row)))?.into_owned()),
            }
        }
        out_rows.push(out);
    }
    Ok(ResultSet {
        columns: out_cols,
        rows: out_rows,
    })
}

enum Projector<'a> {
    Index(usize),
    Expr(&'a Expr),
}

fn agg_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

fn aggregate(func: AggFunc, rows: &[Row<'_>], idx: usize) -> Result<Value> {
    let non_null = rows.iter().map(|r| r.get(idx)).filter(|v| !v.is_null());
    match func {
        AggFunc::Count => Ok(Value::Int(non_null.count() as i64)),
        AggFunc::Sum => {
            let mut sum = 0i64;
            let mut any = false;
            for v in non_null {
                sum = sum
                    .checked_add(v.as_int()?)
                    .ok_or_else(|| MetaError::TypeError("SUM overflow".into()))?;
                any = true;
            }
            Ok(if any { Value::Int(sum) } else { Value::Null })
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in non_null {
                match &best {
                    None => best = Some(v.clone()),
                    Some(b) => {
                        let ord = v.sql_cmp(b)?.unwrap_or(Ordering::Equal);
                        let better = if func == AggFunc::Min {
                            ord == Ordering::Less
                        } else {
                            ord == Ordering::Greater
                        };
                        if better {
                            best = Some(v.clone());
                        }
                    }
                }
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// SQL truthiness: NULL and 0 are false; any other integer is true.
fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(i) => *i != 0,
        _ => true,
    }
}

fn bool_val(b: bool) -> Value {
    Value::Int(b as i64)
}

/// Evaluate an expression with `params` bound to its placeholders,
/// optionally in the context of a relation row. Column, literal and
/// parameter references are returned borrowed; only computed values are
/// owned.
fn eval<'a>(expr: &'a Expr, params: &'a [Value], ctx: Ctx<'_, 'a>) -> Result<Cow<'a, Value>> {
    let owned = |v: Value| Ok(Cow::Owned(v));
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Param(_) => key_value(expr, params)
            .map(Cow::Borrowed)
            .ok_or_else(|| unbound(expr)),
        Expr::Column(name) => match ctx {
            Some((rel, row)) => Ok(Cow::Borrowed(row.get(rel.resolve(name)?))),
            None => Err(MetaError::TypeError(format!(
                "column reference {name} outside row context"
            ))),
        },
        Expr::Binary { op, lhs, rhs } => {
            // short-circuit AND/OR
            match op {
                BinOp::And => {
                    let l = eval(lhs, params, ctx)?;
                    if !truthy(&l) {
                        return owned(bool_val(false));
                    }
                    let r = eval(rhs, params, ctx)?;
                    return owned(bool_val(truthy(&r)));
                }
                BinOp::Or => {
                    let l = eval(lhs, params, ctx)?;
                    if truthy(&l) {
                        return owned(bool_val(true));
                    }
                    let r = eval(rhs, params, ctx)?;
                    return owned(bool_val(truthy(&r)));
                }
                _ => {}
            }
            let l = eval(lhs, params, ctx)?;
            let r = eval(rhs, params, ctx)?;
            match op {
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    match l.sql_cmp(&r)? {
                        None => owned(Value::Null),
                        Some(ord) => {
                            let b = match op {
                                BinOp::Eq => ord == Ordering::Equal,
                                BinOp::NotEq => ord != Ordering::Equal,
                                BinOp::Lt => ord == Ordering::Less,
                                BinOp::LtEq => ord != Ordering::Greater,
                                BinOp::Gt => ord == Ordering::Greater,
                                BinOp::GtEq => ord != Ordering::Less,
                                _ => unreachable!(),
                            };
                            owned(bool_val(b))
                        }
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    if l.is_null() || r.is_null() {
                        return owned(Value::Null);
                    }
                    let (a, b) = (l.as_int()?, r.as_int()?);
                    let v = match op {
                        BinOp::Add => a.checked_add(b),
                        BinOp::Sub => a.checked_sub(b),
                        BinOp::Mul => a.checked_mul(b),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(MetaError::TypeError("division by zero".into()));
                            }
                            a.checked_div(b)
                        }
                        BinOp::Mod => {
                            if b == 0 {
                                return Err(MetaError::TypeError("modulo by zero".into()));
                            }
                            a.checked_rem(b)
                        }
                        _ => unreachable!(),
                    };
                    v.map(|i| Cow::Owned(Value::Int(i)))
                        .ok_or_else(|| MetaError::TypeError("integer overflow".into()))
                }
                BinOp::And | BinOp::Or => unreachable!(),
            }
        }
        Expr::Not(e) => {
            let v = eval(e, params, ctx)?;
            if v.is_null() {
                owned(Value::Null)
            } else {
                owned(bool_val(!truthy(&v)))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, params, ctx)?;
            owned(bool_val(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, params, ctx)?;
            if v.is_null() {
                return owned(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval(item, params, ctx)?;
                if v.sql_cmp(&iv)? == Some(Ordering::Equal) {
                    found = true;
                    break;
                }
            }
            owned(bool_val(found != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, params, ctx)?;
            let p = eval(pattern, params, ctx)?;
            if v.is_null() || p.is_null() {
                return owned(Value::Null);
            }
            owned(bool_val(like_match(p.as_text()?, v.as_text()?) != *negated))
        }
        Expr::Call { func, args } => {
            let vals: Vec<Cow<'_, Value>> = args
                .iter()
                .map(|a| eval(a, params, ctx))
                .collect::<Result<_>>()?;
            call_function(func, &vals).map(Cow::Owned)
        }
    }
}

/// Scalar built-ins operating mainly on INTLIST (brick lists).
fn call_function<V: Borrow<Value>>(func: &str, args: &[V]) -> Result<Value> {
    let arg = |i: usize| -> &Value { args[i].borrow() };
    match func {
        "contains" => {
            expect_arity(func, args.len(), 2)?;
            let list = arg(0).as_int_list()?;
            let x = arg(1).as_int()?;
            Ok(bool_val(list.contains(&x)))
        }
        "len" => {
            expect_arity(func, args.len(), 1)?;
            match arg(0) {
                Value::IntList(v) => Ok(Value::Int(v.len() as i64)),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Blob(b) => Ok(Value::Int(b.len() as i64)),
                other => Err(MetaError::TypeError(format!("len() on {other}"))),
            }
        }
        "append" => {
            expect_arity(func, args.len(), 2)?;
            let mut list = arg(0).as_int_list()?.to_vec();
            list.push(arg(1).as_int()?);
            Ok(Value::IntList(list))
        }
        "remove" => {
            expect_arity(func, args.len(), 2)?;
            let x = arg(1).as_int()?;
            let list: Vec<i64> = arg(0)
                .as_int_list()?
                .iter()
                .copied()
                .filter(|&v| v != x)
                .collect();
            Ok(Value::IntList(list))
        }
        "concat" => {
            expect_arity(func, args.len(), 2)?;
            let a = arg(0).as_text()?;
            let b = arg(1).as_text()?;
            Ok(Value::Text(format!("{a}{b}")))
        }
        other => Err(MetaError::TypeError(format!("unknown function {other}"))),
    }
}

fn expect_arity(func: &str, got: usize, n: usize) -> Result<()> {
    if got != n {
        Err(MetaError::TypeError(format!(
            "{func}() expects {n} arguments, got {got}"
        )))
    } else {
        Ok(())
    }
}

/// SQL LIKE: `%` matches any run (including empty), `_` one character.
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // iterative two-pointer with backtracking on the last %
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_basics() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("a%", "abcdef"));
        assert!(like_match("%f", "abcdef"));
        assert!(like_match("a%f", "af"));
        assert!(like_match("%", ""));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%home%", "/home/xhshen/dpfs.test"));
        assert!(!like_match("tmp%", "/tmp/x")); // anchored at start
    }

    #[test]
    fn eval_literals_and_arith() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Literal(Value::Int(2))),
            rhs: Box::new(Expr::Literal(Value::Int(3))),
        };
        assert_eq!(*eval(&e, &[], None).unwrap(), Value::Int(5));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::Literal(Value::Int(1))),
            rhs: Box::new(Expr::Literal(Value::Int(0))),
        };
        assert!(eval(&e, &[], None).is_err());
    }

    #[test]
    fn null_propagates_through_arith_and_cmp() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Literal(Value::Null)),
            rhs: Box::new(Expr::Literal(Value::Int(3))),
        };
        assert_eq!(*eval(&e, &[], None).unwrap(), Value::Null);
        let e = Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(Expr::Literal(Value::Null)),
            rhs: Box::new(Expr::Literal(Value::Int(3))),
        };
        assert_eq!(*eval(&e, &[], None).unwrap(), Value::Null);
    }

    #[test]
    fn functions() {
        let list = Value::IntList(vec![0, 2, 6, 8]);
        assert_eq!(
            call_function("contains", &[list.clone(), Value::Int(6)]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call_function("contains", &[list.clone(), Value::Int(5)]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            call_function("len", std::slice::from_ref(&list)).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            call_function("append", &[list.clone(), Value::Int(12)]).unwrap(),
            Value::IntList(vec![0, 2, 6, 8, 12])
        );
        assert_eq!(
            call_function("remove", &[list, Value::Int(2)]).unwrap(),
            Value::IntList(vec![0, 6, 8])
        );
        assert!(call_function::<Value>("nope", &[]).is_err());
    }

    #[test]
    fn rel_resolution() {
        let schema = |cols: &[&str]| {
            Schema::new(
                cols.iter()
                    .map(|c| Column::new(c, crate::value::DataType::Int))
                    .collect(),
            )
            .unwrap()
        };
        let (a, b) = (schema(&["id", "x"]), schema(&["id"]));
        let rel = Rel::new("a", &a).join("b", &b);
        assert_eq!(rel.resolve("x").unwrap(), 1);
        assert_eq!(rel.resolve("a.id").unwrap(), 0);
        assert_eq!(rel.resolve("b.id").unwrap(), 2);
        assert_eq!(
            rel.resolve("B.ID").unwrap(),
            2,
            "names are case-insensitive"
        );
        assert!(rel.resolve("id").is_err(), "ambiguous");
        assert!(rel.resolve("missing").is_err());
        assert_eq!(rel.display_name(0), "a.id");
        assert_eq!(rel.display_name(1), "x");
    }
}
