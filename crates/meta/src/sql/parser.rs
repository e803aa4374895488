//! Recursive-descent parser for the SQL subset.

use crate::error::{MetaError, Result};
use crate::value::{DataType, Value};

use super::ast::*;
use super::lexer::{lex, Sym, Token};

/// Parse a single SQL statement (a trailing `;` is permitted).
pub fn parse(sql: &str) -> Result<Statement> {
    parse_counted(sql).map(|(stmt, _)| stmt)
}

/// [`parse`], also returning how many `?` placeholders the statement holds.
pub(crate) fn parse_counted(sql: &str) -> Result<(Statement, usize)> {
    let mut p = Parser::new(lex(sql)?);
    let stmt = p.statement()?;
    p.eat_sym(Sym::Semicolon); // optional
    if p.pos != p.tokens.len() {
        return Err(MetaError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok((stmt, p.params))
}

/// Parse a `;`-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(lex(sql)?);
    let mut stmts = Vec::new();
    loop {
        while p.eat_sym(Sym::Semicolon) {}
        if p.pos == p.tokens.len() {
            break;
        }
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `?` placeholders seen so far; the next one gets this index.
    params: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            params: 0,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| MetaError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(MetaError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(MetaError::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(MetaError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// A possibly table-qualified column name: `col` or `tbl.col`.
    fn column_name(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.eat_sym(Sym::Dot) {
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Token::Keyword(k)) => match k.as_str() {
                "CREATE" => {
                    self.pos += 1;
                    if self.eat_kw("INDEX") {
                        self.create_index()
                    } else {
                        self.create_table()
                    }
                }
                "EXPLAIN" => {
                    self.pos += 1;
                    Ok(Statement::Explain(Box::new(self.statement()?)))
                }
                "DROP" => self.drop_table(),
                "INSERT" => self.insert(),
                "SELECT" => self.select().map(Statement::Select),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                "BEGIN" => {
                    self.pos += 1;
                    self.eat_kw("TRANSACTION");
                    Ok(Statement::Begin)
                }
                "COMMIT" => {
                    self.pos += 1;
                    Ok(Statement::Commit)
                }
                "ROLLBACK" => {
                    self.pos += 1;
                    Ok(Statement::Rollback)
                }
                other => Err(MetaError::Parse(format!("unexpected keyword {other}"))),
            },
            other => Err(MetaError::Parse(format!(
                "expected statement, found {other:?}"
            ))),
        }
    }

    fn if_not_exists(&mut self) -> Result<bool> {
        if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// After `CREATE INDEX`.
    fn create_index(&mut self) -> Result<Statement> {
        let if_not_exists = self.if_not_exists()?;
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let column = self.ident()?;
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            if_not_exists,
            table,
            column,
        })
    }

    /// After `CREATE`.
    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let if_not_exists = self.if_not_exists()?;
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let dtype = self.dtype()?;
            let mut primary_key = false;
            let mut not_null = false;
            loop {
                if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    primary_key = true;
                } else if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col,
                dtype,
                primary_key,
                not_null,
            });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateTable {
            name,
            if_not_exists,
            columns,
        })
    }

    fn dtype(&mut self) -> Result<DataType> {
        match self.next()? {
            Token::Keyword(k) => match k.as_str() {
                "INT" => Ok(DataType::Int),
                "TEXT" => Ok(DataType::Text),
                "BLOB" => Ok(DataType::Blob),
                "INTLIST" => Ok(DataType::IntList),
                other => Err(MetaError::Parse(format!("expected type, found {other}"))),
            },
            other => Err(MetaError::Parse(format!("expected type, found {other:?}"))),
        }
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_sym(Sym::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_sym(Sym::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_sym(Sym::Comma) {
                row.push(self.expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.eat_sym(Sym::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let join = if self.eat_kw("INNER")
            || matches!(self.peek(), Some(Token::Keyword(k)) if k == "JOIN")
        {
            self.expect_kw("JOIN")?;
            let jtable = self.ident()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            Some(Join { table: jtable, on })
        } else {
            None
        };
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let col = self.column_name()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push((col, desc));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(MetaError::Parse(format!(
                        "expected non-negative LIMIT, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Select {
            items,
            table,
            join,
            filter,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // aggregates
        if let Some(Token::Keyword(k)) = self.peek() {
            let agg = match k.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(agg) = agg {
                self.pos += 1;
                self.expect_sym(Sym::LParen)?;
                if agg == AggFunc::Count && self.eat_sym(Sym::Star) {
                    self.expect_sym(Sym::RParen)?;
                    return Ok(SelectItem::CountStar);
                }
                let col = self.column_name()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(SelectItem::Aggregate(agg, col));
            }
        }
        Ok(SelectItem::Expr(self.expr()?))
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
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
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // Expression grammar (lowest to highest precedence):
    //   or_expr   := and_expr (OR and_expr)*
    //   and_expr  := not_expr (AND not_expr)*
    //   not_expr  := NOT not_expr | cmp_expr
    //   cmp_expr  := add_expr [(=|!=|<|<=|>|>=) add_expr
    //                | IS [NOT] NULL | [NOT] IN (...) | [NOT] LIKE 'p']
    //   add_expr  := mul_expr ((+|-) mul_expr)*
    //   mul_expr  := atom ((*|/|%) atom)*
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN / [NOT] LIKE
        let negated = if matches!(self.peek(), Some(Token::Keyword(k)) if k == "NOT") {
            // only treat NOT as postfix negation if followed by IN/LIKE
            if matches!(self.tokens.get(self.pos + 1), Some(Token::Keyword(k)) if k == "IN" || k == "LIKE")
            {
                self.pos += 1;
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect_sym(Sym::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_sym(Sym::Comma) {
                list.push(self.expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.atom()? {
                e @ (Expr::Literal(Value::Text(_)) | Expr::Param(_)) => e,
                other => {
                    return Err(MetaError::Parse(format!(
                        "LIKE expects a string pattern or ?, found {other:?}"
                    )))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(MetaError::Parse("dangling NOT".into()));
        }
        let op = match self.peek() {
            Some(Token::Sym(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Sym(Sym::NotEq)) => Some(BinOp::NotEq),
            Some(Token::Sym(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Sym(Sym::LtEq)) => Some(BinOp::LtEq),
            Some(Token::Sym(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Sym(Sym::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Plus)) => BinOp::Add,
                Some(Token::Sym(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym(Sym::Star)) => BinOp::Mul,
                Some(Token::Sym(Sym::Slash)) => BinOp::Div,
                Some(Token::Sym(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.next()? {
            Token::Int(n) => Ok(Expr::Literal(Value::Int(n))),
            Token::Str(s) => Ok(Expr::Literal(Value::Text(s))),
            Token::Keyword(k) if k == "NULL" => Ok(Expr::Literal(Value::Null)),
            Token::Sym(Sym::Question) => {
                self.params += 1;
                Ok(Expr::Param(self.params - 1))
            }
            Token::Sym(Sym::Minus) => {
                // unary minus on an integer literal or expression
                let inner = self.atom()?;
                match inner {
                    Expr::Literal(Value::Int(n)) => Ok(Expr::Literal(Value::Int(-n))),
                    e => Ok(Expr::Binary {
                        op: BinOp::Sub,
                        lhs: Box::new(Expr::Literal(Value::Int(0))),
                        rhs: Box::new(e),
                    }),
                }
            }
            Token::Sym(Sym::LParen) => {
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Token::Sym(Sym::LBracket) => {
                // INTLIST literal
                let mut xs = Vec::new();
                if !self.eat_sym(Sym::RBracket) {
                    loop {
                        match self.next()? {
                            Token::Int(n) => xs.push(n),
                            Token::Sym(Sym::Minus) => match self.next()? {
                                Token::Int(n) => xs.push(-n),
                                other => {
                                    return Err(MetaError::Parse(format!(
                                        "expected integer in list, found {other:?}"
                                    )))
                                }
                            },
                            other => {
                                return Err(MetaError::Parse(format!(
                                    "expected integer in list, found {other:?}"
                                )))
                            }
                        }
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                    self.expect_sym(Sym::RBracket)?;
                }
                Ok(Expr::Literal(Value::IntList(xs)))
            }
            Token::Ident(name) => {
                if self.eat_sym(Sym::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(format!("{name}.{col}")));
                }
                if self.eat_sym(Sym::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_sym(Sym::RParen) {
                        args.push(self.expr()?);
                        while self.eat_sym(Sym::Comma) {
                            args.push(self.expr()?);
                        }
                        self.expect_sym(Sym::RParen)?;
                    }
                    Ok(Expr::Call { func: name, args })
                } else {
                    Ok(Expr::Column(name))
                }
            }
            other => Err(MetaError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_full() {
        let s = parse(
            "CREATE TABLE dpfs_server (server_name TEXT PRIMARY KEY, capacity INT NOT NULL, performance INT)",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns, .. } => {
                assert_eq!(name, "dpfs_server");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].primary_key);
                assert!(columns[1].not_null);
                assert_eq!(columns[2].dtype, DataType::Int);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn create_if_not_exists() {
        let s = parse("CREATE TABLE IF NOT EXISTS t (a INT)").unwrap();
        assert!(matches!(
            s,
            Statement::CreateTable {
                if_not_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn insert_multi_row_with_intlist() {
        let s = parse("INSERT INTO d (server, bricklist) VALUES ('s0', [0,2,4]), ('s1', [1,3])")
            .unwrap();
        match s {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["server", "bricklist"]);
                assert_eq!(rows[0][1], Expr::Literal(Value::IntList(vec![0, 2, 4])));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn select_with_everything() {
        let s = parse(
            "SELECT name, size FROM files WHERE size > 100 AND owner = 'xhshen' ORDER BY size DESC, name LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.table, "files");
                assert!(sel.filter.is_some());
                assert_eq!(
                    sel.order_by,
                    vec![("size".into(), true), ("name".into(), false)]
                );
                assert_eq!(sel.limit, Some(10));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn select_aggregates() {
        let s = parse("SELECT COUNT(*), SUM(capacity), MAX(performance) FROM s").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items[0], SelectItem::CountStar);
                assert_eq!(
                    sel.items[1],
                    SelectItem::Aggregate(AggFunc::Sum, "capacity".into())
                );
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE f SET size = size + 1, owner = 'x' WHERE name = 'a'").unwrap();
        assert!(matches!(s, Statement::Update { ref sets, .. } if sets.len() == 2));
        let s = parse("DELETE FROM f WHERE name LIKE 'tmp%'").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                filter: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn precedence_and_parens() {
        // a = 1 OR b = 2 AND c = 3  parses as  a = 1 OR (b = 2 AND c = 3)
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        if let Statement::Select(sel) = s {
            match sel.filter.unwrap() {
                Expr::Binary {
                    op: BinOp::Or, rhs, ..
                } => {
                    assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
                }
                other => panic!("bad precedence: {other:?}"),
            }
        } else {
            panic!();
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse("SELECT 1 + 2 * 3 FROM t").unwrap();
        if let Statement::Select(sel) = s {
            match &sel.items[0] {
                SelectItem::Expr(Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                }) => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("bad precedence: {other:?}"),
            }
        }
    }

    #[test]
    fn in_and_not_in() {
        let s = parse("SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')").unwrap();
        assert!(matches!(s, Statement::Select(_)));
    }

    #[test]
    fn is_null_variants() {
        let s = parse("SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL").unwrap();
        assert!(matches!(s, Statement::Select(_)));
    }

    #[test]
    fn txn_statements() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION;").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn function_call() {
        let s = parse("SELECT * FROM d WHERE contains(bricklist, 7)").unwrap();
        if let Statement::Select(sel) = s {
            assert!(matches!(sel.filter.unwrap(), Expr::Call { .. }));
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn negative_literals() {
        let s = parse("INSERT INTO t VALUES (-5, [-1, 2])").unwrap();
        if let Statement::Insert { rows, .. } = s {
            assert_eq!(rows[0][0], Expr::Literal(Value::Int(-5)));
            assert_eq!(rows[0][1], Expr::Literal(Value::IntList(vec![-1, 2])));
        }
    }

    #[test]
    fn placeholders_are_numbered_in_order_of_appearance() {
        let (s, n) =
            parse_counted("UPDATE t SET a = ?, b = ? + 1 WHERE k = ? AND v LIKE ?").unwrap();
        assert_eq!(n, 4);
        let Statement::Update { sets, filter, .. } = s else {
            panic!("not an update")
        };
        assert_eq!(sets[0].1, Expr::Param(0));
        let Some(Expr::Binary { lhs, rhs, .. }) = filter else {
            panic!("no AND")
        };
        assert!(matches!(*lhs, Expr::Binary { rhs: ref k, .. } if **k == Expr::Param(2)));
        assert!(matches!(*rhs, Expr::Like { ref pattern, .. } if **pattern == Expr::Param(3)));
        // a question mark inside a string literal is text, not a placeholder
        assert_eq!(parse_counted("SELECT * FROM t WHERE a = '?'").unwrap().1, 0);
        assert!(parse("SELECT * FROM t WHERE a LIKE 5").is_err());
    }

    #[test]
    fn create_index_and_explain() {
        assert_eq!(
            parse("CREATE INDEX IF NOT EXISTS by_name ON files (name)").unwrap(),
            Statement::CreateIndex {
                name: "by_name".into(),
                if_not_exists: true,
                table: "files".into(),
                column: "name".into(),
            }
        );
        assert!(
            parse("CREATE INDEX ON files (name)").is_err(),
            "name required"
        );
        assert!(parse("CREATE VIEW v").is_err());
        let s = parse("EXPLAIN DELETE FROM t WHERE k = ?").unwrap();
        assert!(
            matches!(s, Statement::Explain(inner) if matches!(*inner, Statement::Delete { .. }))
        );
    }
}
