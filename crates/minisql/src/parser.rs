//! Recursive-descent parser for the SQL subset.

use crate::ast::{CmpOp, ColumnDef, Predicate, SqlType, Statement};
use crate::lexer::{lex, Keyword, LexError, Token};
use std::fmt;
use wire::Value;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token / end of input.
    Unexpected {
        /// Display text of the token found (None = end).
        found: Option<String>,
        /// What was expected.
        expected: String,
    },
    /// Trailing tokens after a complete statement (display text of the
    /// first one).
    TrailingInput(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected `{t}` (expected {expected})"),
                None => write!(f, "unexpected end of SQL (expected {expected})"),
            },
            ParseError::TrailingInput(t) => write!(f, "trailing input at `{t}`"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parse one SQL statement (a trailing `;` is allowed). An `INSERT`
/// borrows its table and column names from `input`.
pub fn parse(input: &str) -> Result<Statement<'_>, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat(&Token::Semi);
    if let Some(t) = p.peek() {
        return Err(ParseError::TrailingInput(t.to_string()));
    }
    Ok(stmt)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, t: &Token<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        self.eat(&Token::Keyword(k))
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{k:?}")))
        }
    }

    fn expect(&mut self, t: Token<'_>, what: &str) -> Result<(), ParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.peek().map(Token::to_string),
            expected: expected.to_owned(),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(&Token::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn statement(&mut self) -> Result<Statement<'a>, ParseError> {
        if self.eat_kw(Keyword::Create) {
            self.create_table()
        } else if self.eat_kw(Keyword::Insert) {
            self.insert()
        } else if self.eat_kw(Keyword::Select) {
            self.select()
        } else {
            Err(self.unexpected("CREATE, INSERT or SELECT"))
        }
    }

    fn create_table(&mut self) -> Result<Statement<'a>, ParseError> {
        self.expect_kw(Keyword::Table)?;
        let table = self.ident("table name")?.to_owned();
        self.expect(Token::LParen, "'(' before column list")?;
        let mut columns = Vec::new();
        loop {
            let name = self.ident("column name")?.to_owned();
            let ty = self.sql_type()?;
            columns.push(ColumnDef { name, ty });
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(Token::RParen, "')' after column list")?;
            break;
        }
        Ok(Statement::CreateTable { table, columns })
    }

    fn sql_type(&mut self) -> Result<SqlType, ParseError> {
        if self.eat_kw(Keyword::Integer) || self.eat_kw(Keyword::Int) {
            Ok(SqlType::Integer)
        } else if self.eat_kw(Keyword::Bigint) {
            Ok(SqlType::Bigint)
        } else if self.eat_kw(Keyword::Real) {
            Ok(SqlType::Real)
        } else if self.eat_kw(Keyword::Double) {
            // Optional PRECISION.
            self.eat_kw(Keyword::Precision);
            Ok(SqlType::Double)
        } else if self.eat_kw(Keyword::Char) {
            Ok(SqlType::Char(self.width()?))
        } else if self.eat_kw(Keyword::Varchar) {
            Ok(SqlType::Varchar(self.width()?))
        } else {
            Err(self.unexpected("column type"))
        }
    }

    fn width(&mut self) -> Result<u16, ParseError> {
        self.expect(Token::LParen, "'(' before width")?;
        let w = match self.peek() {
            Some(Token::Int(v)) if (1..=65535).contains(v) => *v as u16,
            _ => return Err(self.unexpected("width 1..65535")),
        };
        self.pos += 1;
        self.expect(Token::RParen, "')' after width")?;
        Ok(w)
    }

    fn insert(&mut self) -> Result<Statement<'a>, ParseError> {
        self.expect_kw(Keyword::Into)?;
        let table = self.ident("table name")?;
        let mut columns = Vec::new();
        if self.eat(&Token::LParen) {
            // One name per comma-separated entry before the `)`.
            let listed = self.tokens[self.pos..]
                .iter()
                .take_while(|t| **t != Token::RParen)
                .count();
            columns.reserve(listed / 2 + 1);
            loop {
                columns.push(self.ident("column name")?);
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(Token::RParen, "')' after columns")?;
                break;
            }
        }
        self.expect_kw(Keyword::Values)?;
        self.expect(Token::LParen, "'(' before values")?;
        let mut values = Vec::with_capacity(columns.len());
        loop {
            values.push(self.literal()?);
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(Token::RParen, "')' after values")?;
            break;
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        let v = match self.peek() {
            Some(Token::Int(v)) => {
                // SQL integer literals fit the column's width at insert
                // validation time; carry as the widest integer.
                Value::Long(*v)
            }
            Some(Token::Float(v)) => Value::Double(*v),
            Some(Token::Str(s)) => Value::Str(s.as_ref().to_owned()),
            Some(Token::Keyword(Keyword::True)) => Value::Bool(true),
            Some(Token::Keyword(Keyword::False)) => Value::Bool(false),
            _ => return Err(self.unexpected("literal value")),
        };
        self.pos += 1;
        Ok(v)
    }

    fn select(&mut self) -> Result<Statement<'a>, ParseError> {
        let mut columns = Vec::new();
        if !self.eat(&Token::Star) {
            loop {
                columns.push(self.ident("column name or '*'")?.to_owned());
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_kw(Keyword::From)?;
        let table = self.ident("table name")?.to_owned();
        let predicate = if self.eat_kw(Keyword::Where) {
            Some(self.or_pred()?)
        } else {
            None
        };
        Ok(Statement::Select {
            columns,
            table,
            predicate,
        })
    }

    fn or_pred(&mut self) -> Result<Predicate, ParseError> {
        let mut lhs = self.and_pred()?;
        while self.eat_kw(Keyword::Or) {
            let rhs = self.and_pred()?;
            lhs = Predicate::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_pred(&mut self) -> Result<Predicate, ParseError> {
        let mut lhs = self.not_pred()?;
        while self.eat_kw(Keyword::And) {
            let rhs = self.not_pred()?;
            lhs = Predicate::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_pred(&mut self) -> Result<Predicate, ParseError> {
        if self.eat_kw(Keyword::Not) {
            Ok(Predicate::Not(Box::new(self.not_pred()?)))
        } else {
            self.atom_pred()
        }
    }

    fn atom_pred(&mut self) -> Result<Predicate, ParseError> {
        if self.eat(&Token::LParen) {
            let inner = self.or_pred()?;
            self.expect(Token::RParen, "closing ')'")?;
            return Ok(inner);
        }
        if self.eat_kw(Keyword::True) {
            return Ok(Predicate::Const(true));
        }
        if self.eat_kw(Keyword::False) {
            return Ok(Predicate::Const(false));
        }
        let column = self.ident("column name")?.to_owned();
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Err(self.unexpected("comparison operator")),
        };
        self.pos += 1;
        let value = self.literal()?;
        Ok(Predicate::Cmp { column, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_generator() {
        // The R-GMA test payload: 4 int, 8 double, 4 char(20).
        let stmt = parse(
            "CREATE TABLE generator (id INTEGER, seq INTEGER, node INTEGER, flags INT, \
             p1 DOUBLE PRECISION, p2 DOUBLE, p3 DOUBLE, p4 DOUBLE, \
             p5 DOUBLE, p6 DOUBLE, p7 DOUBLE, p8 DOUBLE, \
             c1 CHAR(20), c2 CHAR(20), c3 CHAR(20), c4 CHAR(20))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable { table, columns } => {
                assert_eq!(table, "generator");
                assert_eq!(columns.len(), 16);
                assert_eq!(columns[0].ty, SqlType::Integer);
                assert_eq!(columns[4].ty, SqlType::Double);
                assert_eq!(columns[12].ty, SqlType::Char(20));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn insert_with_and_without_columns() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(values, vec![Value::Long(1), Value::Str("x".into())]);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("INSERT INTO t VALUES (1.5, TRUE, -3)").unwrap();
        match s {
            Statement::Insert {
                columns, values, ..
            } => {
                assert!(columns.is_empty());
                assert_eq!(
                    values,
                    vec![Value::Double(1.5), Value::Bool(true), Value::Long(-3)]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_star_and_projection() {
        let s = parse("SELECT * FROM generator").unwrap();
        match s {
            Statement::Select {
                columns, predicate, ..
            } => {
                assert!(columns.is_empty());
                assert!(predicate.is_none());
            }
            other => panic!("{other:?}"),
        }
        let s = parse("SELECT id, power FROM generator WHERE id < 100").unwrap();
        match s {
            Statement::Select {
                columns, predicate, ..
            } => {
                assert_eq!(columns, vec!["id", "power"]);
                assert!(predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicate_precedence() {
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3").unwrap();
        let Statement::Select { predicate, .. } = s else {
            panic!()
        };
        match predicate.unwrap() {
            Predicate::Or(_, rhs) => match *rhs {
                Predicate::And(_, r2) => assert!(matches!(*r2, Predicate::Not(_))),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn error_cases() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("INSERT INTO t VALUES ()").is_err());
        assert!(parse("CREATE TABLE t (a FANCYTYPE)").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t WHERE a ~ 1").is_err());
        assert!(parse("SELECT * FROM t extra").is_err());
        assert!(parse("CREATE TABLE t (a CHAR(0))").is_err());
        assert!(parse("CREATE TABLE t (a CHAR(99999))").is_err());
    }

    #[test]
    fn error_display() {
        let e = parse("SELECT").unwrap_err().to_string();
        assert!(e.contains("end of SQL"), "{e}");
    }

    #[test]
    fn error_messages_show_the_offending_token() {
        for (sql, message) in [
            (
                "SELECT",
                "unexpected end of SQL (expected column name or '*')",
            ),
            (
                "DROP TABLE t",
                "unexpected `DROP` (expected CREATE, INSERT or SELECT)",
            ),
            (
                "INSERT INTO t VALUES ()",
                "unexpected `)` (expected literal value)",
            ),
            (
                "INSERT INTO VALUES",
                "unexpected `Values` (expected table name)",
            ),
            (
                "CREATE TABLE t (a CHAR(0))",
                "unexpected `0` (expected width 1..65535)",
            ),
            (
                "INSERT INTO t (a b) VALUES (1)",
                "unexpected `b` (expected ')' after columns)",
            ),
            ("SELECT * FROM t extra", "trailing input at `extra`"),
            (
                "SELECT * FROM t WHERE a = 'x' 'y'",
                "trailing input at `'y'`",
            ),
            ("SELECT * FROM t WHERE a = 1.5 2", "trailing input at `2`"),
            ("SELECT * FROM t; 'it''s'", "trailing input at `'it's'`"),
            (
                "SELECT * FROM t WHERE a >= -2.5 <>",
                "trailing input at `<>`",
            ),
        ] {
            assert_eq!(parse(sql).unwrap_err().to_string(), message, "{sql}");
        }
    }

    #[test]
    fn insert_borrows_its_names_from_the_sql() {
        let sql = String::from("INSERT INTO generator (id, site) VALUES (7, 'site-0007')");
        let Statement::Insert {
            table,
            columns,
            values,
        } = parse(&sql).unwrap()
        else {
            panic!("INSERT expected")
        };
        let within = |s: &str| sql.as_bytes().as_ptr_range().contains(&s.as_ptr());
        assert!(within(table) && columns.iter().all(|c| within(c)));
        assert_eq!((table, &columns[..]), ("generator", &["id", "site"][..]));
        assert_eq!(values, vec![Value::Long(7), Value::Str("site-0007".into())]);
    }
}
