//! SQL lexer for the R-GMA subset.
//!
//! Tokens borrow from the SQL text: identifiers are slices of it, and a
//! string literal is copied only when it contains a `''` escape.

use std::borrow::Cow;
use std::fmt;

/// SQL token, borrowing names and literals from the input text.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier (table/column name); case preserved.
    Ident(&'a str),
    /// Keyword, normalized to uppercase.
    Keyword(Keyword),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, unescaped (owned only if it contained `''`).
    Str(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

/// Recognized keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Create,
    Table,
    Insert,
    Into,
    Values,
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    Null,
    True,
    False,
    Integer,
    Int,
    Bigint,
    Real,
    Double,
    Precision,
    Char,
    Varchar,
}

/// Keyword spellings, matched case-insensitively without allocating.
const KEYWORDS: [(&str, Keyword); 22] = [
    ("CREATE", Keyword::Create),
    ("TABLE", Keyword::Table),
    ("INSERT", Keyword::Insert),
    ("INTO", Keyword::Into),
    ("VALUES", Keyword::Values),
    ("SELECT", Keyword::Select),
    ("FROM", Keyword::From),
    ("WHERE", Keyword::Where),
    ("AND", Keyword::And),
    ("OR", Keyword::Or),
    ("NOT", Keyword::Not),
    ("NULL", Keyword::Null),
    ("TRUE", Keyword::True),
    ("FALSE", Keyword::False),
    ("INTEGER", Keyword::Integer),
    ("INT", Keyword::Int),
    ("BIGINT", Keyword::Bigint),
    ("REAL", Keyword::Real),
    ("DOUBLE", Keyword::Double),
    ("PRECISION", Keyword::Precision),
    ("CHAR", Keyword::Char),
    ("VARCHAR", Keyword::Varchar),
];

impl Keyword {
    fn parse(word: &str) -> Option<Keyword> {
        KEYWORDS
            .iter()
            .find(|(spelling, _)| spelling.eq_ignore_ascii_case(word))
            .map(|&(_, k)| k)
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Semi => write!(f, ";"),
        }
    }
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description.
    pub message: String,
    /// Byte offset.
    pub at: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize SQL text.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = input.as_bytes();
    // A comma-separated list spends about four bytes per token (a short
    // name or number, then ", "); a third of the length leaves headroom
    // so the vector does not have to grow.
    let mut out = Vec::with_capacity(input.len() / 3 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "expected '=' after '!'".into(),
                        at: i,
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Ne);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let (literal, end) = string_literal(input, i)?;
                out.push(Token::Str(literal));
                i = end;
            }
            '-' | '0'..='9' | '.' => {
                // '-' only starts a number here if followed by a digit
                // (the subset has no arithmetic).
                let negative = c == '-';
                if negative
                    && !bytes
                        .get(i + 1)
                        .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
                {
                    return Err(LexError {
                        message: "unexpected '-'".into(),
                        at: i,
                    });
                }
                let start = i;
                if negative {
                    i += 1;
                }
                let mut saw_dot = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if !saw_dot => {
                            saw_dot = true;
                            i += 1;
                        }
                        b'e' | b'E' => {
                            saw_dot = true; // force float parse
                            i += 1;
                            if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                let tok = if saw_dot {
                    Token::Float(text.parse::<f64>().map_err(|e| LexError {
                        message: format!("bad float {text:?}: {e}"),
                        at: start,
                    })?)
                } else {
                    Token::Int(text.parse::<i64>().map_err(|e| LexError {
                        message: format!("bad integer {text:?}: {e}"),
                        at: start,
                    })?)
                };
                out.push(tok);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                match Keyword::parse(word) {
                    Some(k) => out.push(Token::Keyword(k)),
                    None => out.push(Token::Ident(word)),
                }
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    at: i,
                })
            }
        }
    }
    Ok(out)
}

/// The string literal whose opening quote is at byte `open`, unescaped,
/// and the byte offset just past its closing quote. A quote byte never
/// occurs inside a multi-byte UTF-8 sequence, so scanning bytes is safe.
fn string_literal(input: &str, open: usize) -> Result<(Cow<'_, str>, usize), LexError> {
    let bytes = input.as_bytes();
    let body = open + 1;
    // Set on the first `''` escape; `run` is where the text not yet
    // copied into it starts.
    let mut unescaped: Option<String> = None;
    let mut run = body;
    let mut j = body;
    loop {
        match bytes.get(j) {
            None => {
                return Err(LexError {
                    message: "unterminated string literal".into(),
                    at: open,
                })
            }
            Some(b'\'') if bytes.get(j + 1) == Some(&b'\'') => {
                // Keep one quote of the pair.
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&input[run..=j]);
                j += 2;
                run = j;
            }
            Some(b'\'') => {
                let literal = match unescaped {
                    None => Cow::Borrowed(&input[body..j]),
                    Some(mut s) => {
                        s.push_str(&input[run..j]);
                        Cow::Owned(s)
                    }
                };
                return Ok((literal, j + 1));
            }
            Some(_) => j += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_insert() {
        let toks = lex("INSERT INTO generator (id, power) VALUES (1, 850.5)").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Insert));
        assert!(toks.contains(&Token::Ident("generator")));
        assert!(toks.contains(&Token::Int(1)));
        assert!(toks.contains(&Token::Float(850.5)));
    }

    #[test]
    fn lex_select_with_comparison() {
        let toks = lex("SELECT * FROM t WHERE a >= 10 AND b <> 'x'").unwrap();
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Str("x".into())));
    }

    #[test]
    fn negative_numbers() {
        assert_eq!(lex("-5").unwrap(), vec![Token::Int(-5)]);
        assert_eq!(lex("-2.5").unwrap(), vec![Token::Float(-2.5)]);
        assert!(lex("- 5").is_err(), "bare minus is not arithmetic");
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            lex("select Select SELECT").unwrap(),
            vec![Token::Keyword(Keyword::Select); 3]
        );
    }

    #[test]
    fn quoted_escapes() {
        assert_eq!(lex("'it''s'").unwrap(), vec![Token::Str("it's".into())]);
    }

    #[test]
    fn names_and_plain_literals_borrow_from_the_input() {
        let sql = "INSERT INTO generator (site) VALUES ('site-0001')";
        let toks = lex(sql).unwrap();
        let within = |s: &str| sql.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let Token::Ident(table) = toks[2] else {
            panic!("identifier expected, got {:?}", toks[2])
        };
        assert_eq!(table, "generator");
        assert!(within(table), "identifier points into the input");
        match &toks[toks.len() - 2] {
            Token::Str(Cow::Borrowed(s)) => {
                assert_eq!(*s, "site-0001");
                assert!(within(s), "literal points into the input");
            }
            other => panic!("borrowed literal expected, got {other:?}"),
        }
    }

    #[test]
    fn only_escaped_literals_are_owned() {
        for (sql, text) in [("'it''s'", "it's"), ("''''", "'"), ("'a''b''c'", "a'b'c")] {
            match &lex(sql).unwrap()[..] {
                [Token::Str(Cow::Owned(s))] => assert_eq!(s, text, "{sql}"),
                other => panic!("{sql}: owned literal expected, got {other:?}"),
            }
        }
        assert!(matches!(
            &lex("''").unwrap()[..],
            [Token::Str(Cow::Borrowed(""))]
        ));
        assert!(matches!(
            &lex("'naïve ünïcode'").unwrap()[..],
            [Token::Str(Cow::Borrowed("naïve ünïcode"))]
        ));
        assert!(lex("'it''").is_err(), "an escaped quote does not close");
    }

    #[test]
    fn keywords_match_in_any_case_and_only_whole_words() {
        assert_eq!(
            lex("VaLuEs iNtO").unwrap(),
            vec![
                Token::Keyword(Keyword::Values),
                Token::Keyword(Keyword::Into)
            ]
        );
        assert_eq!(
            lex("intox INTO_x _into").unwrap(),
            vec![
                Token::Ident("intox"),
                Token::Ident("INTO_x"),
                Token::Ident("_into")
            ]
        );
        for (spelling, k) in KEYWORDS {
            assert_eq!(Keyword::parse(&spelling.to_lowercase()), Some(k));
        }
    }

    #[test]
    fn errors() {
        assert!(lex("'open").is_err());
        assert!(lex("a ? b").is_err());
        assert!(lex("!x").is_err());
    }

    #[test]
    fn bang_equals() {
        assert_eq!(lex("a != 1").unwrap()[1], Token::Ne);
    }
}
