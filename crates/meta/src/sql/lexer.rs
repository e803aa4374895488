//! SQL tokenizer.

use crate::error::{MetaError, Result};

/// A lexical token. Keywords are recognised case-insensitively and carried
/// as upper-cased `Keyword`s; everything else alphabetic is an `Ident`.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Reserved word, upper-cased.
    Keyword(String),
    /// Identifier, lower-cased.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// String literal (single quotes, `''` escapes a quote).
    Str(String),
    /// Punctuation / operator.
    Sym(Sym),
}

/// Symbol tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Semicolon,
    Dot,
    /// `?`, a bound-parameter placeholder.
    Question,
}

const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "TABLE",
    "DROP",
    "PRIMARY",
    "KEY",
    "NOT",
    "NULL",
    "AND",
    "OR",
    "IN",
    "LIKE",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
    "INT",
    "TEXT",
    "BLOB",
    "INTLIST",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "IF",
    "EXISTS",
    "IS",
    "TRANSACTION",
    "JOIN",
    "ON",
    "INNER",
    "INDEX",
    "EXPLAIN",
];

/// Tokenize `input` into a vector of tokens.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::Sym(Sym::LParen));
                i += 1;
            }
            ')' => {
                tokens.push(Token::Sym(Sym::RParen));
                i += 1;
            }
            '[' => {
                tokens.push(Token::Sym(Sym::LBracket));
                i += 1;
            }
            ']' => {
                tokens.push(Token::Sym(Sym::RBracket));
                i += 1;
            }
            ',' => {
                tokens.push(Token::Sym(Sym::Comma));
                i += 1;
            }
            '*' => {
                tokens.push(Token::Sym(Sym::Star));
                i += 1;
            }
            '+' => {
                tokens.push(Token::Sym(Sym::Plus));
                i += 1;
            }
            '-' => {
                tokens.push(Token::Sym(Sym::Minus));
                i += 1;
            }
            '/' => {
                tokens.push(Token::Sym(Sym::Slash));
                i += 1;
            }
            '%' => {
                tokens.push(Token::Sym(Sym::Percent));
                i += 1;
            }
            ';' => {
                tokens.push(Token::Sym(Sym::Semicolon));
                i += 1;
            }
            '.' => {
                tokens.push(Token::Sym(Sym::Dot));
                i += 1;
            }
            '?' => {
                tokens.push(Token::Sym(Sym::Question));
                i += 1;
            }
            '=' => {
                tokens.push(Token::Sym(Sym::Eq));
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Sym(Sym::NotEq));
                    i += 2;
                } else {
                    return Err(MetaError::Lex("bare '!'".into()));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Sym(Sym::LtEq));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::Sym(Sym::NotEq));
                    i += 2;
                } else {
                    tokens.push(Token::Sym(Sym::Lt));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Sym(Sym::GtEq));
                    i += 2;
                } else {
                    tokens.push(Token::Sym(Sym::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(MetaError::Lex("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // consume one UTF-8 scalar
                        let rest = &input[i..];
                        let ch = rest.chars().next().unwrap();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                tokens.push(Token::Str(s));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let n: i64 = text
                    .parse()
                    .map_err(|_| MetaError::Lex(format!("integer literal overflow: {text}")))?;
                tokens.push(Token::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'-'
                            && i + 1 < bytes.len()
                            && (bytes[i + 1] as char).is_ascii_alphanumeric())
                {
                    i += 1;
                }
                let word = &input[start..i];
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    tokens.push(Token::Keyword(upper));
                } else {
                    tokens.push(Token::Ident(word.to_ascii_lowercase()));
                }
            }
            other => {
                return Err(MetaError::Lex(format!("unexpected character {other:?}")));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_idents() {
        let t = lex("SELECT name FROM dpfs_server").unwrap();
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Ident("name".into()));
        assert_eq!(t[2], Token::Keyword("FROM".into()));
        assert_eq!(t[3], Token::Ident("dpfs_server".into()));
    }

    #[test]
    fn case_insensitive_keywords_lowercase_idents() {
        let t = lex("select NAME").unwrap();
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Ident("name".into()));
    }

    #[test]
    fn string_literal_with_escape() {
        let t = lex("'it''s'").unwrap();
        assert_eq!(t[0], Token::Str("it's".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn numbers_and_symbols() {
        let t = lex("a >= 42, b <> 7").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("a".into()),
                Token::Sym(Sym::GtEq),
                Token::Int(42),
                Token::Sym(Sym::Comma),
                Token::Ident("b".into()),
                Token::Sym(Sym::NotEq),
                Token::Int(7),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = lex("SELECT -- the whole row\n *").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], Token::Sym(Sym::Star));
    }

    #[test]
    fn hyphenated_server_names_lex_as_single_ident() {
        // the paper's table names are written DPFS-SERVER etc.; we accept
        // hyphens inside identifiers when followed by an alphanumeric
        let t = lex("dpfs-server").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], Token::Ident("dpfs-server".into()));
    }

    #[test]
    fn minus_still_lexes_alone() {
        let t = lex("a - 1").unwrap();
        assert_eq!(t[1], Token::Sym(Sym::Minus));
    }

    #[test]
    fn bad_char_errors() {
        assert!(lex("SELECT ^").is_err());
    }

    #[test]
    fn intlist_brackets() {
        let t = lex("[1, 2, 3]").unwrap();
        assert_eq!(t[0], Token::Sym(Sym::LBracket));
        assert_eq!(t[6], Token::Sym(Sym::RBracket));
    }
}
