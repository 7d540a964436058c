//! Tokenizer for the IVL surface syntax.

use std::fmt;

/// A token of the surface syntax.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i128),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `:=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    Neq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `==>`
    Implies,
    /// `<==>`
    Iff,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{}", s),
            Tok::Int(n) => write!(f, "{}", n),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Colon => write!(f, ":"),
            Tok::Dot => write!(f, "."),
            Tok::Assign => write!(f, ":="),
            Tok::EqEq => write!(f, "=="),
            Tok::Neq => write!(f, "!="),
            Tok::Le => write!(f, "<="),
            Tok::Ge => write!(f, ">="),
            Tok::Lt => write!(f, "<"),
            Tok::Gt => write!(f, ">"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Slash => write!(f, "/"),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Bang => write!(f, "!"),
            Tok::Implies => write!(f, "==>"),
            Tok::Iff => write!(f, "<==>"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source line (1-based), for error messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// The 1-based source line the token starts on.
    pub line: usize,
}

/// A lexing error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// The operators of more than one character, each before its prefixes.
const MULTI_CHAR: [(&str, Tok); 9] = [
    ("<==>", Tok::Iff),
    ("==>", Tok::Implies),
    (":=", Tok::Assign),
    ("==", Tok::EqEq),
    ("!=", Tok::Neq),
    ("<=", Tok::Le),
    (">=", Tok::Ge),
    ("&&", Tok::AndAnd),
    ("||", Tok::OrOr),
];

/// Tokenizes the input. `//` line comments and `/* */` block comments are
/// skipped.
pub fn tokenize(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut out = Vec::new();
    let n = chars.len();
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            i += 2;
            while i + 1 < n && !(chars[i] == '*' && chars[i + 1] == '/') {
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(n);
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            out.push(SpannedTok {
                tok: Tok::Ident(word),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && chars[i].is_ascii_digit() {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let value = text.parse::<i128>().map_err(|_| LexError {
                message: format!("integer literal out of range: {}", text),
                line,
            })?;
            out.push(SpannedTok {
                tok: Tok::Int(value),
                line,
            });
            continue;
        }
        let rest = &chars[i..];
        let multi = MULTI_CHAR
            .iter()
            .find(|(op, _)| op.len() <= rest.len() && op.chars().zip(rest).all(|(a, &b)| a == b));
        let (tok, len) = if let Some((op, tok)) = multi {
            (tok.clone(), op.len())
        } else {
            let single = match c {
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                ',' => Tok::Comma,
                ';' => Tok::Semi,
                ':' => Tok::Colon,
                '.' => Tok::Dot,
                '<' => Tok::Lt,
                '>' => Tok::Gt,
                '+' => Tok::Plus,
                '-' => Tok::Minus,
                '/' => Tok::Slash,
                '!' => Tok::Bang,
                other => {
                    return Err(LexError {
                        message: format!("unexpected character '{}'", other),
                        line,
                    })
                }
            };
            (single, 1)
        };
        out.push(SpannedTok { tok, line });
        i += len;
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("x := y.next;"),
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Ident("y".into()),
                Tok::Dot,
                Tok::Ident("next".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a ==> b <==> c <= d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Implies,
                Tok::Ident("b".into()),
                Tok::Iff,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let spanned = tokenize("x // comment\n/* block\ncomment */ y").unwrap();
        assert_eq!(spanned[0].tok, Tok::Ident("x".into()));
        assert_eq!(spanned[1].tok, Tok::Ident("y".into()));
        assert_eq!(spanned[1].line, 3);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
    }

    #[test]
    fn error_on_unknown_char() {
        assert!(tokenize("x @ y").is_err());
    }
}
