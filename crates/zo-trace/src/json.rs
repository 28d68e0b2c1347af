//! A small JSON reader, plus the string quoting the Chrome trace writer
//! uses.
//!
//! The workspace reads JSON in three places: the engine config file, the
//! `BENCH_*.json` artifact validators, and tests that re-parse a Chrome
//! trace. Each one walks a [`Value`] tree with [`Value::get`] and the
//! `as_*` accessors. The reader is bounded, because a config file is
//! outside input: nesting deeper than [`MAX_DEPTH`] is a typed
//! [`Error::TooDeep`] rather than a stack overflow, and strings decode
//! `char`s straight from the `&str` input in linear time.
//!
//! ```
//! let v = zo_trace::json::parse(r#"{"name": "adam", "mean_ns": [1.5, 2]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("adam"));
//! assert!(zo_trace::json::parse(&"[".repeat(10_000)).is_err());
//! ```

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers are `f64`; objects keep their entries in
/// document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of `key`, if this is an object that has it (the first
    /// one, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if it is a non-negative integer that `f64` holds
    /// exactly (at most 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Why a text is not accepted, with the byte offset where reading stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that passed the limit.
        at: usize,
    },
    /// The text is not well-formed JSON.
    Syntax {
        /// Byte offset of the problem.
        at: usize,
        /// What was expected or found there.
        detail: &'static str,
    },
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::TooDeep { at } => {
                write!(f, "JSON nests deeper than {MAX_DEPTH} levels at byte {at}")
            }
            Error::Syntax { at, detail } => write!(f, "invalid JSON at byte {at}: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

/// Parses one JSON document; only whitespace may follow it.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.syntax("trailing characters after the document"));
    }
    Ok(v)
}

/// Renders `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn syntax(&self, detail: &'static str) -> Error {
        Error::Syntax {
            at: self.pos,
            detail,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8, detail: &'static str) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(detail))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.syntax("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.nested(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut entries = Vec::new();
                self.nested(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.syntax("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':', "expected ':' after a key")?;
                    entries.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.syntax("unexpected character")),
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.syntax("invalid literal"))
        }
    }

    /// Reads an array or object from its opening bracket: comma-separated
    /// `item`s up to and including `close`, nested at most [`MAX_DEPTH`]
    /// deep.
    fn nested(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::TooDeep { at: self.pos });
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.syntax("expected ',' or a closing bracket")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if !digits(self) {
            return Err(self.syntax("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.syntax("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.syntax("expected an exponent"));
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Num)
            .map_err(|_| Error::Syntax {
                at: start,
                detail: "invalid number",
            })
    }

    /// Reads a string starting at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.syntax("unterminated string"));
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                c if (c as u32) < 0x20 => {
                    return Err(self.syntax("control character in a string"));
                }
                c => {
                    self.pos += c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    /// Decodes the escape after a backslash. A `\u` surrogate pair joins
    /// into one `char`; a lone surrogate becomes U+FFFD.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(e) = self.peek() else {
            return Err(self.syntax("unterminated escape"));
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
                    let back = self.pos;
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    self.pos = back;
                }
                char::from_u32(hi).unwrap_or('\u{fffd}')
            }
            _ => {
                self.pos -= 1;
                return Err(self.syntax("invalid escape"));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.syntax("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let v = parse(r#" {"a": [1, -2.5e1, 0.125], "b": {"c": null, "d": true}, "e": "x\"y\u00e9\ud83d\ude00", "f": false} "#)
            .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(
            a.iter().map(|x| x.as_f64().unwrap()).collect::<Vec<_>>(),
            [1.0, -25.0, 0.125]
        );
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_u64(), None);
        let b = v.get("b").unwrap();
        assert!(b.get("c").unwrap().is_null());
        assert_eq!(b.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("e").and_then(Value::as_str),
            Some("x\"y\u{e9}\u{1f600}")
        );
        assert_eq!(v.get("f"), Some(&Value::Bool(false)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None, "get on a non-object");
    }

    #[test]
    fn non_ascii_strings_decode_in_place() {
        let text = format!("\"{}\"", "ü€😀".repeat(10_000));
        assert_eq!(
            parse(&text).unwrap().as_str().unwrap().chars().count(),
            30_000
        );
    }

    #[test]
    fn malformed_inputs_are_errors() {
        for bad in [
            "",
            "{nope",
            "[1,",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1: 2}",
            "\"open",
            "\"bad \\q\"",
            "\"\\u12\"",
            "\"tab\tinside\"",
            "12..5",
            "01",
            "-",
            "1.",
            "1e",
            "+1",
            "tru",
            "[1] trailing",
            "nan",
        ] {
            assert!(
                matches!(parse(bad), Err(Error::Syntax { .. })),
                "accepted {bad:?}: {:?}",
                parse(bad)
            );
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let deep = "[".repeat(1_000_000);
        assert_eq!(parse(&deep), Err(Error::TooDeep { at: MAX_DEPTH }));
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(parse(&objects), Err(Error::TooDeep { .. })));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn quote_escapes_and_reparses() {
        let s = "fwd\"bwd\\\n\t\r\u{1}é";
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
    }
}
