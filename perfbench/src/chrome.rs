//! Reads the spans back out of a Chrome trace JSON document, as
//! `Service::chrome_trace_json` exports them: `M` records name each
//! `tid`'s track, `X` records are complete spans. Counter (`C`) records
//! are skipped.
//!
//! The reader is the benchmark's own rather than the vendored `serde`
//! shim's, which is planned for removal: deleting it must not require
//! editing the benchmark that judges the deletion.

use std::collections::BTreeMap;

/// One complete span from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Track name, e.g. `zero2/rank1` for a job-tagged service track.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Start, µs from the recording tracer's epoch.
    pub ts: f64,
    /// Duration, µs.
    pub dur: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("trace json: {what} at byte {}", self.i))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.value()? else {
                        return self.err("object key");
                    };
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return self.err("unterminated string"),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Value::Str(out));
                        }
                        Some(b'\\') => {
                            let esc = self.s.get(self.i + 1).copied();
                            self.i += 2;
                            match esc {
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                Some(b'r') => out.push('\r'),
                                Some(b'u') => {
                                    let hex = self
                                        .s
                                        .get(self.i..self.i + 4)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .and_then(char::from_u32);
                                    let Some(c) = hex else {
                                        return self.err("bad \\u escape");
                                    };
                                    out.push(c);
                                    self.i += 4;
                                }
                                Some(c) => out.push(c as char),
                                None => return self.err("dangling escape"),
                            }
                        }
                        Some(_) => {
                            let start = self.i;
                            while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                                self.i += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i])
                                    .map_err(|e| format!("trace json: {e}"))?,
                            );
                        }
                    }
                }
            }
            Some(b't') => self.literal("true", Value::Bool),
            Some(b'f') => self.literal("false", Value::Bool),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .map_or_else(|| self.err("bad number"), Ok)
            }
            None => self.err("unexpected end"),
        }
    }
}

/// Every `X` span in the document, with its `tid` resolved to the track
/// name its `thread_name` record gives.
pub fn spans(json: &str) -> Result<Vec<Span>, String> {
    let mut p = Parser {
        s: json.as_bytes(),
        i: 0,
    };
    let doc = p.value()?;
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        return Err("trace json: no traceEvents array".into());
    };
    let tid = |e: &Value| e.get("tid").and_then(Value::num).map(|t| t as u64);
    let mut tracks = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Value::str) == Some("M") {
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::str);
            if let (Some(t), Some(name)) = (tid(e), name) {
                tracks.insert(t, name.to_string());
            }
        }
    }
    let mut out = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::str) != Some("X") {
            continue;
        }
        let field = |k: &str| e.get(k).and_then(Value::num);
        let (Some(t), Some(name), Some(ts), Some(dur)) = (
            tid(e),
            e.get("name").and_then(Value::str),
            field("ts"),
            field("dur"),
        ) else {
            return Err("trace json: X event missing tid/name/ts/dur".into());
        };
        let track = tracks
            .get(&t)
            .cloned()
            .ok_or_else(|| format!("trace json: tid {t} has no thread_name"))?;
        out.push(Span {
            track,
            name: name.to_string(),
            ts,
            dur,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_tagged_service_spans() {
        let a = zo_trace::Tracer::new();
        let b = zo_trace::Tracer::new();
        a.record_span("gpu", "fwd_bwd", 10, 5);
        b.record_span("rank1", "reduce_scatter", 3, 2);
        b.add("rank1", "d2h_bytes", 8);
        let json = zo_trace::chrome_trace_json_tagged(&[("single", &a), ("zero2", &b)]);
        let got = spans(&json).expect("parses");
        assert_eq!(got.len(), 2);
        assert!(got.contains(&Span {
            track: "single/gpu".into(),
            name: "fwd_bwd".into(),
            ts: 10.0,
            dur: 5.0
        }));
        assert!(got.iter().any(|s| s.track == "zero2/rank1" && s.dur == 2.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(spans("{\"traceEvents\":[").is_err());
        assert!(spans("{}").is_err());
        assert!(spans("{\"traceEvents\":[{\"ph\":\"X\",\"tid\":0}]}").is_err());
    }
}
