//! The benchmark's JSON: the one-line result record it prints last, and a
//! small reader for the same subset (result records, trace files and
//! `BENCHMARK.json`), so the self-tests can round-trip what is emitted.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// The result record printed as the last line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Every correctness check passed.
    pub correct: bool,
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that errored, panicked or failed a check.
    pub failed: u64,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    /// The record as one line of JSON. Values keep every digit: Rust's
    /// float formatting is the shortest string that parses back to the
    /// same bits.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// Reads a record back from [`RunRecord::to_json`] output.
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let v = parse(text)?;
        let obj = v.as_object().ok_or("record is not an object")?;
        let get = |k: &str| obj.get(k).ok_or(format!("record lacks {k}"));
        let correct = match get("correct")? {
            Value::Bool(b) => *b,
            _ => return Err("correct is not a bool".into()),
        };
        let count = |k: &str| -> Result<u64, String> {
            let n = get(k)?.as_f64().ok_or(format!("{k} is not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{k} is not a whole number"));
            }
            Ok(n as u64)
        };
        let mut metrics = Vec::new();
        for (name, m) in get("metrics")?.as_object().ok_or("metrics is not an object")?.iter() {
            let m = m.as_object().ok_or("metric is not an object")?;
            let value = m.get("value").and_then(Value::as_f64).ok_or("metric lacks value")?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or("metric lacks unit")?;
            metrics.push(Metric { name: name.clone(), value, unit: unit.to_string() });
        }
        Ok(RunRecord { correct, attempted: count("attempted")?, failed: count("failed")?, metrics })
    }
}

/// A JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`; non-finite values (never produced by a healthy
/// run) become `null` so the line stays valid JSON.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Objects keep their keys in the order written.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Object),
}

/// Object members in source order, with keyed lookup.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    entries: Vec<(String, Value)>,
    index: BTreeMap<String, usize>,
}

impl Object {
    /// Member `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.index.get(key).map(|&i| &self.entries[i].1)
    }

    /// Members in source order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Value)> {
        self.entries.iter()
    }

    /// Member names in source order.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.iter().map(|(k, _)| k.as_str()).collect()
    }
}

impl Value {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
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

    /// The array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The object, if this is one.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
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

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut obj = Object::default();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(obj));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if obj.index.insert(key.clone(), obj.entries.len()).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            obj.entries.push((key, v));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(obj));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.char_indices();
            let Some((_, c)) = chars.next() else {
                return Err("unterminated string".into());
            };
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_bit_for_bit() {
        let record = RunRecord {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                Metric { name: "wall_s".into(), value: 1.234_567_890_123_456_7, unit: "s".into() },
                Metric { name: "peak_rss_mb".into(), value: 1361.25, unit: "MB".into() },
                Metric { name: "tiny".into(), value: 3.0e-17, unit: "s".into() },
                Metric { name: "whole".into(), value: 42.0, unit: "count".into() },
            ],
        };
        let line = record.to_json();
        assert!(!line.contains('\n'));
        let back = RunRecord::from_json(&line).expect("emitted record must parse");
        assert_eq!(back, record);
        for (a, b) in back.metrics.iter().zip(&record.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        let keys = parse(&line).unwrap().as_object().unwrap().keys().join(",");
        assert_eq!(keys, "correct,attempted,failed,metrics");
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "q\"\\A"}}"#).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(-2500.0));
        assert_eq!(
            o.get("b").unwrap().as_object().unwrap().get("c").unwrap().as_str(),
            Some("q\"\\A")
        );
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1,\"a\":2}", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(number(f64::NAN), "null");
    }
}
