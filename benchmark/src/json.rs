//! Hand-rolled JSON: the value type the benchmark writes its results in and
//! the parser `compare` reads them back with. The workspace builds offline
//! without serde, and `pdl-obs`' writer is outside the API allow-list.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order, so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Metric and workload names are restricted to `[A-Za-z0-9_.-]`, starting
/// with a letter or digit, at most 64 characters: the same rule
/// `BENCHMARK.json` is held to.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `{"name": {"value": v, "unit": "u"}, ...}` — the shape the driver reads.
/// Rejects a name outside [`valid_name`] and a value JSON cannot carry.
pub fn metrics_object(metrics: &[(String, f64, &str)]) -> Result<Json, String> {
    let mut pairs = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let entry = Json::Obj(vec![
            ("value".to_string(), Json::Num(*value)),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ]);
        pairs.push((name.clone(), entry));
    }
    Ok(Json::Obj(pairs))
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact, single-line encoding. Numbers print with every digit they
    /// were measured with (Rust's shortest round-trip form).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                debug_assert!(n.is_finite(), "non-finite number reached the JSON writer");
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    encode_str(k, out);
                    out.push_str(": ");
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while self.bytes.get(self.at).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err("unterminated string".to_string());
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.at) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.at += 1;
                    match e {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.at))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0u8; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at)),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_parser() {
        let metrics = vec![
            ("ops_per_s".to_string(), 87_512.340_917_f64, "op/s"),
            ("flash.write_amp".to_string(), 1.0625, "ratio"),
            ("count-9".to_string(), 3.0, "count"),
        ];
        let doc = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(true)),
            ("attempted".to_string(), Json::Num(1000.0)),
            ("note".to_string(), Json::Str("tab\t \"quoted\" \\ \u{1} é".to_string())),
            ("none".to_string(), Json::Null),
            ("list".to_string(), Json::Arr(vec![Json::Num(-1.5e-7), Json::Arr(vec![])])),
            ("metrics".to_string(), metrics_object(&metrics).unwrap()),
        ]);
        let text = doc.encode();
        assert!(!text.contains('\n'), "the result must stay on one line");
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let v = Json::parse(&text).unwrap();
        let ops = v.get("metrics").and_then(|m| m.get("ops_per_s")).unwrap();
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(87_512.340_917));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("op/s"));
    }

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        for good in ["ops_per_s", "core.read_page.host_ns_p50", "tpcc-hot", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "has space", "µs", "a/b", ".leading", "_x", "quo\"te", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
            assert!(metrics_object(&[(bad.to_string(), 1.0, "s")]).is_err(), "{bad}");
        }
        assert!(metrics_object(&[("nan".to_string(), f64::NAN, "s")]).is_err());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x", "\"open", "tru", "1.2.3"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
