//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (`{"name": {"value": v, "unit": u}}`), plus a
//! small parser for it so the format is checked by a round trip.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Report {
    /// One line of JSON. Values print with every digit (`f64`'s
    /// shortest round-trip form); a non-finite value prints as `null`,
    /// which no consumer reads as a measurement.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            if m.value.is_finite() {
                let _ = write!(out, "{}", m.value);
            } else {
                out.push_str("null");
            }
            out.push_str(", \"unit\": ");
            push_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`Report::to_json`].
    ///
    /// # Errors
    /// Describes the first syntax or schema violation.
    pub fn parse(s: &str) -> Result<Report, String> {
        let mut p = Parser { s: s.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        let Json::Obj(top) = v else {
            return Err("top level is not an object".into());
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |v: &Json| match v {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u64),
            _ => Err("count is not a whole number".to_string()),
        };
        let Json::Bool(correct) = top[0].1 else {
            return Err("correct is not a bool".into());
        };
        let Json::Obj(ms) = &top[3].1 else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(ms.len());
        for (name, m) in ms {
            let Json::Obj(fields) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            let value = match fields.iter().find(|(k, _)| k == "value") {
                Some((_, Json::Num(x))) => *x,
                Some((_, Json::Null)) => f64::NAN,
                _ => return Err(format!("metric {name} has no numeric value")),
            };
            let unit = match fields.iter().find(|(k, _)| k == "unit") {
                Some((_, Json::Str(u))) => u.clone(),
                _ => return Err(format!("metric {name} has no unit")),
            };
            if fields.len() != 2 {
                return Err(format!("metric {name} has extra fields"));
            }
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit,
            });
        }
        Ok(Report {
            correct,
            attempted: count(&top[1].1)?,
            failed: count(&top[2].1)?,
            metrics,
        })
    }
}

/// The JSON subset the result line uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
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

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            fields.push((k, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Copy one whole UTF-8 sequence.
                    let start = self.i - 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "tick_p50_ms".into(),
                    value: 10.123456789012345,
                    unit: "ms".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 3.2e-5,
                    unit: "s".into(),
                },
                Metric {
                    name: "accel.ns_per_flop".into(),
                    value: 1e300,
                    unit: "ns/flop".into(),
                },
                Metric {
                    name: "q\"uote".into(),
                    value: -0.0,
                    unit: "µs".into(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_own_parser() {
        let r = sample();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = Report::parse(&line).expect("parses");
        assert_eq!(back, r);
        // Every digit survives: the values compare bit-for-bit.
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn nonfinite_value_becomes_null() {
        let mut r = sample();
        r.metrics[0].value = f64::NAN;
        let line = r.to_json();
        assert!(line.contains("\"tick_p50_ms\": {\"value\": null"));
        assert!(Report::parse(&line).expect("parses").metrics[0].value.is_nan());
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(Report::parse("{\"correct\": true}").is_err());
        assert!(Report::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Report::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x"
        )
        .is_err());
        assert!(Report::parse(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }
}
