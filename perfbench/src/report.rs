//! The metric tables `BENCHMARK.json` declares, and the one-line JSON
//! result the benchmark prints last.

use std::fmt::Write as _;

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("kips", "kinst/s"),
    ("ipc", "inst/cycle"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics that only the undeclared `sweep` and `serve`
/// workloads report, after [`END_TO_END`]: their cold (served) and warm
/// pass times.
pub const PASS_TIMES: &[(&str, &str)] = &[("wall_s", "s"), ("warm_s", "s")];

/// Per-layer metrics (name, unit), reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("core.new_s", "s"),
    ("core.fetch_s", "s"),
    ("core.dispatch_s", "s"),
    ("core.issue_s", "s"),
    ("core.writeback_s", "s"),
    ("core.commit_s", "s"),
    ("core.other_s", "s"),
    ("core.ns_per_fetched", "ns"),
    ("core.ns_per_cycle", "ns"),
    ("core.fetched", "count"),
    ("core.committed", "count"),
    ("core.killed", "count"),
    ("core.useful_frac", "ratio"),
    ("core.divergences", "count"),
    ("core.recoveries", "count"),
    ("core.window_occupancy_mean", "entries"),
    ("core.live_paths_mean", "paths"),
    ("core.cpi.squash_recovery", "cycles/inst"),
    ("core.cpi.fetch_starved", "cycles/inst"),
    ("core.cpi.operand_wait", "cycles/inst"),
    ("core.cpi.store_buffer", "cycles/inst"),
    ("core.cpi.fu_structural", "cycles/inst"),
    ("core.cpi.wrong_path", "cycles/inst"),
    ("core.cpi.window_full", "cycles/inst"),
    ("predictor.gshare_ns", "ns"),
    ("predictor.jrs_ns", "ns"),
    ("predictor.h2p_ns", "ns"),
    ("predictor.mispredict_rate", "ratio"),
    ("predictor.jrs_pvn", "ratio"),
    ("ctx.killed_by_ns", "ns"),
    ("ctx.descendants_ns", "ns"),
    ("ctx.insert_remove_ns", "ns"),
    ("func.mips", "Minst/s"),
    ("sweep.sim_s", "s"),
    ("sweep.busy_frac", "ratio"),
    ("sweep.cell_ms.p50", "ms"),
    ("sweep.cell_ms.pmax", "ms"),
    ("sweep.fingerprint_us", "us"),
    ("sweep.save_us", "us"),
    ("sweep.load_us", "us"),
    ("sweep.render_s", "s"),
    ("sweep.uncached_s", "s"),
    ("sweep.hit_frac", "ratio"),
    ("stats.to_json_us", "us"),
    ("stats.from_json_us", "us"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.lease_us", "us"),
    ("serve.complete_us", "us"),
    ("serve.handshake_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result line: output checks plus the metrics of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// One line of JSON with exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`; values keep every digit (`f64` Display
    /// is the shortest string that reads back to the same value).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    #[cfg(test)]
    /// Parse a line written by [`Report::to_json`].
    ///
    /// # Errors
    /// Malformed JSON or a missing or mistyped key.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let root = json::parse(text)?;
        let obj = root.object().ok_or("result is not an object")?;
        let field = |k: &str| json::get(obj, k).ok_or_else(|| format!("missing {k:?}"));
        let correct = match field("correct")? {
            json::Value::Bool(b) => *b,
            _ => return Err("\"correct\" is not a boolean".into()),
        };
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .number()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("{k:?} is not a whole number"))
        };
        let mut metrics = Vec::new();
        for (name, v) in field("metrics")?
            .object()
            .ok_or("\"metrics\" is not an object")?
        {
            let m = v
                .object()
                .ok_or_else(|| format!("metric {name} is not an object"))?;
            let value = json::get(m, "value")
                .and_then(json::Value::number)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            let unit = match json::get(m, "unit") {
                Some(json::Value::Str(u)) => u.clone(),
                _ => return Err(format!("metric {name} has no unit")),
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit,
            });
        }
        Ok(Report {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A minimal JSON reader: enough for the result line and
/// `BENCHMARK.json` (no `\u` escapes).
#[cfg(test)]
pub mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn object(&self) -> Option<&Vec<(String, Value)>> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }
        pub fn array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }
        pub fn number(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    /// The value bound to `key` in an object's entries.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parse one JSON document.
    ///
    /// # Errors
    /// A description of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.b.get(self.pos) == Some(&c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.b.get(self.pos) {
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

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.b[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self
                .b
                .get(self.pos)
                .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.b[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = Vec::new();
            loop {
                match self.b.get(self.pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return String::from_utf8(out).map_err(|_| "bad UTF-8".into());
                    }
                    Some(b'\\') => {
                        let c = *self.b.get(self.pos + 1).ok_or("truncated escape")?;
                        out.push(match c {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'"' | b'\\' | b'/' => c,
                            _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                        });
                        self.pos += 2;
                    }
                    Some(&c) => {
                        out.push(c);
                        self.pos += 1;
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.ws();
            if self.b.get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.b.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut entries = Vec::new();
            self.ws();
            if self.b.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                self.ws();
                let k = self.string()?;
                self.eat(b':')?;
                entries.push((k, self.value()?));
                self.ws();
                match self.b.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(manifest: &json::Value, key: &str) -> Vec<(String, String)> {
        let obj = manifest.object().unwrap();
        json::get(obj, key)
            .and_then(json::Value::array)
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.object().unwrap();
                let field = |k| json::get(m, k).and_then(json::Value::str).unwrap_or("");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PASS_TIMES)
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(crate::WORKLOADS.iter().copied())
            .chain(crate::UNDECLARED.iter().copied())
            .collect();
        for n in &all {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate names");
        assert!(!valid_name("has space") && !valid_name(".lead") && !valid_name(""));
    }

    #[test]
    fn manifest_declares_exactly_the_emitted_metrics_and_workloads() {
        let m = manifest();
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names(&m, "end_to_end"), table(END_TO_END));
        assert_eq!(names(&m, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names(&m, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn report_round_trips() {
        let r = Report {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "kips".into(),
                    value: 1_514.523_456_789_012_3,
                    unit: "kinst/s".into(),
                },
                Metric {
                    name: "sweep.cell_ms.p50".into(),
                    value: 3.0e-7,
                    unit: "ms".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.0,
                    unit: "s".into(),
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json(&line).unwrap(), r);
        assert!(Report::from_json(&line[..line.len() - 1]).is_err());
        assert!(Report::from_json("{\"correct\": true}").is_err());
    }
}
