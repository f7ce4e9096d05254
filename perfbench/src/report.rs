//! Run output and operation accounting: the result line, the run record
//! printed before it, per-phase operation counts, failed checks, and the
//! closed-loop runner.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Operations attempted and failed in one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Runs one operation. A typed error, or a panic caught at this
    /// boundary, counts as a failure.
    pub fn run<T, E: Display>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
                None
            }
            // The panic hook has already printed the message.
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

/// Failed output checks of one phase: how many, and the first few.
#[derive(Default)]
pub struct Findings {
    count: usize,
    first: Vec<String>,
}

impl Findings {
    pub fn tally(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.count += 1;
            if self.first.len() < 3 {
                self.first.push(e);
            }
        }
    }

    /// Files the phase's failures, if any, as one problem of the run.
    pub fn report(self, phase: &str, rep: &mut Report) {
        if self.count > 0 {
            rep.problem(format!(
                "{phase}: {} failed checks, first: {}",
                self.count,
                self.first.join("; ")
            ));
        }
    }
}

/// How long a pass runs: `Secs(s, min)` for `s` seconds and at least `min`
/// operations, `Count(n)` for exactly `n` (to repeat an earlier pass).
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    Secs(f64, usize),
    Count(usize),
}

/// Runs `op` in a closed loop — one client, the next call starts when the
/// last one returns — until `limit` is met. Returns the number of calls.
pub fn repeat(limit: Limit, mut op: impl FnMut()) -> usize {
    match limit {
        Limit::Secs(secs, min) => {
            let t = Instant::now();
            let mut n = 0;
            while n < min || t.elapsed().as_secs_f64() < secs {
                op();
                n += 1;
            }
            n
        }
        Limit::Count(n) => {
            (0..n).for_each(|_| op());
            n
        }
    }
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    record: BTreeMap<String, String>,
    phases: BTreeMap<&'static str, Ops>,
    problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is {value}"));
        }
        self.metrics.insert(name, (value, unit));
    }

    /// Adds a run-record entry; `json` must be a JSON value.
    pub fn note(&mut self, key: &str, json: impl Display) {
        self.record.insert(key.to_string(), json.to_string());
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    pub fn phase(&mut self, name: &'static str, ops: Ops) {
        let e = self.phases.entry(name).or_default();
        e.attempted += ops.attempted;
        e.failed += ops.failed;
    }

    /// The run record line.
    pub fn record_json(&self) -> String {
        let mut fields: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(k, o)| {
                format!(
                    "{}: {{\"ops_attempted\": {}, \"ops_failed\": {}}}",
                    quote(k),
                    o.attempted,
                    o.failed
                )
            })
            .collect();
        fields.push(format!("\"phases\": {{{}}}", phases.join(", ")));
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        fields.push(format!("\"problems\": [{}]", problems.join(", ")));
        format!("{{\"record\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let attempted: u64 = self.phases.values().map(|o| o.attempted).sum();
        let failed: u64 = self.phases.values().map(|o| o.failed).sum();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, &(v, u))| {
                // A non-finite value is already a problem of the run; JSON
                // has no NaN.
                let v = if v.is_finite() { v } else { -1.0 };
                format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(k), quote(u))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut rep = Report::default();
        rep.metric("b_ms", 1.5, "ms");
        rep.metric("a_s", 2.0, "s");
        rep.phase(
            "query",
            Ops {
                attempted: 3,
                failed: 1,
            },
        );
        assert_eq!(
            rep.result_json(),
            r#"{"correct": true, "attempted": 3, "failed": 1, "metrics": {"a_s": {"value": 2, "unit": "s"}, "b_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
        rep.check(false, || "bad \"thing\"".into());
        assert!(rep.result_json().starts_with(r#"{"correct": false"#));
        assert!(rep
            .record_json()
            .contains(r#""problems": ["bad \"thing\""]"#));
    }

    #[test]
    fn errors_and_caught_panics_count_as_failures() {
        let mut ops = Ops::default();
        assert_eq!(ops.run(|| Ok::<_, String>(1)), Some(1));
        assert_eq!(ops.run(|| Err::<u8, _>("typed")), None);
        assert_eq!(ops.run(|| -> Result<u8, String> { panic!("boom") }), None);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }

    #[test]
    fn count_limit_repeats_exactly() {
        let mut calls = 0;
        assert_eq!(repeat(Limit::Count(4), || calls += 1), 4);
        assert_eq!(repeat(Limit::Secs(0.0, 2), || calls += 1), 2);
        assert_eq!(calls, 6);
    }
}
