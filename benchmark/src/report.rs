//! What one run reports: a name/unit/value table for people and, as the
//! last line of standard output, the contract's one-line JSON result.

use crate::ledger::{E2E_MEANING, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use crate::trace::Recorder;
use mtsr_telemetry::Json;
use std::collections::BTreeMap;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused, timed out, errored, unanswered).
    pub failed: u64,
    /// Contract metrics by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Table rows beyond the contract metrics: `(name, unit, value, note)`.
    pub rows: Vec<(String, &'static str, f64, String)>,
    /// Correctness, additivity and hygiene violations; empty = correct.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Sets a contract metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a table-only row (an alias, a diagnostic, a sample count).
    pub fn row(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.rows.push((name.to_string(), unit, value, note.into()));
    }

    /// Adds a `<name>_p50` row for a timing in ms: median, sample count
    /// and the highest percentile with ten samples beyond it.
    pub fn timing_row(&mut self, name: &str, ms: &mut [f64], note: &str) {
        let sum = Summary::of(ms);
        let tail = sum.tail.map_or("no tail supported".into(), |(p, v)| {
            format!("p{p} {v:.3} ms")
        });
        let note = format!(
            "n = {}, {tail}{}{note}",
            sum.n,
            if note.is_empty() { "" } else { ", " }
        );
        self.row(&format!("{name}_p50"), "ms", sum.p50, note);
    }

    /// Adds a `self.<span name>` row per span name of a traced pass: self
    /// time per operation, where `ops` operations were traced.
    pub fn self_time_rows(&mut self, rec: &Recorder, ops: usize) {
        let ops = ops.max(1) as f64;
        for (name, (self_ns, count)) in rec.self_ns_by_name() {
            self.row(
                &format!("self.{name}"),
                "us",
                self_ns as f64 / 1e3 / ops,
                format!(
                    "self time per operation, {:.1} spans each",
                    count as f64 / ops
                ),
            );
        }
    }

    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The contract's result object: every end-to-end metric when
    /// `traced` is false, every per-layer metric when it is true. A
    /// per-layer metric this workload never measured reads 0.
    pub fn result_json(&self, traced: bool) -> Json {
        let defs: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = defs
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.violations.is_empty())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Prints the table, any violations, and the result line last.
    pub fn print(&self, workload: &str, traced: bool) {
        println!("== {workload} (trace {}) ==", u8::from(traced));
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u)
        };
        // On this workload each end-to-end name stands for one of the
        // issue's metrics; print which.
        let meaning = |name: &str| {
            let w = WORKLOADS.iter().position(|w| w.name == workload)?;
            let m = END_TO_END.iter().position(|m| m.name == name)?;
            E2E_MEANING[w]
                .get(m)
                .map(|issue_name| format!("= {issue_name}"))
        };
        for (name, value) in &self.metrics {
            println!(
                "{name:<34} {value:>16.4} {:<8} {}",
                unit_of(name),
                meaning(name).unwrap_or_default()
            );
        }
        for (name, unit, value, note) in &self.rows {
            println!("{name:<34} {value:>16.4} {unit:<8} {note}");
        }
        println!(
            "operations: {} attempted, {} succeeded, {} failed",
            self.attempted,
            self.attempted.saturating_sub(self.failed),
            self.failed
        );
        for v in &self.violations {
            println!("VIOLATION: {v}");
        }
        println!("{}", one_line(&self.result_json(traced)));
    }
}

/// Serialises on one line. `Json::pretty` breaks lines only between
/// tokens (strings escape their newlines), so dropping each line's
/// indentation and the line breaks leaves the same document.
pub fn one_line(json: &Json) -> String {
    json.pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 12,
            failed: 1,
            ..Default::default()
        };
        o.set("op_ms_p50", 1.25);
        let line = one_line(&o.result_json(false));
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).expect("valid JSON");
        let Json::Obj(pairs) = &back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(12));
        let Some(Json::Obj(metrics)) = back.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let m = back
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn traced_result_lists_every_per_layer_metric() {
        let mut o = Outcome::default();
        o.set("serve.codec_ns", 812.5);
        o.check(false, || "broken \"quote\"\nline".into());
        let back = Json::parse(&one_line(&o.result_json(true))).expect("valid JSON");
        let Some(Json::Obj(metrics)) = back.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(back.get("correct"), Some(&Json::Bool(false)));
        // attempted is at least 1 even when nothing ran.
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn one_line_keeps_strings_intact() {
        let j = Json::Obj(vec![("k".into(), Json::Str("  a\n  b".into()))]);
        assert_eq!(Json::parse(&one_line(&j)).expect("valid"), j);
    }
}
