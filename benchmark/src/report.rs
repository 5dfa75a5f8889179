//! Result schema, the human table and `compare`.
//!
//! One run of one workload is a [`RunReport`]; its last printed line is the
//! object the driver reads. `all` gathers runs into one *pass* object with
//! the host fingerprint, and `compare` reads two passes back.

use crate::json::Json;
use crate::spec::Better;
use crate::stats;

pub const SCHEMA: &str = "dvdc-benchmark/1";

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
    /// Samples the value was taken from.
    pub n: usize,
}

impl Row {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(&self.unit)),
            ("better", Json::str(self.better.as_str())),
            ("bound", self.bound.map_or(Json::Null, Json::Num)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(name: &str, j: &Json) -> Result<Row, String> {
        let field = |key: &str| j.get(key).ok_or_else(|| format!("metric {name}: no {key}"));
        Ok(Row {
            name: name.to_owned(),
            value: field("value")?.as_f64().ok_or("value is not a number")?,
            unit: field("unit")?
                .as_str()
                .ok_or("unit is not a string")?
                .to_owned(),
            better: match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("metric {name}: better is {other:?}")),
            },
            bound: field("bound")?.as_f64(),
            n: field("n")?.as_f64().ok_or("n is not a number")? as usize,
        })
    }
}

fn rows_to_json(rows: &[Row]) -> Json {
    Json::Obj(rows.iter().map(|r| (r.name.clone(), r.to_json())).collect())
}

fn rows_from_json(j: Option<&Json>) -> Result<Vec<Row>, String> {
    j.and_then(Json::as_obj)
        .ok_or("no metrics object")?
        .iter()
        .map(|(name, row)| Row::from_json(name, row))
        .collect()
}

/// One run of one workload in one trace mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Every correctness gate passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What each failed gate saw.
    pub gate_failures: Vec<String>,
    pub config: Json,
    /// The metrics `BENCHMARK.json` names for this trace mode, in its order.
    pub metrics: Vec<Row>,
    /// The workload's own further breakdown, for the table and the pass file.
    pub extras: Vec<Row>,
}

impl RunReport {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|r| {
            (
                r.name.clone(),
                Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(&r.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "gate_failures",
                Json::Arr(self.gate_failures.iter().map(Json::str).collect()),
            ),
            ("config", self.config.clone()),
            ("metrics", rows_to_json(&self.metrics)),
            ("extras", rows_to_json(&self.extras)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RunReport, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run report: no number {key}"))
        };
        let flag = |key: &str| {
            j.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("run report: no flag {key}"))
        };
        Ok(RunReport {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run report: no workload")?
                .to_owned(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            gate_failures: j
                .get("gate_failures")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|g| g.as_str().map(str::to_owned))
                .collect(),
            config: j.get("config").cloned().unwrap_or(Json::Null),
            metrics: rows_from_json(j.get("metrics"))?,
            extras: rows_from_json(j.get("extras"))?,
        })
    }

    /// Every metric by name with unit, direction, bound and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed={} seconds={} {}: attempted={} failed={} correct={}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.correct,
        );
        for failure in &self.gate_failures {
            out.push_str(&format!("  GATE FAILED: {failure}\n"));
        }
        for row in self.metrics.iter().chain(&self.extras) {
            let bound = row.bound.map_or_else(|| "-".to_owned(), |b| format!("{b}"));
            out.push_str(&format!(
                "  {:<46} {:>14.4} {:<7} better={:<6} bound={:<5} n={}\n",
                row.name,
                row.value,
                row.unit,
                row.better.as_str(),
                bound,
                row.n
            ));
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new`'s median is than `base`'s, as a share of `base`'s
/// (negative when it is better), and what that means under `bound`.
pub fn judge(better: Better, bound: f64, base: &[f64], new: &[f64]) -> (f64, Verdict) {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let change = (new_median - base_median) / base_median.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = [base, new]
        .into_iter()
        .filter_map(stats::quartile_spread)
        .fold(0.0, f64::max);
    let is_better = |n: f64, b: f64| match better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let verdict = if spread > bound {
        // Too noisy to call, unless the two sides do not even overlap.
        if new.iter().all(|&n| base.iter().all(|&b| is_better(n, b))) {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// The values of one end-to-end metric of one workload across a pass's
/// repetitions.
fn pass_values(pass: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = pass
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    values.iter().map(Json::as_f64).collect()
}

fn failed_fraction(pass: &Json, workload: &str) -> Option<f64> {
    let w = pass.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?)
}

/// Rows of `workload × end-to-end metric` for two passes; `Err` on passes
/// that cannot be compared, `Ok((table, any_regression))` otherwise.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    for (side, pass) in [("A", base), ("B", new)] {
        if pass.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{side} is not a {SCHEMA} pass"));
        }
        if pass.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{side} is a --quick pass and is not comparable"));
        }
    }
    if base.get("host") != new.get("host") {
        eprintln!("warning: the two passes come from different hosts");
    }
    let mut table = format!(
        "{:<15} {:<24} {:>12} {:>12} {:>9} {:>6}  verdict   (ratio is B/A)\n",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut regressed = false;
    let workloads = base
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    for (workload, entry) in workloads {
        let Some(metrics) = entry.get("end_to_end").and_then(Json::as_obj) else {
            continue;
        };
        for (metric, row) in metrics {
            let (Some(a), Some(b)) = (
                pass_values(base, workload, metric),
                pass_values(new, workload, metric),
            ) else {
                continue;
            };
            let row = Row::from_json(metric, row)?;
            let bound = row.bound.ok_or_else(|| format!("{metric} has no bound"))?;
            let (_, verdict) = judge(row.better, bound, &a, &b);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            table.push_str(&format!(
                "{workload:<15} {metric:<24} {ma:>12.4} {mb:>12.4} {:>9.4} {bound:>6}  {}\n",
                mb / ma,
                verdict.as_str()
            ));
        }
        if let (Some(fa), Some(fb)) = (
            failed_fraction(base, workload),
            failed_fraction(new, workload),
        ) {
            if fb > fa {
                regressed = true;
                table.push_str(&format!(
                    "{workload:<15} {:<24} {fa:>12.4} {fb:>12.4} {:>9} {:>6}  regressed\n",
                    "ops_failed_frac", "-", 0
                ));
            }
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, value: f64, bound: Option<f64>) -> Row {
        Row {
            name: name.to_owned(),
            value,
            unit: "ms".to_owned(),
            better: Better::Lower,
            bound,
            n: 12,
        }
    }

    #[test]
    fn run_report_survives_a_round_trip() {
        let report = RunReport {
            workload: "live_xor_4m".to_owned(),
            seed: 7,
            seconds: 2.5,
            traced: true,
            correct: false,
            attempted: 40,
            failed: 1,
            gate_failures: vec!["epoch 9 after 7".to_owned()],
            config: Json::obj([("k", Json::Num(4.0))]),
            metrics: vec![row("op_ms.p50", 68.123456789, Some(0.1))],
            extras: vec![row("node.ctl_egress_ms.p50", 0.25, None)],
        };
        let text = report.to_json().render_pretty();
        assert_eq!(
            RunReport::from_json(&Json::parse(&text).unwrap()).unwrap(),
            report
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let report = RunReport {
            workload: "w".to_owned(),
            seed: 1,
            seconds: 1.0,
            traced: false,
            correct: true,
            attempted: 3,
            failed: 0,
            gate_failures: vec![],
            config: Json::Null,
            metrics: vec![row("setup_s", 0.5, Some(0.25))],
            extras: vec![row("hidden", 1.0, None)],
        };
        assert_eq!(
            report.contract_line(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // 5 % worse under a 10 % bound is fine; 20 % worse is not.
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(Better::Lower, 0.10, &steady, &slower).1, Verdict::Ok);
        let slow: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let (worse_by, verdict) = judge(Better::Lower, 0.10, &steady, &slow);
        assert!((worse_by - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // The same numbers are a gain when higher is better.
        assert_eq!(judge(Better::Higher, 0.10, &steady, &slow).1, Verdict::Ok);
        assert_eq!(
            judge(Better::Higher, 0.10, &slow, &steady).1,
            Verdict::Regressed
        );
        // A spread wider than the bound cannot be called ...
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &noisy).1,
            Verdict::Unresolved
        );
        // ... unless every new run beats every old one.
        let fast = [30.0, 50.0, 55.0, 40.0, 45.0];
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &fast).1, Verdict::Ok);
        // Single runs have no spread: the bound alone decides.
        assert_eq!(
            judge(Better::Lower, 0.10, &[100.0], &[111.0]).1,
            Verdict::Regressed
        );
    }
}
