//! `summarize` and `compare`: medians and quartiles of repeated runs, and
//! the verdict on two of them against the bounds in `BENCHMARK.json`.
//!
//! A runs file holds one JSON line per run, as `run --out` appends them. A
//! summary file is what `summarize` prints (and what `BASELINE.json` is).
//! `compare` takes either kind on either side.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// Order statistics of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `None` below two runs.
    pub quartiles: Option<(f64, f64)>,
    pub runs: usize,
    pub unit: String,
}

impl Summary {
    fn of(values: &[f64], unit: &str) -> Summary {
        Summary {
            median: median(values),
            quartiles: quartiles(values),
            runs: values.len(),
            unit: unit.to_string(),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles?;
        (self.median != 0.0).then(|| (q3 - q1) / self.median.abs())
    }
}

/// One side of a comparison: per workload, per metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummarySet {
    pub metrics: BTreeMap<String, BTreeMap<String, Summary>>,
    /// Failed operations over attempted ones, all runs together.
    pub failed_frac: BTreeMap<String, f64>,
}

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The metric and workload lists of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Gate>,
    pub per_layer: Vec<String>,
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn names(list: &Value) -> Result<Vec<String>, String> {
    list.as_array()
        .ok_or("expected an array")?
        .iter()
        .map(|item| -> Result<String, String> {
            field(item, "name")?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| "\"name\" is not a string".to_string())
        })
        .collect()
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let end_to_end = field(&doc, "end_to_end")?
            .as_array()
            .ok_or("\"end_to_end\" is not an array")?
            .iter()
            .map(|m| -> Result<Gate, String> {
                Ok(Gate {
                    name: field(m, "name")?.as_str().ok_or("name")?.to_string(),
                    lower_is_better: match field(m, "better")?.as_str() {
                        Some("lower") => true,
                        Some("higher") => false,
                        _ => return Err("\"better\" is neither lower nor higher".to_string()),
                    },
                    bound: field(m, "bound")?.as_f64().ok_or("bound")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Contract {
            run_seconds: field(&doc, "run_seconds")?.as_f64().ok_or("run_seconds")?,
            workloads: names(field(&doc, "workloads")?)?,
            end_to_end,
            per_layer: names(field(&doc, "per_layer")?)?,
        })
    }
}

/// Read a runs file or a summary file.
pub fn load(text: &str) -> Result<SummarySet, String> {
    if let Ok(doc) = json::parse(text) {
        if doc.get("workloads").is_some() {
            return from_summary(&doc);
        }
    }
    let mut values: BTreeMap<String, BTreeMap<String, (Vec<f64>, String)>> = BTreeMap::new();
    let mut attempts: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let workload = field(&run, "workload")?
            .as_str()
            .ok_or("\"workload\" is not a string")?;
        let count = |key| field(&run, key)?.as_f64().ok_or(format!("\"{key}\""));
        let entry = attempts.entry(workload.to_string()).or_default();
        entry.0 += count("failed")?;
        entry.1 += count("attempted")?;
        let per_metric = values.entry(workload.to_string()).or_default();
        for (name, metric) in field(&run, "metrics")?.as_object().ok_or("\"metrics\"")? {
            let value = field(metric, "value")?.as_f64().ok_or("\"value\"")?;
            let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
            let slot = per_metric
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), unit.to_string()));
            slot.0.push(value);
        }
    }
    if values.is_empty() {
        return Err("no runs found".to_string());
    }
    Ok(SummarySet {
        metrics: values
            .into_iter()
            .map(|(workload, per_metric)| {
                let summaries = per_metric
                    .into_iter()
                    .map(|(name, (v, unit))| (name, Summary::of(&v, &unit)))
                    .collect();
                (workload, summaries)
            })
            .collect(),
        failed_frac: attempts
            .into_iter()
            .map(|(w, (failed, attempted))| (w, failed / attempted.max(1.0)))
            .collect(),
    })
}

fn from_summary(doc: &Value) -> Result<SummarySet, String> {
    let mut set = SummarySet::default();
    for (workload, body) in field(doc, "workloads")?
        .as_object()
        .ok_or("\"workloads\"")?
    {
        let failed = field(body, "failed_frac")?
            .as_f64()
            .ok_or("\"failed_frac\"")?;
        set.failed_frac.insert(workload.clone(), failed);
        let mut summaries = BTreeMap::new();
        for (name, m) in field(body, "metrics")?.as_object().ok_or("\"metrics\"")? {
            let number = |key| field(m, key)?.as_f64().ok_or(format!("\"{key}\""));
            let runs = number("runs")? as usize;
            summaries.insert(
                name.clone(),
                Summary {
                    median: number("median")?,
                    quartiles: if runs >= 2 {
                        Some((number("q1")?, number("q3")?))
                    } else {
                        None
                    },
                    runs,
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                },
            );
        }
        set.metrics.insert(workload.clone(), summaries);
    }
    Ok(set)
}

/// The summary document: what `BASELINE.json` holds. No gain is claimed by
/// a baseline, hence `"claim": null`.
pub fn summary_json(set: &SummarySet, note: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"claim\": null,");
    let _ = writeln!(out, "  \"note\": {},", json::quote(note));
    let _ = writeln!(out, "  \"workloads\": {{");
    let workloads: Vec<String> = set
        .metrics
        .iter()
        .map(|(workload, summaries)| {
            let metrics: Vec<String> = summaries
                .iter()
                .map(|(name, s)| {
                    let (q1, q3) = s.quartiles.unwrap_or((s.median, s.median));
                    format!(
                        "        {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": {}, \"unit\": {}}}",
                        json::quote(name),
                        json::number(s.median),
                        json::number(q1),
                        json::number(q3),
                        s.runs,
                        json::quote(&s.unit)
                    )
                })
                .collect();
            format!(
                "    {}: {{\n      \"failed_frac\": {},\n      \"metrics\": {{\n{}\n      }}\n    }}",
                json::quote(workload),
                json::number(set.failed_frac.get(workload).copied().unwrap_or(0.0)),
                metrics.join(",\n")
            )
        })
        .collect();
    let _ = writeln!(out, "{}", workloads.join(",\n"));
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// What `compare` found for one gated metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Regression,
    /// The run-to-run spread of a side exceeds the bound: neither a
    /// regression nor its absence can be told.
    Unresolved,
    /// One side has no value for the metric.
    Missing,
}

/// The share by which a workload's metric may worsen: a tenth, widened to
/// three times the base side's own inter-quartile range where that is
/// larger, and never wider than the bound `BENCHMARK.json` gives the metric
/// for all workloads (the driver enforces that one). A base of one run has
/// no spread to go by and gets the contract's bound.
pub fn pair_bound(gate: &Gate, base: &Summary) -> f64 {
    match base.spread() {
        Some(spread) => (3.0 * spread).max(0.10).min(gate.bound),
        None => gate.bound,
    }
}

/// Judge `new` against `base` for one gate: the verdict, the change as a
/// share of the base median, the larger spread of the two sides and the
/// bound applied.
pub fn judge(
    gate: &Gate,
    base: Option<&Summary>,
    new: Option<&Summary>,
) -> (Verdict, f64, f64, f64) {
    let (Some(base), Some(new)) = (base, new) else {
        return (Verdict::Missing, 0.0, 0.0, gate.bound);
    };
    let change = if base.median == 0.0 {
        0.0
    } else {
        (new.median - base.median) / base.median.abs()
    };
    let worsening = if gate.lower_is_better {
        change
    } else {
        -change
    };
    let spread = base
        .spread()
        .into_iter()
        .chain(new.spread())
        .fold(0.0, f64::max);
    let bound = pair_bound(gate, base);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, change, spread, bound)
}

/// The comparison table, and whether `new` regressed (a gated metric worse
/// by more than its bound, or a larger share of failed operations).
pub fn compare(contract: &Contract, base: &SummarySet, new: &SummarySet) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    for workload in &contract.workloads {
        let base_metrics = base.metrics.get(workload);
        let new_metrics = new.metrics.get(workload);
        for gate in &contract.end_to_end {
            let b = base_metrics.and_then(|m| m.get(&gate.name));
            let n = new_metrics.and_then(|m| m.get(&gate.name));
            let (verdict, change, spread, bound) = judge(gate, b, n);
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                workload,
                gate.name,
                b.map_or(f64::NAN, |s| s.median),
                n.map_or(f64::NAN, |s| s.median),
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                    Verdict::Missing => "missing",
                }
            );
        }
        let failed_base = base.failed_frac.get(workload).copied().unwrap_or(0.0);
        let failed_new = new.failed_frac.get(workload).copied().unwrap_or(0.0);
        if failed_new > failed_base {
            regressed = true;
            let _ = writeln!(
                out,
                "{workload:<12} failed_frac rose from {failed_base} to {failed_new}: REGRESSION"
            );
        }
        // Per-layer numbers have no bound; they are shown to explain.
        if let (Some(base_metrics), Some(new_metrics)) = (base_metrics, new_metrics) {
            for name in &contract.per_layer {
                if let (Some(b), Some(n)) = (base_metrics.get(name), new_metrics.get(name)) {
                    let _ = writeln!(
                        out,
                        "{:<12} {:<44} {:>14.4} {:>14.4} {}",
                        workload, name, b.median, n.median, n.unit
                    );
                }
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 8,
        "workloads": [{"name": "w", "why": "because"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "op_p99_us", "unit": "us", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "env.sync.count", "unit": "count", "better": "lower"}]
    }"#;

    fn runs(ops: &[f64], p99: &[f64], failed: u64) -> String {
        ops.iter()
            .zip(p99)
            .map(|(o, p)| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
                     \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\
                     \"ops_per_s\": {{\"value\": {o}, \"unit\": \"1/s\"}}, \
                     \"op_p99_us\": {{\"value\": {p}, \"unit\": \"us\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn contract_is_read() {
        let contract = Contract::parse(CONTRACT).unwrap();
        assert_eq!(contract.run_seconds, 8.0);
        assert_eq!(contract.workloads, ["w"]);
        assert_eq!(contract.per_layer, ["env.sync.count"]);
        assert!(!contract.end_to_end[0].lower_is_better);
        assert!(contract.end_to_end[1].lower_is_better);
        assert!(Contract::parse("{}").is_err());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let contract = Contract::parse(CONTRACT).unwrap();
        let base = load(&runs(&[100.0, 101.0, 99.0, 100.0, 100.5], &[10.0; 5], 0)).unwrap();
        let same = load(&runs(&[97.0, 98.0, 96.0, 97.0, 97.5], &[10.5; 5], 0)).unwrap();
        let (_, regressed) = compare(&contract, &base, &same);
        assert!(!regressed);

        // Throughput 20 % lower: regression. 20 % higher: fine.
        let slow = load(&runs(&[80.0, 81.0, 79.0, 80.0, 80.5], &[10.0; 5], 0)).unwrap();
        let fast = load(&runs(&[120.0, 121.0, 119.0, 120.0, 120.5], &[10.0; 5], 0)).unwrap();
        assert!(compare(&contract, &base, &slow).1);
        assert!(!compare(&contract, &base, &fast).1);
        // Latency 20 % higher: regression.
        let late = load(&runs(&[100.0; 5], &[12.0, 12.1, 11.9, 12.0, 12.0], 0)).unwrap();
        let (table, regressed) = compare(&contract, &base, &late);
        assert!(regressed && table.contains("REGRESSION"));

        // A side whose spread exceeds the bound cannot be judged.
        let noisy = load(&runs(&[60.0, 100.0, 80.0, 120.0, 70.0], &[10.0; 5], 0)).unwrap();
        let gate = &contract.end_to_end[0];
        let pick = |s: &SummarySet| s.metrics["w"]["ops_per_s"].clone();
        assert_eq!(
            judge(gate, Some(&pick(&base)), Some(&pick(&noisy))).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(gate, Some(&pick(&base)), None).0, Verdict::Missing);

        // More failed operations is a regression whatever the metrics say.
        let failing = load(&runs(&[100.0; 5], &[10.0; 5], 3)).unwrap();
        assert!(compare(&contract, &base, &failing).1);
    }

    #[test]
    fn the_bound_of_a_pair_follows_the_base_spread_up_to_the_contract() {
        let gate = Gate {
            name: "ops_per_s".to_string(),
            lower_is_better: false,
            bound: 0.25,
        };
        let with_spread = |iqr: f64| Summary {
            median: 100.0,
            quartiles: Some((100.0 - iqr / 2.0, 100.0 + iqr / 2.0)),
            runs: 10,
            unit: String::new(),
        };
        // Steady base: a tenth. 5 % spread: 15 %. 12 % spread: capped.
        assert_eq!(pair_bound(&gate, &with_spread(1.0)), 0.10);
        assert!((pair_bound(&gate, &with_spread(5.0)) - 0.15).abs() < 1e-12);
        assert_eq!(pair_bound(&gate, &with_spread(12.0)), 0.25);
        // A single run has no spread to go by.
        let single = Summary {
            quartiles: None,
            runs: 1,
            ..with_spread(0.0)
        };
        assert_eq!(pair_bound(&gate, &single), 0.25);
        // 12 % slower on a steady base is a regression although the
        // contract's bound is 25 %.
        let slower = Summary {
            median: 88.0,
            ..with_spread(1.0)
        };
        assert_eq!(
            judge(&gate, Some(&with_spread(1.0)), Some(&slower)).0,
            Verdict::Regression
        );
    }

    #[test]
    fn summary_round_trips() {
        let set = load(&runs(&[100.0, 102.0, 98.0], &[10.0, 11.0, 12.0], 0)).unwrap();
        let again = load(&summary_json(&set, "note")).unwrap();
        assert_eq!(set, again);
        assert_eq!(set.metrics["w"]["op_p99_us"].median, 11.0);
        assert_eq!(set.metrics["w"]["op_p99_us"].runs, 3);
        assert!(load("").is_err());
        assert!(load("{\"workload\": 3}").is_err());
    }
}
