//! `perfbench compare BASE NEW`: per (workload, metric), each side's median
//! and quartiles from two result sets (JSON lines written by `--out`). An
//! end-to-end metric that got worse beyond its `BENCHMARK.json` bound is
//! flagged; one whose spread on either side is wider than its bound is
//! unresolved unless every new run beats every base run.

use crate::stats::{median, quartiles, relative_spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Values per (workload, metric name).
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
    Unresolved,
    /// Per-layer metric or a side without samples: nothing to judge.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

fn specs_of(list: &Value, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let items = list
        .as_array()
        .ok_or("BENCHMARK.json: metric list missing")?;
    items
        .iter()
        .map(|item| {
            let name = item["name"].as_str().ok_or("metric without a name")?;
            Ok(MetricSpec {
                name: name.to_string(),
                unit: item["unit"].as_str().unwrap_or("").to_string(),
                lower_is_better: item["better"].as_str() == Some("lower"),
                bound: if bounded {
                    Some(item["bound"].as_f64().ok_or(format!("{name}: no bound"))?)
                } else {
                    None
                },
            })
        })
        .collect()
}

/// End-to-end then per-layer metric specs from `BENCHMARK.json` text.
pub fn parse_benchmark(text: &str) -> Result<Vec<MetricSpec>, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let mut specs = specs_of(&root["end_to_end"], true)?;
    specs.extend(specs_of(&root["per_layer"], false)?);
    Ok(specs)
}

/// Fold result-set lines (`{"run": {...}, "result": {...}}`) into values
/// per (workload, metric). Runs that were not correct are skipped: their
/// figures measure a broken program.
pub fn parse_results(text: &str, specs: &[MetricSpec]) -> ResultSet {
    let mut set = ResultSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(record) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let Some(workload) = record["run"]["workload"].as_str() else {
            continue;
        };
        let result = &record["result"];
        if result["correct"].as_bool() != Some(true) {
            continue;
        }
        for spec in specs {
            if let Some(v) = result["metrics"][spec.name.as_str()]["value"].as_f64() {
                set.entry((workload.to_string(), spec.name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    set
}

/// Judge `new` against `base` for one metric.
pub fn verdict(spec: &MetricSpec, base: &[f64], new: &[f64]) -> Verdict {
    let (Some(bound), Some(b), Some(n)) = (spec.bound, median(base), median(new)) else {
        return Verdict::Info;
    };
    let change = if b == 0.0 { 0.0 } else { (n - b) / b.abs() };
    let worse_by = if spec.lower_is_better {
        change
    } else {
        -change
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let wide = [base, new]
        .iter()
        .any(|side| relative_spread(side).is_none_or(|s| s > bound));
    let beats = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
    let all_better = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    match (wide, all_better) {
        (true, true) => Verdict::Better,
        (true, false) => Verdict::Unresolved,
        (false, _) if -worse_by > bound => Verdict::Better,
        (false, _) => Verdict::Ok,
    }
}

fn summary(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:>12.5} [{q1:.5}, {q3:.5}] n={}", values.len()),
        (Some(m), None) => format!("{m:>12.5} n={}", values.len()),
        _ => "no samples".to_string(),
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--benchmark" {
            benchmark = iter.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            paths.push(arg.clone());
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        return Err("compare takes two result sets".to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let specs = parse_benchmark(&read(&benchmark)?)?;
    let base = parse_results(&read(base_path)?, &specs);
    let new = parse_results(&read(new_path)?, &specs);

    let workloads: std::collections::BTreeSet<&String> =
        base.keys().chain(new.keys()).map(|(w, _)| w).collect();
    let mut flagged = 0;
    for workload in workloads {
        println!("== {workload}");
        for spec in &specs {
            let key = (workload.clone(), spec.name.clone());
            let (b, n) = (base.get(&key), new.get(&key));
            if b.is_none() && n.is_none() {
                continue;
            }
            let (b, n) = (
                b.map_or(&[][..], Vec::as_slice),
                n.map_or(&[][..], Vec::as_slice),
            );
            let v = verdict(spec, b, n);
            flagged += usize::from(v == Verdict::Worse);
            println!(
                "  {:<30} {:<6} base {:<40} new {:<40} {}",
                spec.name,
                spec.unit,
                summary(b),
                summary(n),
                v.label()
            );
        }
    }
    Ok(if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn flags_regressions_beyond_the_bound() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02];
        let slower = [1.2, 1.21, 1.19, 1.2, 1.22];
        assert_eq!(verdict(&spec(true, 0.1), &base, &slower), Verdict::Worse);
        assert_eq!(verdict(&spec(true, 0.1), &base, &base), Verdict::Ok);
        // Higher-is-better metrics regress downwards.
        assert_eq!(verdict(&spec(false, 0.1), &slower, &base), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let base = [1.0, 1.5, 0.6, 1.2, 0.8];
        let new = [1.05, 1.4, 0.7, 1.1, 0.9];
        assert_eq!(verdict(&spec(true, 0.1), &base, &new), Verdict::Unresolved);
        let per_layer = MetricSpec {
            bound: None,
            ..spec(true, 0.1)
        };
        assert_eq!(verdict(&per_layer, &base, &new), Verdict::Info);
    }

    #[test]
    fn reads_benchmark_specs_and_result_lines() {
        let bench = r#"{"end_to_end": [{"name": "study_s", "unit": "s", "better": "lower", "bound": 0.1}],
                        "per_layer": [{"name": "campaign.plan_s", "unit": "s", "better": "lower"}]}"#;
        let specs = parse_benchmark(bench).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].bound, Some(0.1));
        assert_eq!(specs[1].bound, None);
        let lines = concat!(
            r#"{"run": {"workload": "w"}, "result": {"correct": true, "metrics": {"study_s": {"value": 1.5, "unit": "s"}}}}"#,
            "\n",
            r#"{"run": {"workload": "w"}, "result": {"correct": false, "metrics": {"study_s": {"value": 9.0, "unit": "s"}}}}"#,
            "\n"
        );
        let set = parse_results(lines, &specs);
        assert_eq!(set[&("w".to_string(), "study_s".to_string())], vec![1.5]);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let specs = parse_benchmark(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared: Vec<(&str, &str)> = specs
            .iter()
            .map(|s| (s.name.as_str(), s.unit.as_str()))
            .collect();
        let emitted: Vec<(&str, &str)> = crate::workloads::END_TO_END
            .iter()
            .chain(crate::workloads::PER_LAYER.iter())
            .copied()
            .collect();
        assert_eq!(declared, emitted);
    }
}
