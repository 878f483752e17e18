//! `perfbench`: the study's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench all [--seed N] [--seconds S] [--out FILE]
//! perfbench compare BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! A run measures one workload for at least `S` seconds (closed loop: the
//! next study or wave starts when the previous one ends) and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the traced
//! layer run with `--trace 1`. A failed or mismatching operation makes the
//! exit code non-zero. `all` runs every workload, traced and untraced, each
//! in its own process, and prints a table; `compare` reads two result sets
//! written with `--out` and prints per (workload, metric) medians and
//! quartiles, flagging regressions beyond the bounds in `BENCHMARK.json`.

mod checks;
mod compare;
mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use workloads::{END_TO_END, PER_LAYER, WORKERS, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <standard_report|paper_eighth|journaled_waves> \
--seed N --seconds S --trace 0|1 [--out FILE]\n       perfbench all [--seed N] [--seconds S] \
[--out FILE]\n       perfbench compare BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("all") => run_all(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; every flag takes exactly one value.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("flags come in pairs: {args:?}"));
    }
    args.chunks(2)
        .map(|pair| match pair[0].strip_prefix("--") {
            Some(name) => Ok((name.to_string(), pair[1].clone())),
            None => Err(format!("unexpected argument {:?}", pair[0])),
        })
        .collect()
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parse_u64(flags: &[(String, String)], name: &str, default: Option<u64>) -> Result<u64, String> {
    match (flag(flags, name), default) {
        (Some(v), _) => v
            .parse()
            .map_err(|_| format!("--{name} needs a whole number, got {v:?}")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("--{name} is required")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    for (name, _) in &flags {
        if !["workload", "seed", "seconds", "trace", "out"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let workload = flag(&flags, "workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = parse_u64(&flags, "seed", None)?;
    let seconds = parse_u64(&flags, "seconds", None)?;
    let trace = match parse_u64(&flags, "trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };

    let host = host::HostInfo::probe();
    let result = workloads::run(workload, seed, seconds, trace)?;
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let correct = result.tally.all_passed();
    for error in &result.tally.errors {
        eprintln!("perfbench: FAILED {error}");
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.tally.attempted,
        result.tally.failed,
        metrics.join(", ")
    );
    let context = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
\"threads\": {WORKERS}, \"host_cpus\": {}, \"cpu_model\": \"{}\", \"mem_total_mb\": {}, \
\"commit\": \"{}\"}}",
        u8::from(trace),
        host.cpus,
        host.cpu_model.replace('"', "'"),
        host.mem_total_mb,
        host.commit
    );
    if let Some(path) = flag(&flags, "out") {
        let record = format!("{{\"run\": {context}, \"result\": {line}}}\n");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    println!("{context}");
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in its own process (VmHWM
/// is a process-lifetime high-water mark). Prints every metric with its
/// unit per workload.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let seed = parse_u64(&flags, "seed", Some(1))?;
    let seconds = parse_u64(&flags, "seconds", Some(20))?;
    let out = flag(&flags, "out")
        .unwrap_or(".perfbench/results.jsonl")
        .to_string();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    trace,
                    "--out",
                    &out,
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            println!("== {workload} (trace {trace}, {})", output.status);
            print_metrics(last);
        }
    }
    println!("results appended to {out}");
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_metrics(line: &str) {
    let Ok(value) = serde_json::from_str::<serde_json::Value>(line) else {
        println!("   (no result line)");
        return;
    };
    println!(
        "   correct {} attempted {} failed {}",
        value["correct"].as_bool().unwrap_or(false),
        value["attempted"].as_u64().unwrap_or(0),
        value["failed"].as_u64().unwrap_or(0)
    );
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let metric = &value["metrics"][*name];
        if let Some(v) = metric["value"].as_f64() {
            println!(
                "   {name:<32} {v:>16.6} {}",
                metric["unit"].as_str().unwrap_or("")
            );
        }
    }
}
