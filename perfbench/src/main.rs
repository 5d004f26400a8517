//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow-cold|audit|serve-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! seconds, checks every output, prints every metric by name with its
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). `GLOSSARY.md` defines every metric.

mod audit;
mod common;
mod flow;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use rgf2m_serve::json::{json_string, parse_json, JsonValue};

use common::{Config, Outcome};

const USAGE: &str = "usage: perfbench --workload <flow-cold|audit|serve-warm> --seed <n> --seconds <s> --trace <0|1>";

/// The committed per-layer baseline: traced runs of the seed code.
const BASELINE: &str = include_str!("../baseline.json");

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let value = |key: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let target_dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok((
        workload,
        Config {
            seed,
            seconds: f64::from(seconds),
            trace,
            out_dir: target_dir.join("perfbench"),
        },
    ))
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown".into()
    } else {
        resolved.to_string()
    }
}

fn provenance(workload: &str, cfg: &Config) -> String {
    format!(
        "{{\"commit\": {}, \"available_parallelism\": {}, \"rustc\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_string(&commit()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace
    )
}

/// Prints the traced metrics next to the committed baseline values.
fn compare_with_baseline(workload: &str, out: &Outcome) {
    let Ok(doc) = parse_json(BASELINE) else {
        return;
    };
    let Some(base) = doc.get("per_layer").and_then(|w| w.get(workload)) else {
        return;
    };
    for (name, unit) in metrics::per_layer() {
        let (Some(b), Some(&v)) = (
            base.get(&name).and_then(JsonValue::as_f64),
            out.metrics.get(&name),
        ) else {
            continue;
        };
        if b != 0.0 || v != 0.0 {
            println!("baseline {name} = {b} {unit} (now {v})");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let provenance = provenance(&workload, &cfg);
    let outcome = match workload.as_str() {
        "flow-cold" => flow::run(&cfg),
        "audit" => audit::run(&cfg),
        "serve-warm" => serve::run(&cfg),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("provenance {provenance}");
    for note in &out.notes {
        println!("{note}");
    }
    for problem in &out.problems {
        println!("FAILED {problem}");
    }
    let listed: Vec<(String, &str)> = if cfg.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in &listed {
        // A layer the workload does not call reads 0; every end-to-end
        // metric is set by every workload.
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("perfbench: {name} is {v}; reported as 0");
                0.0
            }
            None if cfg.trace => 0.0,
            None => panic!("workload {workload} did not set {name}"),
        };
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    if cfg.trace {
        compare_with_baseline(&workload, &out);
        let path = cfg
            .out_dir
            .join(format!("trace-{workload}-{}.jsonl", cfg.seed));
        let header = format!("{{\"provenance\": {provenance}}}");
        match trace::write_jsonl(&path, &header, &out.spans) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
