//! Full static timing analysis of the placed multiplier netlists:
//! per-endpoint slack, the slack histogram and top-K critical path
//! traces (input pad → LUT chain → output pad) per method × target.
//!
//! Run `sta --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag exits 1 before
//! any work.
//!
//! Exits nonzero if any design misses its required time (negative
//! slack). The paper's delay formulas are certified by `audit`'s
//! `depth` check, which needs no placement.

use gf2poly::TypeIiPentanomial;
use rgf2m_bench::{cli, field_for, harness_pipeline};
use rgf2m_core::{gen::generate, Method};
use rgf2m_fpga::{analyze_sta, StaOptions, Target};

fn main() {
    let args = cli::STA.parse();
    let (m, n) = args.pair("--only").unwrap_or((8, 2));
    if let Err(e) = TypeIiPentanomial::new(m, n) {
        args.fail(&format!("--only {m},{n} names no type II pentanomial: {e}"));
    }
    let methods: Vec<Method> = match args.value("--method") {
        Some(name) => vec![Method::from_name(name)
            .unwrap_or_else(|| args.fail(&format!("unknown method {name:?} (see Method::name)")))],
        None => Method::ALL.to_vec(),
    };
    let targets: Vec<Target> = if args.has("--all-targets") {
        Target::ALL.to_vec()
    } else {
        let name = args.value("--target").unwrap_or("artix7");
        vec![Target::from_name(name).unwrap_or_else(|| {
            args.fail(&format!("unknown target {name:?} (see Target::from_name)"))
        })]
    };
    let target_ns: Option<f64> = args.parsed("--target-ns");
    if let Some(t) = target_ns.filter(|t| !t.is_finite()) {
        args.fail(&format!(
            "--target-ns must be a finite number of ns, got {t}"
        ));
    }
    let options = StaOptions {
        target_ns,
        max_paths: args.parsed("--paths").unwrap_or(2),
        ..StaOptions::default()
    };

    let field = field_for(m, n);
    let mut failures = 0usize;

    println!(
        "STA over GF(2^{m}) (n = {n}): {} method(s) x {} target(s), {} path(s) each",
        methods.len(),
        targets.len(),
        options.max_paths
    );
    println!();

    for method in &methods {
        let net = generate(&field, *method);
        println!("  {:<14} ({})", method.name(), method.citation());

        for target in &targets {
            let pipeline = harness_pipeline().with_target(*target);
            let artifacts = match pipeline.run(&net) {
                Ok(a) => a,
                Err(e) => {
                    failures += 1;
                    println!("    [{:<11}] flow FAILED — {e}", target.name());
                    continue;
                }
            };
            let sta = analyze_sta(
                &artifacts.mapped,
                &artifacts.packing,
                &artifacts.placement,
                pipeline.device(),
                &options,
            );
            let tied = if sta.critical_outputs.len() > 1 {
                format!(" ({} outputs tied)", sta.critical_outputs.len())
            } else {
                String::new()
            };
            println!(
                "    [{:<11}] critical {:.4} ns via {}{tied}, target {:.4} ns, worst slack {:+.4} ns",
                target.name(),
                sta.critical_ns,
                sta.critical_output,
                sta.target_ns,
                sta.worst_slack_ns
            );
            if sta.worst_slack_ns < -1e-9 {
                failures += 1;
                println!("      TIMING FAILED: required time missed");
            }
            print!("{}", indent(&sta.histogram.to_string(), "    "));
            for path in &sta.paths {
                print!("{}", indent(&path.to_string(), "      "));
            }
        }
        println!();
    }

    if failures > 0 {
        eprintln!("{failures} design(s) failed the flow or missed timing");
        std::process::exit(1);
    }
    println!("all designs meet their required times");
}

/// Prefixes every non-empty line of a multi-line display with `pad`.
fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .map(|l| {
            if l.is_empty() {
                String::from("\n")
            } else {
                format!("{pad}{l}\n")
            }
        })
        .collect()
}
