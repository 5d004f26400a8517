//! Structural lint (and optional formal verification) for the
//! generated multiplier netlists, at both netlist levels: the
//! gate-level design straight out of the generator and the mapped
//! LUT netlist the pipeline produces for a target fabric.
//!
//! Run `lint_netlist --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag exits 1 before
//! any work.
//!
//! Exits nonzero if any design has lint *errors* (warnings are
//! printed but tolerated unless `--deny-warnings` is given) or, with
//! `--formal`, if any algebraic verification fails. This is the CI
//! gate for netlist hygiene.

use netlist::LintReport;
use rgf2m_bench::{cli, field_for, harness_pipeline};
use rgf2m_core::{gen::generate, multiplier_spec, Method};
use rgf2m_fpga::{lint_mapped, Target};
use rgf2m_serve::json::json_string;

/// Renders one lint pass as a `rgf2m-lint/1` record: the design, the
/// level (`"gate"` or `"mapped:<target>"`) and every finding with its
/// severity, kebab-case kind, anchor index and message.
fn json_record(design: &str, level: &str, lint: &LintReport) -> String {
    let mut s = format!(
        "    {{\"design\": {}, \"level\": {}, \"errors\": {}, \"warnings\": {}, \"findings\": [",
        json_string(design),
        json_string(level),
        lint.errors(),
        lint.warnings()
    );
    for (i, f) in lint.findings().iter().enumerate() {
        s.push_str(&format!(
            "\n      {{\"severity\": {}, \"kind\": {}, \"node\": {}, \"message\": {}}}",
            json_string(f.severity().name()),
            json_string(f.kind.name()),
            f.node,
            json_string(&f.message)
        ));
        if i + 1 < lint.findings().len() {
            s.push(',');
        }
    }
    if !lint.findings().is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]}");
    s
}

fn main() {
    let args = cli::LINT_NETLIST.parse();
    let (m, n) = args.pair("--only").unwrap_or((8, 2));
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
    let formal = args.has("--formal");
    let deny_warnings = args.has("--deny-warnings");
    let json_path = args.value("--json");

    let field = field_for(m, n);
    let spec = multiplier_spec(&field);
    let mut failures = 0usize;
    let mut records: Vec<String> = Vec::new();
    // With --deny-warnings, warnings count as failures too.
    let check = |lint: &LintReport, failures: &mut usize| {
        if lint.has_errors() || (deny_warnings && lint.warnings() > 0) {
            *failures += 1;
        }
    };

    println!(
        "linting GF(2^{m}) (n = {n}): {} method(s) x {} target(s){}",
        methods.len(),
        targets.len(),
        if formal {
            ", with formal verification"
        } else {
            ""
        }
    );
    println!();

    for method in &methods {
        let net = generate(&field, *method);

        // Gate level: lint once per method (target-independent).
        let gate_lint = netlist::lint_netlist(&net);
        println!(
            "  {:<14} gate level:   {}",
            method.name(),
            gate_lint.summary()
        );
        for finding in gate_lint.findings() {
            println!("    {finding}");
        }
        check(&gate_lint, &mut failures);
        records.push(json_record(net.name(), "gate", &gate_lint));
        if formal {
            let pipeline = harness_pipeline();
            match pipeline.verify_formal(&spec, &net) {
                Ok(()) => println!("    formal: all {m} output cones match the spec"),
                Err(e) => {
                    failures += 1;
                    println!("    formal: FAILED — {e}");
                }
            }
        }

        // Mapped level: one lint (and optional formal check) per fabric.
        for target in &targets {
            let pipeline = harness_pipeline().with_target(*target);
            let artifacts = match pipeline.run(&net) {
                Ok(a) => a,
                Err(e) => {
                    failures += 1;
                    println!("    [{:<9}] flow FAILED — {e}", target.name());
                    continue;
                }
            };
            let mapped_lint = lint_mapped(&artifacts.mapped);
            println!(
                "    [{:<9}] mapped ({} LUTs): {}",
                target.name(),
                artifacts.mapped.num_luts(),
                mapped_lint.summary()
            );
            for finding in mapped_lint.findings() {
                println!("      {finding}");
            }
            check(&mapped_lint, &mut failures);
            records.push(json_record(
                net.name(),
                &format!("mapped:{}", target.name()),
                &mapped_lint,
            ));
            if formal {
                match pipeline.verify_formal_mapped(&spec, &artifacts.mapped) {
                    Ok(()) => println!("      formal: mapped netlist matches the spec"),
                    Err(e) => {
                        failures += 1;
                        println!("      formal: FAILED — {e}");
                    }
                }
            }
        }
        println!();
    }

    if let Some(path) = json_path {
        let doc = format!(
            "{{\n  \"schema\": \"rgf2m-lint/1\",\n  \"m\": {m}, \"n\": {n},\n  \"records\": [\n{}\n  ]\n}}\n",
            records.join(",\n")
        );
        std::fs::write(path, &doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path} ({} bytes)", doc.len());
    }

    if failures > 0 {
        eprintln!("{failures} design(s) failed lint/formal checks");
        std::process::exit(1);
    }
    println!("all designs clean");
}
