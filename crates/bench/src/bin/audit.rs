//! The unified static-analysis gate: runs every static certificate
//! (structural lint, formal verification, the Table V depth and area
//! certificates, the strash sharing certificate and the mapped formal
//! check) over a Method × Target grid and exits nonzero on any
//! violation.
//!
//! Run `audit --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag exits 1 before
//! any work.
//!
//! This single invocation is the CI static-analysis step and the only
//! driver of these certificates.

use rgf2m_bench::{audit_to_json, cli, run_audit, AuditOptions, Fault};

fn main() {
    let args = cli::AUDIT.parse();
    let (m, n) = args.field();
    let methods = args.methods();
    let targets = args.targets();
    let fault = args.value("--inject").map(|name| {
        Fault::from_name(name).unwrap_or_else(|| {
            args.fail(&format!(
                "unknown fault {name:?} (redundant-gate | truth-fault)"
            ))
        })
    });

    let json = args.report("--json");

    let report = run_audit(&AuditOptions {
        m,
        n,
        methods,
        targets,
        fault,
    });
    print!("{report}");

    if let Some(json) = json {
        let (path, doc) = (json.path, audit_to_json(&report));
        json.write(&doc);
        println!("wrote {path} ({} bytes)", doc.len());
    }

    if let Some(fault) = fault {
        println!("(fault {:?} injected on purpose)", fault.name());
    }
    let violations = report.violations();
    if violations > 0 {
        eprintln!("{violations} certificate(s) violated");
        std::process::exit(1);
    }
    println!("all static certificates hold");
}
