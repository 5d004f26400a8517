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

use std::fs::File;
use std::io::Write as _;

use gf2poly::TypeIiPentanomial;
use rgf2m_bench::{audit_to_json, cli, run_audit, AuditOptions, Fault};
use rgf2m_core::Method;
use rgf2m_fpga::Target;

fn main() {
    let args = cli::AUDIT.parse();
    let (m, n) = args.pair("--only").unwrap_or((8, 2));
    if let Err(e) = TypeIiPentanomial::new(m, n) {
        args.fail(&format!("--only {m},{n} names no type II pentanomial: {e}"));
    }
    let methods: Vec<Method> = match args.value("--method") {
        Some(name) => vec![Method::from_name(name)
            .unwrap_or_else(|| args.fail(&format!("unknown method {name:?} (see Method::name)")))],
        None => Method::ALL.to_vec(),
    };
    let parse_target = |name: &str| {
        Target::from_name(name).unwrap_or_else(|| {
            args.fail(&format!("unknown target {name:?} (see Target::from_name)"))
        })
    };
    let targets: Vec<Target> = if args.has("--all-targets") {
        Target::ALL.to_vec()
    } else if let Some(list) = args.value("--targets") {
        list.split(',').map(|t| parse_target(t.trim())).collect()
    } else {
        vec![parse_target(args.value("--target").unwrap_or("artix7"))]
    };
    let fault = args.value("--inject").map(|name| {
        Fault::from_name(name).unwrap_or_else(|| {
            args.fail(&format!(
                "unknown fault {name:?} (redundant-gate | truth-fault)"
            ))
        })
    });

    // The report path is opened before the first certificate runs, so
    // one that cannot be written fails the run before it spends any time.
    let json = args.value("--json").map(|path| {
        let file =
            File::create(path).unwrap_or_else(|e| cli::die(&format!("cannot write {path}: {e}")));
        (path, file)
    });

    let report = run_audit(&AuditOptions {
        m,
        n,
        methods,
        targets,
        fault,
    });
    print!("{report}");

    if let Some((path, mut file)) = json {
        let doc = audit_to_json(&report);
        file.write_all(doc.as_bytes())
            .unwrap_or_else(|e| cli::die(&format!("cannot write {path}: {e}")));
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
