//! Reverse-engineers the field parameters from anonymized multiplier
//! netlists: strips every name from the generated design, recovers
//! `m` and the reduction polynomial `f(y)` purely from the gate
//! structure, and checks the recovery against the field the netlist
//! was actually generated for.
//!
//! Run `reveng --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag exits 1 before
//! any work.
//!
//! Exits nonzero if any recovery fails or disagrees with the source
//! field. Because the recovered modulus is cross-checked against a
//! full `ReductionMatrix` rebuild, a passing run is a certificate
//! that the netlist implements *some* GF(2^m) multiplier — and names
//! which one.

use rgf2m_bench::{cli, field_for};
use rgf2m_core::{anonymize, gen::generate, reverse_engineer, Method};

fn main() {
    let args = cli::REVENG.parse();
    let fields = args.table_v_fields();
    let methods: Vec<Method> = if args.has("--all-methods") {
        Method::ALL.to_vec()
    } else {
        vec![Method::ProposedFlat]
    };

    let mut failures = 0usize;
    for &(m, n) in &fields {
        let field = field_for(m, n);
        for method in &methods {
            let net = generate(&field, *method);
            let anon = anonymize(&net);
            match reverse_engineer(&anon) {
                Ok(rec) => {
                    let modulus_ok = rec.m == m && rec.modulus == *field.modulus();
                    let verdict = if modulus_ok { "ok" } else { "WRONG FIELD" };
                    println!(
                        "  ({m:>3},{n:>2}) {:<14} -> {rec}  [{verdict}]",
                        method.name()
                    );
                    if !modulus_ok {
                        failures += 1;
                        eprintln!(
                            "    expected f = {}, recovered f = {}",
                            field.modulus(),
                            rec.modulus
                        );
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!("  ({m:>3},{n:>2}) {:<14} -> FAILED: {e}", method.name());
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} recovery failure(s)");
        std::process::exit(1);
    }
    println!(
        "recovered every modulus from structure alone ({} field(s) x {} method(s))",
        fields.len(),
        methods.len()
    );
}
