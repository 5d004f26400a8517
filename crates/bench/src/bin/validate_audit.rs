//! Schema-validates a `rgf2m-audit/1` JSON artifact (as emitted by
//! `audit --json PATH`): schema tag, positive field shape, a non-empty
//! Method × Target cell grid where every cell names a registered
//! method (with its paper citation) and target and carries the full
//! canonical check set (`lint`, `formal`, `depth`, `area`, `strash`,
//! `mapped`) in order, with the per-cell `ok` and the top-level
//! `violations` count consistent with the individual checks.
//!
//! Usage:
//!   validate_audit PATH    # exit 0 and print a summary, or exit 1
//!
//! Any other command line (no path, or more than one argument) prints
//! the usage and exits 2.
//!
//! CI runs `audit` on GF(2^8) and then this validator on both the
//! freshly emitted document and the committed sample, so the
//! machine-readable audit export can never silently rot.

use rgf2m_bench::validate_audit_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = &args[..] else {
        eprintln!("usage: validate_audit PATH");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_audit: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match validate_audit_json(&text) {
        Ok(summary) => println!("{path}: OK — {summary}"),
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
