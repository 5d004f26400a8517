//! Schema-validates a JSON artifact of the bench binaries, dispatching
//! on its `schema` tag:
//!
//! * `rgf2m-table5/5` (`table5 --json PATH`, on one fabric or
//!   `--all-targets`): non-empty whole six-method blocks in the paper's
//!   row order, a registered target fabric uniform within each block,
//!   positive LUTs / slices / depth / ns plus a positive `and_depth` /
//!   `xor_depth` pair, a positive `and_gates` / `xor_gates` pair with a
//!   non-negative `dedup_saved` strash dividend, and a non-negative (up
//!   to float noise) `worst_slack_ns` on every row;
//! * `rgf2m-audit/1` (`audit --json PATH`): positive field shape, a
//!   non-empty Method × Target cell grid where every cell names a
//!   registered method (with its paper citation) and target and carries
//!   the full canonical check set (`lint`, `formal`, `depth`, `area`,
//!   `strash`, `mapped`) in order, with the per-cell `ok` and the
//!   top-level `violations` count consistent with the individual checks.
//!
//! Usage:
//!   validate PATH    # exit 0 and print a summary, or exit 1
//!
//! Any other command line (no path, or more than one argument), an
//! unreadable file and a document of any other schema exit 1.
//!
//! CI runs the batch runner and the audit on GF(2^8) and then this
//! validator on every emitted document and the committed audit sample,
//! so the machine-readable exports can never silently rot.

use rgf2m_bench::{validate_audit_json, validate_table5_json, AUDIT_SCHEMA, TABLE5_SCHEMA};
use rgf2m_serve::json::{parse_json, JsonValue};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = &args[..] else {
        eprintln!("usage: validate PATH");
        std::process::exit(1);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let verdict =
        parse_json(&text).and_then(|doc| match doc.get("schema").and_then(JsonValue::as_str) {
            Some(TABLE5_SCHEMA) => validate_table5_json(&text),
            Some(AUDIT_SCHEMA) => validate_audit_json(&text),
            Some(other) => Err(format!(
                "schema {other:?}, expected {TABLE5_SCHEMA:?} or {AUDIT_SCHEMA:?}"
            )),
            None => Err("missing \"schema\"".to_string()),
        });
    match verdict {
        Ok(summary) => println!("{path}: OK — {summary}"),
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
