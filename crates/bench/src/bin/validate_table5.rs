//! Schema-validates a `rgf2m-table5/5` JSON artifact (as emitted by
//! `table5 --json PATH`, on one fabric or `--all-targets`): schema tag,
//! non-empty whole six-method blocks in the paper's row order, a
//! registered target fabric uniform within each block, positive LUTs /
//! slices / depth / ns plus a positive `and_depth` / `xor_depth` pair,
//! a positive `and_gates` / `xor_gates` pair with a non-negative
//! `dedup_saved` strash dividend, and a non-negative (up to float
//! noise) `worst_slack_ns` on every row.
//!
//! Usage:
//!   validate_table5 PATH    # exit 0 and print a summary, or exit 1
//!
//! Any other command line (no path, or more than one argument) prints
//! the usage and exits 2.
//!
//! CI runs the batch runner on GF(2^8) for all six methods (on two
//! targets one at a time, then on every target at once) and then this
//! validator, so the machine-readable export can never silently rot.

use rgf2m_bench::validate_table5_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = &args[..] else {
        eprintln!("usage: validate_table5 PATH");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_table5: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match validate_table5_json(&text) {
        Ok(summary) => println!("{path}: OK — {summary}"),
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
