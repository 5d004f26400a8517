//! Regenerates the content of Table III of the paper: the coefficients
//! of the GF(2^8) product with splitting and *parenthesised* same-level
//! pairing (\[7\]), plus the complexity figures the paper derives from
//! it (64 AND gates, delay T_A + 5T_X).
//!
//! Note: the exact textual grouping of \[7\]'s Table III
//! depends on that paper's scheduling choices; we print the schedule our
//! deterministic same-level (Huffman) pairing produces, which achieves
//! the same delay bound. The gate-level claims are asserted by tests.

use rgf2m_bench::field_for;
use rgf2m_core::{generate, FlatCoefficientTable, Method};

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    let field = field_for(8, 2);
    println!("TABLE III");
    println!("COEFFICIENTS OF THE PRODUCT FOR GF(2^8) WITH SPLITTING");
    println!("(same-level parenthesised pairing, method of [7]).");
    println!();
    let table = FlatCoefficientTable::new(&field);
    for k in 0..8 {
        let atoms = table.atoms(k);
        // Show the pairing schedule: atoms grouped by level, lowest
        // level paired first (the discipline Table III encodes with
        // parentheses).
        let mut by_level: Vec<Vec<String>> = Vec::new();
        for a in atoms {
            if by_level.len() <= a.level() {
                by_level.resize(a.level() + 1, Vec::new());
            }
            by_level[a.level()].push(a.name());
        }
        let schedule: Vec<String> = by_level
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(lvl, v)| format!("level {lvl}: {}", v.join(" + ")))
            .collect();
        println!(
            "c{k} = {}",
            atoms
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(" + ")
        );
        println!("      pairing {}", schedule.join(" | "));
    }
    println!();
    let net = generate(&field, Method::Imana2016);
    let stats = net.stats();
    println!(
        "Gate-level complexity of the parenthesised multiplier: {} AND, {} XOR, delay {}",
        stats.ands, stats.xors, stats.depth
    );
    println!("Paper's analysis: 64 AND, 87 XOR, delay TA + 5TX.");
}
