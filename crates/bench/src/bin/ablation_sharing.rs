//! Ablation: what does sub-expression *sharing* buy at the gate level?
//!
//! The paper remarks (§II) that repeated terms "could be shared,
//! therefore reducing the space requirements". Our builders share
//! through hash-consing; this ablation quantifies the effect by
//! comparing gate counts of the six methods — which differ exactly in
//! how much structure they share — plus the naive `school` reference.

use netlist::Netlist;
use rgf2m_baselines::school;
use rgf2m_bench::field_for;
use rgf2m_core::{generate, Method};

fn stats_line(name: &str, net: &Netlist) {
    let s = net.stats();
    println!(
        "  {:<22} {:>6} {:>6} {:>9} {:>11}",
        name,
        s.ands,
        s.xors,
        s.depth.to_string(),
        s.max_fanout
    );
}

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    println!("ABLATION — gate-level sharing across methods");
    println!();
    for (m, n) in [(8usize, 2usize), (64, 23), (113, 34)] {
        let field = field_for(m, n);
        println!("field ({m},{n}):");
        println!(
            "  {:<22} {:>6} {:>6} {:>9} {:>11}",
            "method", "AND", "XOR", "delay", "max fanout"
        );
        for method in Method::ALL {
            stats_line(
                &format!("{} {}", method.citation(), method.name()),
                &generate(&field, method),
            );
        }
        stats_line("(reference) school", &school(&field));
        println!();
    }
    println!("Reading: AND counts are identical (m^2, fully shared products);");
    println!("XOR counts and fanout expose each method's sharing strategy —");
    println!("[8] shares nothing above the products (most XORs, fanout 1 on");
    println!("internal nodes), [3]/[6] share d_k / S_i/T_i units, [7] shares");
    println!("split atoms and pair nodes, the proposed method shares atoms only.");
}
