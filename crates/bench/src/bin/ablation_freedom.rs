//! Ablation: how much of the proposed method's advantage comes from
//! *synthesiser freedom*?
//!
//! The paper's §IV argues that the parenthesised restrictions of \[7\]
//! prevent the synthesis tool from mapping the XOR network well. We
//! isolate that mechanism along two axes:
//!
//! * resynthesis on/off — may the tool re-associate XOR clusters?
//! * mapper mode Free / FanoutPreserving — may cones absorb (duplicate)
//!   shared nodes?
//!
//! Run on (8,2) and (64,23) for both the parenthesised \[7\] netlists and
//! the flat proposed netlists.

use rgf2m_bench::field_for;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::MapMode;
use rgf2m_fpga::Pipeline;

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    println!("ABLATION — synthesis freedom (resynthesis × mapper mode)");
    println!();
    for (m, n) in [(8usize, 2usize), (64, 23)] {
        let field = field_for(m, n);
        println!("field ({m},{n}):");
        println!(
            "  {:<12} {:<22} {:>6} {:>7} {:>6} {:>9}",
            "netlist", "flow", "LUTs", "Slices", "depth", "Time(ns)"
        );
        for (label, method) in [
            ("[7] paren", Method::Imana2016),
            ("flat (new)", Method::ProposedFlat),
        ] {
            let net = generate(&field, method);
            for (flow_label, resynth, mode) in [
                ("resynth+free", true, MapMode::Free),
                ("resynth+fanout-pres.", true, MapMode::FanoutPreserving),
                ("structural+free", false, MapMode::Free),
                ("structural+fanout-pres.", false, MapMode::FanoutPreserving),
            ] {
                let pipeline = Pipeline::new()
                    .with_resynthesis(resynth)
                    .with_map_mode(mode);
                let r = pipeline
                    .run_report(&net)
                    .unwrap_or_else(|e| panic!("({m},{n}) {label} {flow_label}: {e}"));
                println!(
                    "  {:<12} {:<22} {:>6} {:>7} {:>6} {:>9.2}",
                    label, flow_label, r.luts, r.slices, r.depth, r.time_ns
                );
            }
        }
        println!();
    }
    println!("Reading: the flat netlist under 'resynth+free' is the paper's");
    println!("proposed configuration; '[7] paren' under restrictive flows");
    println!("models the behaviour the paper attributes to XST on Table III.");
}
