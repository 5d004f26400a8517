//! Synthesis-space explorer: sweep all six Table V methods over a set
//! of fields, print gate-level and post-flow metrics, and export the
//! proposed GF(2^8) design as BLIF.
//!
//! Run with: `cargo run --release --example synthesis_explorer [m n ...]`
//! (defaults to (8,2) and (64,23)).

use std::fs;
use std::path::PathBuf;

use rgf2m::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let fields: Vec<(usize, usize)> = if args.len() >= 2 {
        args.chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0], c[1]))
            .collect()
    } else {
        vec![(8, 2), (64, 23)]
    };

    // The full Table V registry, paper row order — and one shared
    // pipeline, so re-exploring a field hits the artifact cache.
    let pipeline = Pipeline::new();

    for (m, n) in fields {
        let penta = TypeIiPentanomial::new(m, n)?;
        let field = Field::from_pentanomial(&penta);
        println!("\n=== GF(2^{m}), f(y) = {penta} ===");
        println!(
            "{:<18} {:>5} {:>6} {:>10} | {:>6} {:>7} {:>6} {:>9} {:>11}",
            "method", "AND", "XOR", "gate delay", "LUTs", "Slices", "depth", "Time(ns)", "AxT"
        );
        let mut best: Option<(String, f64)> = None;
        for method in Method::ALL {
            let net = generate(&field, method);
            let s = net.stats();
            let r = pipeline.run_report(&net)?;
            let axt = r.area_time();
            println!(
                "{:<18} {:>5} {:>6} {:>10} | {:>6} {:>7} {:>6} {:>9.2} {:>11.2}",
                format!("{} {}", method.citation(), method.name()),
                s.ands,
                s.xors,
                s.depth.to_string(),
                r.luts,
                r.slices,
                r.depth,
                r.time_ns,
                axt
            );
            if best.as_ref().is_none_or(|(_, b)| axt < *b) {
                best = Some((method.name().to_string(), axt));
            }
        }
        if let Some((name, axt)) = best {
            println!("A×T winner: {name} ({axt:.2})");
        }
    }

    // Export the proposed GF(2^8) multiplier as BLIF.
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
    let net = generate(&field, Method::ProposedFlat);
    let dir = PathBuf::from("target/rgf2m-exports");
    fs::create_dir_all(&dir)?;
    let path = dir.join("mul_proposed_m8.blif");
    fs::write(&path, net.to_blif())?;
    println!(
        "\nexported the proposed GF(2^8) multiplier to {} (BLIF, ready for an external flow)",
        path.display()
    );
    Ok(())
}
