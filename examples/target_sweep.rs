//! One method, every fabric: sweep the paper's proposed multiplier
//! across the whole `Target` registry and watch area/depth/time respond
//! to the LUT width and slice capacity.
//!
//! Run with:
//!     cargo run --release --example target_sweep

use rgf2m::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's GF(2^8) field and its proposed flat multiplier.
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
    let net = generate(&field, Method::ProposedFlat);

    println!("proposed multiplier for GF(2^8) across the target registry:");
    println!(
        "  {:<12} {:>2} {:>11} {:>6} {:>7} {:>6} {:>9} {:>9}",
        "target", "k", "LUTs/slice", "LUTs", "Slices", "depth", "Time(ns)", "AxT"
    );
    for target in Target::ALL {
        // One knob per fabric: with_target re-derives the device model,
        // the mapper's LUT width and the slice capacity together.
        let pipeline = Pipeline::new().with_target(target);
        let r = pipeline.run_report(&net)?;
        println!(
            "  {:<12} {:>2} {:>11} {:>6} {:>7} {:>6} {:>9.2} {:>9.2}",
            target.name(),
            target.lut_inputs(),
            target.luts_per_slice(),
            r.luts,
            r.slices,
            r.depth,
            r.time_ns,
            r.area_time()
        );
    }
    println!();
    println!("reading: the k = 4 fabric pays extra LUT levels for the same");
    println!("XOR network; the 8-input ALM collapses it into fewer, wider");
    println!("levels. Constants are calibrated on artix7 and scaled for the");
    println!("other families, so compare trends, not absolute ns.");
    Ok(())
}
