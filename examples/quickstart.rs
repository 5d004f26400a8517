//! Quickstart: build the paper's GF(2^8) field, generate the proposed
//! multiplier, verify it, and push it through the FPGA flow.
//!
//! Run with: `cargo run --release --example quickstart`

use rgf2m::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper's field: GF(2^8) with f(y) = y^8 + y^4 + y^3 + y^2 + 1,
    //    the type II pentanomial (m, n) = (8, 2).
    let penta = TypeIiPentanomial::new(8, 2)?;
    let field = Field::from_pentanomial(&penta);
    println!("field: GF(2^8) with f(y) = {}", field.modulus());

    // 2. Software multiplication (the oracle).
    let a = field.element_from_bits(0x57);
    let b = field.element_from_bits(0x83);
    let c = field.mul(&a, &b);
    println!("0x57 * 0x83 = {:#04x} (in this field)", to_bits(&c));

    // 3. The paper's Table I and Table IV, derived on the fly.
    println!("\nTable I (coefficients as S/T sums):");
    print!("{}", CoefficientTable::new(&field));
    println!("Table IV (flat split-atom sums — the proposed form):");
    print!("{}", FlatCoefficientTable::new(&field));

    // 4. Generate all six Table V multipliers from the unified registry
    //    (paper row order) and compare.
    println!("\ngate-level multipliers:");
    for method in Method::ALL {
        let net = generate(&field, method);
        let s = net.stats();
        println!(
            "  {:<10} {:<14} {:>3} AND, {:>3} XOR, delay {}",
            method.citation(),
            method.name(),
            s.ands,
            s.xors,
            s.depth
        );
    }

    // 5. Verify the proposed netlist against the oracle (all 65 536
    //    input pairs) and run the FPGA flow.
    let net = generate(&field, Method::ProposedFlat);
    let oracle = |w: &[u64]| field.mul_words(w);
    let check = netlist::sim::check_against_oracle_exhaustive(&net, oracle);
    println!(
        "\nexhaustive verification: {}",
        if check.is_equivalent() {
            "PASS (65536/65536)"
        } else {
            "FAIL"
        }
    );

    let report = Pipeline::new().run_report(&net)?;
    println!("FPGA flow: {report}");
    println!("paper's Table V row for this design: 33 LUTs, 12 slices, 9.77 ns");

    // 6. Export as BLIF, the netlist format outside flows read.
    let blif = net.to_blif();
    println!(
        "\nBLIF export: {} lines (showing the first 8)",
        blif.lines().count()
    );
    for line in blif.lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}

fn to_bits(e: &gf2poly::Gf2Poly) -> u64 {
    e.limbs().first().copied().unwrap_or(0)
}
