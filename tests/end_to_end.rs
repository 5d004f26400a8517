//! Workspace-level integration tests: algebra → generators → netlists →
//! FPGA flow, crossing every crate boundary.

use rgf2m::prelude::*;

#[test]
fn every_method_exhaustively_correct_on_the_papers_field() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    for method in Method::ALL {
        let net = generate(&field, method);
        let oracle = |w: &[u64]| field.mul_words(w);
        let r = netlist::sim::check_against_oracle_exhaustive(&net, oracle);
        assert!(r.is_equivalent(), "{method}: {r:?}");
    }
}

#[test]
fn every_method_survives_the_full_fpga_flow_on_gf256() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    // One shared pipeline: the re-verification stage runs per design,
    // and a mapping mismatch arrives as a typed error.
    let pipeline = Pipeline::new();
    for method in Method::ALL {
        let net = generate(&field, method);
        let report = pipeline
            .run_report(&net)
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        assert!(report.luts >= 17, "{method}: too few LUTs to be real");
        assert!(report.time_ns > 4.0, "{method}");
    }
    assert_eq!(pipeline.cache_stats().entries, Method::ALL.len());
}

#[test]
fn mapped_multiplier_still_multiplies_through_lut_simulation() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    let net = generate(&field, Method::ProposedFlat);
    let artifacts = Pipeline::new().run(&net).expect("clean run");
    // Exhaustive check of the LUT netlist against the software oracle.
    let mut base = 0u64;
    while base < (1 << 16) {
        let words: Vec<u64> = (0..16)
            .map(|i| {
                let mut w = 0u64;
                for l in 0..64 {
                    if ((base + l) >> i) & 1 == 1 {
                        w |= 1 << l;
                    }
                }
                w
            })
            .collect();
        assert_eq!(
            artifacts.mapped.eval_words(&words),
            field.mul_words(&words),
            "at base {base}"
        );
        base += 64;
    }
}

#[test]
fn proposed_method_generalizes_to_every_table_v_field() {
    for &(m, n) in &gf2poly::catalogue::TABLE_V_FIELDS {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let net = generate(&field, Method::ProposedFlat);
        assert_eq!(net.num_inputs(), 2 * m, "({m},{n})");
        assert_eq!(net.outputs().len(), m, "({m},{n})");
        assert_eq!(net.stats().ands, m * m, "({m},{n}): AND count");
        let oracle = |w: &[u64]| field.mul_words(w);
        let r = netlist::sim::check_against_oracle_random(&net, oracle, 2, 42);
        assert!(r.is_equivalent(), "({m},{n}): {r:?}");
    }
}

#[test]
fn dce_and_resynthesis_preserve_multiplier_semantics() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(16, 3).unwrap());
    let net = generate(&field, Method::ProposedFlat);
    let clean = net.eliminate_dead_code();
    let resynth = rgf2m::fpga::resynth::rebalance_xors(&clean, 6);
    let oracle = |w: &[u64]| field.mul_words(w);
    assert!(netlist::sim::check_against_oracle_random(&resynth, oracle, 8, 3).is_equivalent());
}
