//! Property tests for the target registry: for *every* registered
//! fabric and *every* Table V method, technology mapping must respect
//! the fabric's LUT width and the mapped netlist must still multiply.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use proptest::prelude::*;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::map_to_luts;
use rgf2m_fpga::{Pipeline, Target};

fn gf256() -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
}

fn arb_target() -> impl Strategy<Value = Target> {
    (0usize..Target::ALL.len()).prop_map(|i| Target::ALL[i])
}

fn arb_method() -> impl Strategy<Value = Method> {
    (0usize..Method::ALL.len()).prop_map(|i| Method::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mapping never emits a LUT wider than the target's `lut_inputs`,
    /// resynthesis on or off, and the pipeline's own re-verification
    /// passes — i.e. the mapped netlist still computes the GF(2^8)
    /// product.
    #[test]
    fn mapping_respects_every_targets_lut_width(
        target in arb_target(),
        method in arb_method(),
        resynth in any::<bool>(),
    ) {
        let field = gf256();
        let net = generate(&field, method);
        let pipeline = Pipeline::new()
            .with_target(target)
            .with_resynthesis(resynth);
        let synth = pipeline.resynth(&net).expect("valid configuration");
        let mapped = pipeline.map(&synth).expect("valid configuration");
        let k = target.device().lut_inputs;
        for (i, lut) in mapped.luts().iter().enumerate() {
            prop_assert!(
                lut.inputs.len() <= k,
                "{target}/{method:?}: LUT {i} has {} inputs > k = {k}",
                lut.inputs.len()
            );
        }
        prop_assert!(pipeline.verify(&net, &mapped).is_ok(),
            "{target}/{method:?}: mapped netlist no longer multiplies");
    }

    /// The full flow on a random target stays internally consistent:
    /// packing never exceeds the fabric's slice capacity and the
    /// report agrees with the artifacts.
    #[test]
    fn full_flow_is_consistent_on_every_target(
        target in arb_target(),
        method in arb_method(),
    ) {
        let field = gf256();
        let net = generate(&field, method);
        let artifacts = Pipeline::new()
            .with_target(target)
            .run(&net)
            .expect("clean flow");
        let per_slice = target.device().luts_per_slice;
        prop_assert!(artifacts.report.slices >= artifacts.report.luts.div_ceil(per_slice));
        prop_assert_eq!(artifacts.report.luts, artifacts.mapped.num_luts());
        prop_assert_eq!(artifacts.report.slices, artifacts.packing.num_slices());
        prop_assert!(artifacts.report.time_ns > 0.0);
    }
}

proptest! {
    // Each case walks the whole Target × Method grid (24 mappings), so a
    // few stimulus rounds already exercise every combination — keep the
    // case count small to stay debug-build friendly.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The arena/priority-cut mapper is functionally equivalent to raw
    /// netlist simulation on *every* registered fabric × *every* Table V
    /// method (the grid is walked exhaustively; proptest supplies the
    /// stimulus): the same random 64-bit words pushed through the gate
    /// netlist and through the mapped LUT netlist must agree on every
    /// output bit.
    #[test]
    fn mapper_matches_netlist_simulation_for_every_target_and_method(
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let field = gf256();
        let mut rng = StdRng::seed_from_u64(seed);
        for target in Target::ALL {
            for method in Method::ALL {
                let net = generate(&field, method);
                let mapped = map_to_luts(&net, &Pipeline::new().with_target(target).map_options());
                let words: Vec<u64> =
                    (0..net.num_inputs()).map(|_| rng.gen()).collect();
                let net_out = net.eval_words(&words);
                let lut_out = mapped.eval_words(&words);
                prop_assert!(
                    net_out == lut_out,
                    "{target}/{method:?} diverges from netlist simulation"
                );
            }
        }
    }
}
