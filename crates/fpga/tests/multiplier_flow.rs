//! End-to-end flow tests on real GF(2^m) multiplier netlists.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::MapMode;
use rgf2m_fpga::{Pipeline, Target};

fn gf256() -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
}

#[test]
fn gf256_multipliers_map_pack_place_and_time() {
    let field = gf256();
    for method in Method::ALL {
        let net = generate(&field, method);
        let artifacts = Pipeline::new().run(&net).expect("clean flow");
        let r = &artifacts.report;
        // Sanity envelopes around the paper's (8,2) row (33–40 LUTs).
        assert!(
            (20..=60).contains(&r.luts),
            "{method:?}: {} LUTs out of envelope",
            r.luts
        );
        assert!(r.slices <= r.luts);
        assert!(
            r.slices >= r.luts.div_ceil(4),
            "{method:?} packing too dense"
        );
        assert!(
            (2..=5).contains(&r.depth),
            "{method:?}: LUT depth {} out of envelope",
            r.depth
        );
        assert!(
            (5.0..=20.0).contains(&r.time_ns),
            "{method:?}: {}ns out of envelope",
            r.time_ns
        );
        // The mapped netlist must still multiply: verified inside the
        // flow, but double-check against the field oracle end to end.
        let oracle_out = field.mul_words(&test_words(16));
        let lut_out = artifacts.mapped.eval_words(&test_words(16));
        assert_eq!(oracle_out, lut_out, "{method:?}");
    }
}

fn test_words(n: usize) -> Vec<u64> {
    // Deterministic pseudo-random lane data.
    let mut state = 0x853c_49e6_748f_ea9bu64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        })
        .collect()
}

#[test]
fn gf256_multipliers_flow_on_every_registered_target() {
    // The reconfigurability claim, end to end: every Table V method
    // implements correctly on every registry fabric, within each
    // fabric's LUT width and slice capacity.
    let field = gf256();
    let words = test_words(16);
    let oracle_out = field.mul_words(&words);
    for target in Target::ALL {
        let pipeline = Pipeline::new().with_target(target);
        for method in Method::ALL {
            let net = generate(&field, method);
            let artifacts = pipeline
                .run(&net)
                .unwrap_or_else(|e| panic!("{target}/{method:?}: {e}"));
            assert!(
                artifacts
                    .mapped
                    .luts()
                    .iter()
                    .all(|l| l.inputs.len() <= target.lut_inputs()),
                "{target}/{method:?}: LUT exceeds k"
            );
            assert!(
                artifacts.report.slices >= artifacts.report.luts.div_ceil(target.luts_per_slice()),
                "{target}/{method:?}: packing denser than the fabric allows"
            );
            assert_eq!(
                artifacts.mapped.eval_words(&words),
                oracle_out,
                "{target}/{method:?}"
            );
        }
    }
}

#[test]
fn narrow_fabric_costs_more_area_wide_fabric_less_depth() {
    // Across targets the shape response must be monotone for the
    // proposed method: LUT4 pays area/depth, the 8-input ALM saves
    // depth relative to LUT6.
    let field = gf256();
    let net = generate(&field, Method::ProposedFlat);
    let report = |t: Target| Pipeline::new().with_target(t).run_report(&net).unwrap();
    let narrow = report(Target::Spartan3);
    let mid = report(Target::Artix7);
    let wide = report(Target::StratixAlm);
    assert!(narrow.luts > mid.luts);
    assert!(narrow.depth >= mid.depth);
    assert!(wide.depth <= mid.depth);
}

#[test]
fn proposed_flat_benefits_from_resynthesis() {
    // The paper's core claim, in mapping terms: giving the synthesiser
    // freedom (resynthesis on) must not hurt the flat method, and
    // usually helps its depth/area.
    let field = gf256();
    let net = generate(&field, Method::ProposedFlat);
    let with = Pipeline::new().run_report(&net).unwrap();
    let without = Pipeline::new()
        .with_resynthesis(false)
        .run_report(&net)
        .unwrap();
    assert!(
        with.depth <= without.depth,
        "resynthesis worsened depth: {} vs {}",
        with.depth,
        without.depth
    );
    assert!(
        with.luts <= without.luts + 2,
        "resynthesis exploded area: {} vs {}",
        with.luts,
        without.luts
    );
}

#[test]
fn fanout_preserving_mode_is_never_better_than_free() {
    let field = gf256();
    for method in Method::ALL {
        let net = generate(&field, method);
        let free = Pipeline::new().run_report(&net).unwrap();
        let fp = Pipeline::new()
            .with_map_mode(MapMode::FanoutPreserving)
            .run_report(&net)
            .unwrap();
        assert!(
            free.depth <= fp.depth,
            "{method:?}: free depth {} > fanout-preserving {}",
            free.depth,
            fp.depth
        );
    }
}

#[test]
fn larger_field_flow_is_consistent() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap());
    let net = generate(&field, Method::ProposedFlat);
    let r = Pipeline::new().run_report(&net).unwrap();
    // Paper's (64,23) row: 1769–1854 LUTs on ISE; our mapper should land
    // in the same order of magnitude.
    assert!(
        (800..=4000).contains(&r.luts),
        "unexpected LUT count {}",
        r.luts
    );
    assert!(r.time_ns > 5.0);
    assert!(r.depth >= 2);
}

#[test]
fn flow_reports_are_deterministic_across_runs() {
    let field = gf256();
    let net = generate(&field, Method::Imana2016);
    let a = Pipeline::new().run_report(&net).unwrap();
    let b = Pipeline::new().run_report(&net).unwrap();
    assert_eq!(a.luts, b.luts);
    assert_eq!(a.slices, b.slices);
    assert_eq!(a.time_ns, b.time_ns);
}
