//! Formal-verification coverage of the catalogued fields: the
//! algebraic certificate must accept every generated multiplier and
//! reject every corrupted spec, and the reverse-engineering pass must
//! recover each catalogued modulus from structure alone.
//!
//! Debug runs sample the grid with proptest on the small fields; the
//! release-gated tests walk *every* catalogued field (m ≤ 163) times
//! every method, and push the paper's largest field (163, 68) through
//! resynthesis + mapping on all four fabrics with the LUT-level
//! certificate ([`Pipeline::verify_formal_mapped`]) at the end.

use gf2m::Field;
use gf2poly::catalogue::TABLE_V_FIELDS;
use gf2poly::TypeIiPentanomial;
use netlist::{MulSpec, Poly};
use proptest::prelude::*;
use rgf2m_core::{anonymize, generate, multiplier_spec, reverse_engineer, Method};
use rgf2m_fpga::{FlowError, Pipeline, Target};

fn field_for(m: usize, n: usize) -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap())
}

/// A spec with one monomial added to one output — the smallest
/// possible wrongness.
fn corrupt_spec(spec: &MulSpec, bit: usize) -> MulSpec {
    let outputs: Vec<Poly> = (0..spec.m())
        .map(|k| {
            let p = spec.output(k).clone();
            if k == bit {
                p + Poly::one()
            } else {
                p
            }
        })
        .collect();
    MulSpec::new(spec.m(), outputs)
}

fn arb_method() -> impl Strategy<Value = Method> {
    (0usize..Method::ALL.len()).prop_map(|i| Method::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On the small catalogued fields, every method's netlist carries
    /// the complete algebraic certificate, any corrupted spec is
    /// refused at exactly the corrupted bit, and the anonymized
    /// netlist still betrays its modulus.
    #[test]
    fn formal_certificate_and_recovery_on_small_fields(
        fi in 0usize..2, // (8,2) and (64,23); release tests walk all 9
        method in arb_method(),
        bit_seed in any::<u16>(),
    ) {
        let (m, n) = TABLE_V_FIELDS[fi];
        let field = field_for(m, n);
        let spec = multiplier_spec(&field);
        let net = generate(&field, method);
        let pipeline = Pipeline::new();

        prop_assert!(pipeline.verify_formal(&spec, &net).is_ok(),
            "({m},{n}) {method:?}: formal certificate refused a correct netlist");

        let bit = bit_seed as usize % m;
        match pipeline.verify_formal(&corrupt_spec(&spec, bit), &net) {
            Err(FlowError::FormalMismatch { output_bit, .. }) => {
                prop_assert_eq!(output_bit, bit);
            }
            other => prop_assert!(false, "corrupted spec not refused: {other:?}"),
        }

        let rec = reverse_engineer(&anonymize(&net)).expect("recovery");
        prop_assert_eq!(rec.m, m);
        prop_assert_eq!(&rec.modulus, field.modulus());
    }
}

/// Every catalogued Table V field × every method: the gate-level
/// netlist passes complete algebraic verification and the anonymized
/// netlist's modulus is recovered exactly. Release-only (the m = 163
/// cones are large).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_catalogued_field_verifies_formally_and_reveng_recovers() {
    for &(m, n) in &TABLE_V_FIELDS {
        let field = field_for(m, n);
        let spec = multiplier_spec(&field);
        let pipeline = Pipeline::new();
        for method in Method::ALL {
            let net = generate(&field, method);
            pipeline
                .verify_formal(&spec, &net)
                .unwrap_or_else(|e| panic!("({m},{n}) {method:?}: {e}"));
            let rec = reverse_engineer(&anonymize(&net))
                .unwrap_or_else(|e| panic!("({m},{n}) {method:?}: {e}"));
            assert_eq!(rec.m, m, "({m},{n}) {method:?}");
            assert_eq!(&rec.modulus, field.modulus(), "({m},{n}) {method:?}");
        }
    }
}

/// The paper's largest field (163, 68), every method, every fabric:
/// resynthesize, map, then demand the LUT-level algebraic certificate.
/// Complete on every operand pair, like the flow's own `verify`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn gf2_163_maps_with_formal_certificate_on_every_target() {
    let field = field_for(163, 68);
    let spec = multiplier_spec(&field);
    for method in Method::ALL {
        let net = generate(&field, method);
        for target in Target::ALL {
            let pipeline = Pipeline::new().with_target(target);
            let synth = pipeline.resynth(&net).expect("valid configuration");
            let mapped = pipeline.map(&synth).expect("valid configuration");
            pipeline
                .verify_formal_mapped(&spec, &mapped)
                .unwrap_or_else(|e| panic!("{method:?} on {target:?}: {e}"));
        }
    }
}
