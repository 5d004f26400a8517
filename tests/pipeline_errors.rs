//! Error-path coverage for the fallible `Pipeline` API: everything the
//! (now removed) legacy `FpgaFlow` used to panic on must surface as a
//! typed `FlowError` through the facade.

use rgf2m::prelude::*;

fn gf256_net() -> Netlist {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    generate(&field, Method::ProposedFlat)
}

#[test]
fn invalid_pentanomial_pairs_are_typed_errors() {
    // The gf2poly layer reports both failure modes...
    assert!(matches!(
        TypeIiPentanomial::new(8, 4),
        Err(PentanomialError::ShapeOutOfRange { .. })
    ));
    assert!(matches!(
        TypeIiPentanomial::new(16, 2),
        Err(PentanomialError::Reducible { .. })
    ));
    // ...and a flow driver folding them into the pipeline's error enum
    // keeps the message informative (this is exactly what
    // `rgf2m_bench::BatchRunner` does per job).
    let err = TypeIiPentanomial::new(16, 2)
        .map_err(|e| FlowError::InvalidOptions(format!("(16, 2): {e}")))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("invalid flow options"), "{msg}");
    assert!(msg.contains("reducible"), "{msg}");
}

#[test]
fn corrupted_lut_netlist_fails_verification_with_an_error() {
    let net = gf256_net();
    let pipeline = Pipeline::new();
    let synth = pipeline.resynth(&net).expect("valid options");
    let mut mapped = pipeline.map(&synth).expect("mapping succeeds");
    pipeline
        .verify(&net, &mapped)
        .expect("uncorrupted mapping verifies");

    // Deliberately corrupt one LUT's truth table: the multiplier no
    // longer multiplies, and the pipeline must say so — not panic.
    let truth = mapped.luts()[0].truth;
    mapped.set_truth(0, !truth);
    match pipeline.verify(&net, &mapped) {
        Err(FlowError::FormalMismatch {
            design,
            output_bit,
            missing,
            spurious,
        }) => {
            assert!(design.contains("mul_proposed"), "{design}");
            assert!(output_bit < 8, "{output_bit}");
            assert!(missing + spurious > 0);
        }
        other => panic!("expected FormalMismatch, got {other:?}"),
    }
}

#[test]
fn interface_corruption_is_also_a_verification_error() {
    let net = gf256_net();
    let pipeline = Pipeline::new();
    let mapped = pipeline
        .map(&pipeline.resynth(&net).unwrap())
        .expect("mapping succeeds");
    // Verifying against an unrelated design (different interface) must
    // be rejected before any polynomial is extracted.
    let mut tiny = Netlist::new("tiny");
    let a = tiny.input("a");
    let b = tiny.input("b");
    let y = tiny.xor(a, b);
    tiny.output("y", y);
    match pipeline.verify(&tiny, &mapped) {
        Err(FlowError::VerificationMismatch { design }) => assert_eq!(design, "tiny"),
        other => panic!("expected VerificationMismatch, got {other:?}"),
    }
}

#[test]
fn formal_verification_failures_are_typed_errors() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    let spec = multiplier_spec(&field);
    let net = gf256_net();
    let pipeline = Pipeline::new();

    // The complete certificate passes at both netlist levels...
    pipeline
        .verify_formal(&spec, &net)
        .expect("correct netlist carries the certificate");
    let mut mapped = pipeline
        .map(&pipeline.resynth(&net).unwrap())
        .expect("mapping succeeds");
    pipeline
        .verify_formal_mapped(&spec, &mapped)
        .expect("correct mapping carries the certificate");

    // ...and a corrupted LUT surfaces as FormalMismatch naming the
    // first wrong output bit, with a usable message.
    let truth = mapped.luts()[0].truth;
    mapped.set_truth(0, !truth);
    match pipeline.verify_formal_mapped(&spec, &mapped) {
        Err(e @ FlowError::FormalMismatch { output_bit, .. }) => {
            assert!(output_bit < 8);
            let msg = e.to_string();
            assert!(msg.contains("formal verification"), "{msg}");
        }
        other => panic!("expected FormalMismatch, got {other:?}"),
    }
}

#[test]
fn lint_reaches_the_facade_and_its_error_variant_is_informative() {
    // The hash-consing builder cannot construct a structurally broken
    // netlist, so through the facade both lint levels report clean on
    // generated designs (with hygiene warnings at most)...
    let net = gf256_net();
    let gate_report = lint_netlist(&net);
    assert!(!gate_report.has_errors(), "{gate_report}");
    let pipeline = Pipeline::new();
    let mapped = pipeline.map(&pipeline.resynth(&net).unwrap()).unwrap();
    let mapped_report = lint_mapped(&mapped);
    assert!(!mapped_report.has_errors(), "{mapped_report}");
    assert_eq!(mapped_report.duplicate_gates(), 0);
    assert_eq!(mapped_report.dead_nodes(), 0);

    // ...and the typed error the pipeline raises when lint *does* find
    // errors (crate-internal paths can) formats usably.
    let e = FlowError::LintErrors {
        design: "broken".into(),
        errors: 2,
        first: "error[undriven-input]: node 3 reads input 99".into(),
    };
    let msg = e.to_string();
    assert!(msg.contains("lint"), "{msg}");
    assert!(msg.contains("undriven-input"), "{msg}");
}

#[test]
fn the_happy_path_still_returns_ok_artifacts() {
    let net = gf256_net();
    let pipeline = Pipeline::new();
    let artifacts = pipeline.run(&net).expect("clean run");
    assert_eq!(artifacts.report.luts, artifacts.mapped.num_luts());
    assert!(artifacts.report.time_ns > 0.0);
}
