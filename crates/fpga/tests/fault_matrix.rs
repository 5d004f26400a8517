//! Fault-injection matrix: single-truth-bit faults across every
//! Method × Target at GF(2^8), with exhaustive ground truth.
//!
//! For each of the six generators on each of the four fabrics, one
//! truth-table bit is flipped in every LUT of the mapped netlist (via
//! [`LutNetlist::set_truth`]). Ground truth comes from exhaustive
//! simulation over all 2^16 operand pairs: a fault either changes the
//! computed function or is *masked* (the flipped minterm is
//! unreachable from the primary inputs). The matrix then checks that
//! both complete verifiers agree with ground truth on every single
//! fault — zero escapes, zero false alarms:
//!
//! * [`Pipeline::verify`], the flow's own check, which proves the
//!   mapping against the source netlist's polynomials;
//! * [`Pipeline::verify_formal_mapped`], which proves it against the
//!   multiplier specification.
//!
//! Faults deep in shared logic can surface on only a few of the
//! 65 536 operand pairs — the 4 × 64-vector sampled check the flow
//! used before missed 39 of 1068 function-changing faults here — so
//! only a complete check can pass this matrix.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, multiplier_spec, Method};
use rgf2m_fpga::{LutNetlist, Pipeline, Target};

fn gf256() -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
}

/// The 64-lane words enumerating assignments `batch*64 .. batch*64+63`
/// of `num_inputs` boolean inputs (inputs 0–5 vary within the word,
/// the rest select the batch).
fn exhaustive_words(batch: usize, num_inputs: usize) -> Vec<u64> {
    const LANES: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    (0..num_inputs)
        .map(|i| {
            if i < 6 {
                LANES[i]
            } else if (batch >> (i - 6)) & 1 == 1 {
                !0u64
            } else {
                0u64
            }
        })
        .collect()
}

/// All outputs of `mapped` over every assignment of its 16 inputs,
/// batch-major (1024 batches of 64 lanes).
fn exhaustive_outputs(mapped: &LutNetlist) -> Vec<Vec<u64>> {
    let n = mapped.input_names().len();
    assert_eq!(n, 16, "matrix is pinned to GF(2^8): 16 primary inputs");
    (0..1usize << (n - 6))
        .map(|batch| mapped.eval_words(&exhaustive_words(batch, n)))
        .collect()
}

struct MatrixCell {
    faults: usize,
    function_changing: usize,
    masked: usize,
    formal_escapes: usize,
    formal_false_alarms: usize,
    verify_escapes: usize,
    verify_false_alarms: usize,
}

/// Injects one fault per LUT of one design on one target and scores
/// every verifier against exhaustive ground truth.
fn run_cell(method: Method, target: Target) -> MatrixCell {
    let field = gf256();
    let spec = multiplier_spec(&field);
    let net = generate(&field, method);
    let pipeline = Pipeline::new().with_target(target);
    let mut artifacts = pipeline.run(&net).expect("clean flow");
    let golden = exhaustive_outputs(&artifacts.mapped);
    assert!(pipeline
        .verify_formal_mapped(&spec, &artifacts.mapped)
        .is_ok());

    let mut cell = MatrixCell {
        faults: 0,
        function_changing: 0,
        masked: 0,
        formal_escapes: 0,
        formal_false_alarms: 0,
        verify_escapes: 0,
        verify_false_alarms: 0,
    };
    let num_luts = artifacts.mapped.num_luts();
    for i in 0..num_luts {
        // Flip one in-range truth bit per LUT (which bit varies by
        // LUT index, so the faults are not all in the same minterm).
        let lut = &artifacts.mapped.luts()[i];
        let bit = i % (1usize << lut.inputs.len());
        let mut faulty = lut.truth;
        faulty.0[bit / 64] ^= 1u64 << (bit % 64);
        let pristine = artifacts.mapped.luts()[i].truth;
        artifacts.mapped.set_truth(i as u32, faulty);
        cell.faults += 1;

        let changes = exhaustive_outputs(&artifacts.mapped) != golden;
        let formal_rejects = pipeline
            .verify_formal_mapped(&spec, &artifacts.mapped)
            .is_err();
        let verify_rejects = pipeline.verify(&net, &artifacts.mapped).is_err();
        if changes {
            cell.function_changing += 1;
            cell.formal_escapes += usize::from(!formal_rejects);
            cell.verify_escapes += usize::from(!verify_rejects);
        } else {
            cell.masked += 1;
            cell.formal_false_alarms += usize::from(formal_rejects);
            cell.verify_false_alarms += usize::from(verify_rejects);
        }

        artifacts.mapped.set_truth(i as u32, pristine);
    }
    // The repaired netlist must verify again (the matrix is side-effect
    // free).
    assert!(pipeline
        .verify_formal_mapped(&spec, &artifacts.mapped)
        .is_ok());
    assert!(pipeline.verify(&net, &artifacts.mapped).is_ok());
    cell
}

/// Both complete verifiers must agree with ground truth on every fault
/// of the cell.
fn assert_exact(cell: &MatrixCell, what: &str) {
    assert_eq!(
        cell.formal_escapes, 0,
        "{what}: formal verify missed a fault"
    );
    assert_eq!(
        cell.formal_false_alarms, 0,
        "{what}: formal verify flagged a masked fault"
    );
    assert_eq!(
        cell.verify_escapes, 0,
        "{what}: Pipeline::verify missed a fault"
    );
    assert_eq!(
        cell.verify_false_alarms, 0,
        "{what}: Pipeline::verify flagged a masked fault"
    );
}

/// One cell of the matrix, cheap enough for every debug test run.
#[test]
fn fault_injection_proposed_on_artix7() {
    let cell = run_cell(Method::ProposedFlat, Target::Artix7);
    assert!(cell.faults > 0);
    assert!(cell.function_changing > 0, "every fault was masked?");
    assert_exact(&cell, "ProposedFlat on Artix7");
}

/// The full 6 × 4 matrix (~1000 faults, each scored exhaustively);
/// release-only. Pins the headline claim: the flow's own check and the
/// spec check both catch 100% of function-changing faults and flag no
/// masked one, in every cell.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fault_matrix_formal_catches_every_fault_sampling_misses_some() {
    let mut faults = 0usize;
    let mut changing = 0usize;
    let mut masked = 0usize;
    for method in Method::ALL {
        for target in Target::ALL {
            let cell = run_cell(method, target);
            assert_exact(&cell, &format!("{method:?} on {target:?}"));
            faults += cell.faults;
            changing += cell.function_changing;
            masked += cell.masked;
        }
    }
    println!(
        "fault matrix: {faults} faults, {changing} function-changing, {masked} masked; \
         Pipeline::verify and the spec check each caught all {changing}"
    );
    assert!(changing > 0);
}
