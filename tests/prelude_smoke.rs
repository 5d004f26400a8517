//! Workspace-surface smoke test: every item the `rgf2m::prelude` promises
//! must stay importable by its documented name, and the crate-level
//! re-export aliases (`rgf2m::core`, `rgf2m::baselines`, ...) must keep
//! resolving. A rename anywhere in the workspace breaks this file at
//! compile time, before any behavioural test runs.

// Each item imported explicitly — a glob would hide removals.
use rgf2m::prelude::{
    generate, is_irreducible, AtomKind, CoefficientTable, Device, Field, FieldError,
    FlatCoefficientTable, FlowArtifacts, FlowError, Gate, Gf2Poly, ImplReport, MapMode, MapOptions,
    MastrovitoMatrix, Method, Netlist, NodeId, PentanomialError, Pipeline, PlaceOptions,
    ProductTerm, ReductionMatrix, SiTi, SplitAtom, Target, TypeIiPentanomial,
};

/// The facade's module aliases must also stay stable.
#[allow(unused_imports)]
mod facade_aliases {
    pub use rgf2m::baselines;
    pub use rgf2m::core;
    pub use rgf2m::fpga;
    pub use rgf2m::gf2m;
    pub use rgf2m::gf2poly;
    pub use rgf2m::netlist;
}

fn type_exists<T: ?Sized>() {}

#[test]
fn every_prelude_type_is_nameable() {
    type_exists::<Field>();
    type_exists::<FieldError>();
    type_exists::<MastrovitoMatrix>();
    type_exists::<ReductionMatrix>();
    type_exists::<Gf2Poly>();
    type_exists::<PentanomialError>();
    type_exists::<TypeIiPentanomial>();
    type_exists::<Gate>();
    type_exists::<Netlist>();
    type_exists::<NodeId>();
    type_exists::<AtomKind>();
    type_exists::<CoefficientTable>();
    type_exists::<FlatCoefficientTable>();
    type_exists::<Method>();
    type_exists::<ProductTerm>();
    type_exists::<SiTi>();
    type_exists::<SplitAtom>();
    type_exists::<ImplReport>();
    type_exists::<MapMode>();
    type_exists::<MapOptions>();
    // The redesigned flow surface.
    type_exists::<Pipeline>();
    type_exists::<FlowError>();
    type_exists::<FlowArtifacts>();
    type_exists::<PlaceOptions>();
    // The target-registry surface.
    type_exists::<Target>();
    type_exists::<Device>();
}

#[test]
fn unified_registry_is_reachable_from_the_prelude() {
    // The redesign's acceptance contract: all six Table V generators
    // behind one enum, in the paper's row order.
    assert_eq!(Method::ALL.len(), 6);
    let citations: Vec<&str> = Method::ALL.iter().map(|m| m.citation()).collect();
    assert_eq!(citations, ["[2]", "[8]", "[3]", "[6]", "[7]", "This work"]);
}

#[test]
fn target_registry_is_reachable_from_the_prelude() {
    // The PR-4 acceptance contract: at least four fabric presets with
    // distinct (k, LUTs/slice) shapes behind one enum, each resolvable
    // by name, each yielding a device whose shape matches.
    assert!(Target::ALL.len() >= 4);
    let mut shapes: Vec<(usize, usize)> = Target::ALL
        .iter()
        .map(|t| {
            assert_eq!(Target::from_name(t.name()), Some(*t));
            let d: &Device = t.device();
            (d.lut_inputs, d.luts_per_slice)
        })
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    assert_eq!(shapes.len(), Target::ALL.len());
}

#[test]
fn prelude_functions_run_end_to_end() {
    // `is_irreducible` on the AES modulus.
    let f = Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
    assert!(is_irreducible(&f));

    // `Field::from_pentanomial` + `generate` + the FPGA pipeline: the
    // same flow the quickstart documents, in miniature, on the new
    // fallible surface.
    let penta = TypeIiPentanomial::new(8, 2).expect("paper field exists");
    let field = Field::from_pentanomial(&penta);
    let net = generate(&field, Method::ProposedFlat);
    assert_eq!(net.num_inputs(), 16);

    let report = Pipeline::new()
        .run_report(&net)
        .expect("pipeline runs clean");
    assert!(report.luts > 0);
    assert!(report.time_ns > 0.0);

    // Retargeting through the prelude: one knob, consistent numbers.
    let wide = Pipeline::new()
        .with_target(Target::StratixAlm)
        .run_report(&net)
        .expect("wide fabric runs clean");
    assert!(wide.depth <= report.depth);
}
