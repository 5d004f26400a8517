//! # rgf2m — Reconfigurable GF(2^m) bit-parallel multipliers
//!
//! A from-scratch reproduction of Imaña, *"Reconfigurable implementation
//! of GF(2^m) bit-parallel multipliers"* (DATE 2018): the full pipeline
//! from finite-field algebra to post-"place-and-route" area/time numbers,
//! in pure Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | layer | crate | what it gives you |
//! |---|---|---|
//! | polynomials over GF(2) | [`gf2poly`] | arithmetic, irreducibility, type II pentanomials |
//! | field arithmetic | [`gf2m`] | GF(2^m) software oracle, reduction/Mastrovito matrices |
//! | gate-level IR | [`netlist`] | XOR/AND netlists, simulation, content hashing, BLIF export |
//! | **paper's contribution** | [`core`] | S/T algebra, splitting, and the unified six-method Table V registry ([`core::Method`]) |
//! | extra references | [`baselines`] | [`baselines::school`] and [`baselines::karatsuba`], structural references outside Table V |
//! | FPGA substrate | [`fpga`] | the fallible, cacheable [`fpga::Pipeline`]: resynth → map → verify → pack → place → time |
//! | serving | [`serve`] | the persistent [`serve::ArtifactStore`] and the `rgf2m-served` daemon + [`serve::Client`] |
//!
//! # Quickstart
//!
//! ```
//! use rgf2m::prelude::*;
//!
//! // The paper's GF(2^8) field: f(y) = y^8 + y^4 + y^3 + y^2 + 1.
//! let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
//!
//! // Software multiplication (the oracle)...
//! let a = field.element_from_bits(0x57);
//! let b = field.element_from_bits(0x83);
//! let c = field.mul(&a, &b);
//!
//! // ...and any of the six Table V multipliers from the unified
//! // registry (paper row order); the proposed one agrees with the
//! // oracle:
//! assert_eq!(Method::ALL.len(), 6);
//! let net = generate(&field, Method::ProposedFlat);
//! let mut inputs = Vec::new();
//! for i in 0..8 {
//!     inputs.push((0x57 >> i) & 1 == 1);
//! }
//! for i in 0..8 {
//!     inputs.push((0x83 >> i) & 1 == 1);
//! }
//! let out = net.eval_bool(&inputs);
//! for k in 0..8 {
//!     assert_eq!(out[k], c.coeff(k));
//! }
//!
//! // Push it through the fallible FPGA pipeline for Table V-style
//! // numbers. Every stage returns `Result` — nothing in the public
//! // flow API panics — and re-running a design hits the artifact
//! // cache.
//! let pipeline = Pipeline::new();
//! let report = pipeline.run_report(&net)?;
//! assert!(report.luts > 0 && report.time_ns > 0.0);
//! let again = pipeline.run_report(&net)?; // ~free: memoized
//! assert_eq!(pipeline.cache_stats().hits, 1);
//! assert_eq!(report, again);
//!
//! // The fabric is a first-class registry choice too: one knob
//! // switches the device model, the mapper's LUT width and the
//! // slice capacity together.
//! assert_eq!(Target::ALL.len(), 4);
//! let narrow = Pipeline::new().with_target(Target::Spartan3);
//! assert_eq!(narrow.map_options().k, 4);
//! assert!(narrow.run_report(&net)?.luts > report.luts);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To fan many (field × method) scenarios over worker threads with
//! deterministic per-job seeds — and export the results as JSON/CSV —
//! use `rgf2m_bench::BatchRunner`, or from the shell:
//!
//! ```sh
//! cargo run --release -p rgf2m_bench --bin table5 -- --json table5.json
//! ```
//!
//! Long-lived workloads can run the same jobs through the `rgf2m-served`
//! daemon (crate [`serve`]): a persistent content-addressed artifact
//! store plus a concurrent JSON-over-socket server, byte-identical to
//! the in-process runs — see README "Serving".
//!
//! See `examples/` for complete scenarios (a pentanomial census, a
//! synthesis-space explorer and a sweep over the four fabrics), and the
//! `rgf2m-bench` crate for the binaries regenerating every table of the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gf2m;
pub use gf2poly;
pub use netlist;
pub use rgf2m_baselines as baselines;
pub use rgf2m_core as core;
pub use rgf2m_fpga as fpga;
pub use rgf2m_serve as serve;

/// The most commonly used items, one `use` away.
///
/// Every Table V multiplier comes from [`generate`](prelude::generate)
/// with a [`Method`](prelude::Method); the two extra-paper references
/// are the functions [`baselines::school`] and [`baselines::karatsuba`].
pub mod prelude {
    pub use gf2m::{Field, FieldError, MastrovitoMatrix, ReductionMatrix};
    pub use gf2poly::{is_irreducible, Gf2Poly, PentanomialError, TypeIiPentanomial};
    pub use netlist::{
        check_area, check_depths, lint_netlist, output_depths, strash_classes, strash_dedup,
        AreaSpec, Depth, DepthSpec, Gate, GateKind, LintReport, MulSpec, Netlist, NodeId, Poly,
    };
    pub use rgf2m_core::{
        anonymize, area_spec, delay_spec, generate, multiplier_spec, reverse_engineer, AtomKind,
        CoefficientTable, FlatCoefficientTable, Method, ProductTerm, RecoveredField, SiTi,
        SplitAtom,
    };
    pub use rgf2m_fpga::{
        lint_mapped, ArtifactHook, CacheStats, Device, FlowArtifacts, FlowError, ImplReport,
        MapMode, MapOptions, Pipeline, PlaceOptions, ReportSource, StaOptions, StaReport, Target,
    };
    pub use rgf2m_serve::{ArtifactStore, Client, ClientJob, Endpoint, FieldSpec, ServerConfig};
}
