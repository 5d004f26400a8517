//! FPGA synthesis substrate: technology mapping, packing, placement and
//! static timing for a registry of LUT-based fabrics.
//!
//! The paper evaluates its multipliers *post-place-and-route* on a
//! Xilinx Artix-7 (ISE 14.7 / XST). That flow is proprietary; this crate
//! implements the equivalent pipeline from scratch so the workspace can
//! regenerate Table V end to end (the README's "Targets", "Placement"
//! and "Timing" sections give the substitution argument) — and, because the paper's premise is *reconfigurable*
//! implementation, generalises the fabric behind a [`Target`] registry
//! (k = 4/6/8, different slice capacities) so the same constructions can
//! be compared across LUT structures:
//!
//! 0. [`resynth`] — technology-independent XOR-cluster re-association
//!    (the "synthesizer freedom" the paper's flat method exists to
//!    exploit);
//! 1. [`map`] — **priority-cuts k-LUT technology mapping**
//!    (k ≤ [`lut::MAX_LUT_INPUTS`]): depth-oriented labelling followed
//!    by area-flow refinement, with a fanout-preserving mode that models
//!    a conservative synthesiser and a free mode that models full
//!    restructuring freedom;
//! 2. [`lut`] — the mapped LUT netlist, with truth-table extraction and
//!    bit-parallel simulation;
//! 3. [`pack`] — slice packing (capacity from the target device,
//!    connectivity-driven);
//! 4. [`place`] — deterministic simulated-annealing placement on a slice
//!    grid;
//! 5. [`timing`] — full static timing analysis: forward arrival *and*
//!    backward required-time passes over IOB, LUT, fanout and
//!    wire-length dependent delays (constants from the target device),
//!    yielding per-endpoint slack, a slack histogram and top-K critical
//!    path traces in a typed [`timing::StaReport`];
//! 6. [`pipeline`] — the end-to-end [`pipeline::Pipeline`]: fallible
//!    (`Result<FlowArtifacts, FlowError>`), staged, with each input
//!    design's report memoized, and **target-derived** ([`Pipeline::with_target`] is the
//!    one device knob), producing the LUTs / Slices / ns / A×T quadruple
//!    of the paper's Table V;
//! 7. [`formal`] + [`lint`] — static analysis over both netlist levels:
//!    complete algebraic verification of every mapping against its
//!    source netlist ([`Pipeline::verify`], run by the flow) or of
//!    either level against a multiplier spec ([`Pipeline::verify_formal`]
//!    / [`Pipeline::verify_formal_mapped`]) — no sampling, LUT cones
//!    expanded via [`lut::Truth::anf`] — a
//!    structural lint pass ([`lint::lint_mapped`]) whose hard findings
//!    ([`lint::lint_mapped_errors`]) gate every verify and whose
//!    warnings feed the `ImplReport` hygiene counters, and a static
//!    depth certificate ([`Pipeline::verify_depth`]) and area
//!    certificate ([`Pipeline::verify_area`]) that prove a generated
//!    netlist meets its claimed Table V gate-depth formula and
//!    `#AND`/`#XOR` gate counts.
//!
//! # Examples
//!
//! ```
//! use netlist::Netlist;
//! use rgf2m_fpga::{Pipeline, Target};
//!
//! let mut net = Netlist::new("xor3");
//! let a = net.input("a");
//! let b = net.input("b");
//! let c = net.input("c");
//! let ab = net.xor(a, b);
//! let abc = net.xor(ab, c);
//! net.output("y", abc);
//!
//! let report = Pipeline::new().run_report(&net)?;
//! assert_eq!(report.luts, 1);          // a 3-input XOR fits one LUT6
//! assert!(report.time_ns > 0.0);
//!
//! // The same design on a narrow Spartan-class fabric, one knob away:
//! let narrow = Pipeline::new().with_target(Target::Spartan3);
//! assert_eq!(narrow.run_report(&net)?.luts, 1); // still one LUT4
//! # Ok::<(), rgf2m_fpga::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod formal;
pub mod lint;
pub mod lut;
pub mod map;
pub mod pack;
pub mod pipeline;
pub mod place;
pub mod resynth;
pub mod target;
pub mod timing;

pub use device::Device;
pub use formal::FormalError;
pub use lint::lint_mapped;
pub use lut::{LutAnalysis, LutNetlist};
pub use map::{MapMode, MapOptions};
pub use pipeline::{
    ArtifactHook, CacheStats, FlowArtifacts, FlowError, ImplReport, Pipeline, ReportSource,
};
pub use place::{PlaceOptions, PlaceStats};
pub use target::Target;
pub use timing::{
    analyze_sta, CriticalPath, PathElement, PathSegment, SlackHistogram, StaOptions, StaReport,
};
