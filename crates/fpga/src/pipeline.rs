//! The fallible, cacheable implementation pipeline.
//!
//! [`Pipeline`] is the primary entry point of this crate: the
//! resynth → map → verify → pack → place → time flow,
//!
//! * **fallible** — every stage returns `Result<_, FlowError>` instead
//!   of panicking, so batch drivers can keep going when one design
//!   fails to verify or fit;
//! * **staged** — each stage is an individually-runnable, inspectable
//!   method ([`Pipeline::resynth`], [`Pipeline::map`],
//!   [`Pipeline::verify`], [`Pipeline::pack`], [`Pipeline::place`],
//!   [`Pipeline::time`]), which is also what makes fault injection
//!   possible (corrupt a mapped netlist, then call `verify`);
//! * **memoized** — [`Pipeline::run_report`] caches each design's
//!   [`ImplReport`] keyed by a stable content hash of the input netlist
//!   plus an options fingerprint, so re-running the same design through
//!   the same pipeline is ~free (see [`Pipeline::cache_stats`]). Only
//!   reports are kept, the same value an [`ArtifactHook`] persists:
//!   [`Pipeline::run`] hands its full [`FlowArtifacts`] to the caller
//!   and retains none of them;
//! * **target-derived** — [`Pipeline::with_target`] picks a fabric from
//!   the [`Target`] registry and derives the device model, the mapper's
//!   LUT width and cut budget, and the slice capacity from it. The whole
//!   configuration is the target, the mapper mode, resynthesis on/off,
//!   the placement seed and an optional artifact hook, so no device
//!   model can disagree with the LUT width the mapper uses.
//!
//! # Examples
//!
//! ```
//! use netlist::Netlist;
//! use rgf2m_fpga::Pipeline;
//!
//! let mut net = Netlist::new("maj");
//! let a = net.input("a");
//! let b = net.input("b");
//! let c = net.input("c");
//! let ab = net.and(a, b);
//! let bc = net.and(b, c);
//! let ca = net.and(c, a);
//! let x = net.xor(ab, bc);
//! let y = net.xor(x, ca);
//! net.output("maj", y);
//!
//! let pipeline = Pipeline::new();
//! let report = pipeline.run_report(&net)?;
//! assert_eq!(report.luts, 1);
//! let again = pipeline.run_report(&net)?; // memoized: no recomputation
//! assert_eq!(pipeline.cache_stats().hits, 1);
//! assert_eq!(again, report);
//! # Ok::<(), rgf2m_fpga::FlowError>(())
//! ```
//!
//! Retargeting is one call — everything device-derived follows:
//!
//! ```
//! use rgf2m_fpga::{Pipeline, Target};
//! # use netlist::Netlist;
//! # let mut net = Netlist::new("x3");
//! # let a = net.input("a");
//! # let b = net.input("b");
//! # let c = net.input("c");
//! # let ab = net.xor(a, b);
//! # let y = net.xor(ab, c);
//! # net.output("y", y);
//! let narrow = Pipeline::new().with_target(Target::Spartan3);
//! assert_eq!(narrow.map_options().k, 4);
//! assert_eq!(narrow.device().luts_per_slice, 2);
//! let report = narrow.run_report(&net)?;
//! assert!(report.time_ns > 0.0);
//! # Ok::<(), rgf2m_fpga::FlowError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use netlist::analysis::NetAnalysis;
use netlist::{Fnv1a, Netlist};

use crate::device::Device;
use crate::formal::FormalError;
use crate::lut::LutNetlist;
use crate::map::{map_to_luts, MapMode, MapOptions};
use crate::pack::{pack_slices, Packing};
use crate::place::{place, PlaceOptions, Placement};
use crate::target::Target;
use crate::timing::{analyze, StaReport};

/// The quadruple the paper reports per design in Table V, plus context.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImplReport {
    /// Design name.
    pub name: String,
    /// Number of LUTs after mapping.
    pub luts: usize,
    /// Number of slices after packing.
    pub slices: usize,
    /// LUT logic depth.
    pub depth: u32,
    /// Post-place critical path in ns.
    pub time_ns: f64,
    /// Duplicate LUTs in the mapped netlist (same inputs, same truth
    /// table), counted by the structural lint pass — netlist hygiene
    /// for Table V rows.
    pub dup_gates: usize,
    /// Mapped LUTs driving neither a LUT input nor a primary output,
    /// counted by the structural lint pass.
    pub dead_nodes: usize,
    /// Worst slack across every LUT and output endpoint, in ns, at the
    /// STA's default target (the critical delay itself) — `0.0` for a
    /// consistent analysis, negative only under an explicit tighter
    /// target.
    pub worst_slack_ns: f64,
    /// AND depth (`T_A` levels) of the *source* gate netlist — the
    /// algebraic delay claim of Table V, before resynthesis/mapping.
    pub and_depth: u32,
    /// XOR depth (`T_X` levels) of the *source* gate netlist.
    pub xor_depth: u32,
    /// AND gates in the *source* gate netlist — the paper's Table V
    /// `#AND` area claim, measured before resynthesis/mapping.
    pub and_gates: usize,
    /// XOR gates in the *source* gate netlist (`#XOR` in Table V).
    pub xor_gates: usize,
    /// Gates the structural-hashing rewrite
    /// ([`netlist::strash_dedup`]) would remove from the source
    /// netlist — `0` certifies it carries no transitively duplicated
    /// cones beyond what hash-consing already shares.
    pub dedup_saved: usize,
}

impl ImplReport {
    /// The paper's area×time metric: `LUTs × ns` (less is better).
    pub fn area_time(&self) -> f64 {
        self.luts as f64 * self.time_ns
    }
}

impl fmt::Display for ImplReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LUTs, {} slices, depth {}, {:.2} ns, A×T {:.2}, gate depth {}",
            self.name,
            self.luts,
            self.slices,
            self.depth,
            self.time_ns,
            self.area_time(),
            netlist::Depth {
                ands: self.and_depth,
                xors: self.xor_depth
            }
        )
    }
}

/// All intermediate artifacts of a flow run, for inspection and tests.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    /// The mapped LUT netlist.
    pub mapped: LutNetlist,
    /// The slice packing.
    pub packing: Packing,
    /// The placement.
    pub placement: Placement,
    /// The timing report.
    pub timing: StaReport,
    /// The summary.
    pub report: ImplReport,
}

/// Everything that can go wrong in the implementation pipeline.
///
/// The pipeline never panics on bad input: a mapping that changes
/// functionality is reported as [`FlowError::FormalMismatch`], a design
/// too large to verify as [`FlowError::TermBudgetExceeded`], and an
/// invalid field or job description as [`FlowError::InvalidOptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowError {
    /// A checked netlist's interface (input or output count) does not
    /// match its reference — the source netlist or the specification —
    /// so no functional comparison was attempted.
    VerificationMismatch {
        /// The design name.
        design: String,
    },
    /// A job description the flow cannot run, e.g. a field pair that is
    /// not a valid type II pentanomial.
    InvalidOptions(String),
    /// Complete algebraic verification ([`Pipeline::verify`],
    /// [`Pipeline::verify_formal`], [`Pipeline::verify_formal_mapped`])
    /// found an output bit whose extracted GF(2) polynomial differs
    /// from the expected one (the source netlist's, or the multiplier
    /// specification's) — a proof of wrongness, not sampled evidence.
    FormalMismatch {
        /// The design name.
        design: String,
        /// The lowest-index output bit that differs.
        output_bit: usize,
        /// Expected monomials (spec or source netlist) the checked
        /// netlist's polynomial lacks.
        missing: usize,
        /// Checked-netlist monomials the expected polynomial lacks.
        spurious: usize,
    },
    /// Complete algebraic verification refused an output cone whose
    /// polynomial needs a product expansion over the fixed budget
    /// ([`netlist::algebra::MAX_PRODUCT_TERMS`]). Bilinear multipliers
    /// stay far inside it; a wide OR-like cone does not, and fails
    /// here fast rather than exhausting memory.
    TermBudgetExceeded {
        /// The design name.
        design: String,
        /// The output bit whose extraction was refused.
        output_bit: usize,
        /// Terms the refused expansion would have generated.
        terms: usize,
    },
    /// The static depth certificate ([`Pipeline::verify_depth`]) found
    /// an output cone whose gate-level (AND, XOR) depth exceeds the
    /// bound claimed for it — e.g. the Table V delay formula from
    /// `rgf2m_core::delay_spec`. Like [`FlowError::FormalMismatch`],
    /// this is a static proof over the whole netlist, not a sample.
    DepthExceeded {
        /// The design name.
        design: String,
        /// The lowest-index output bit over its bound.
        output_bit: usize,
        /// The actual depth of that output's cone.
        got: netlist::Depth,
        /// The bound it was required to meet.
        bound: netlist::Depth,
    },
    /// The static area certificate ([`Pipeline::verify_area`]) found
    /// more gates of one kind than the bound claimed for the design —
    /// e.g. the Table V `#AND`/`#XOR` formula from
    /// `rgf2m_core::area_spec`. Like [`FlowError::DepthExceeded`],
    /// this is a static proof over the whole netlist, not a sample.
    AreaExceeded {
        /// The design name.
        design: String,
        /// The gate kind over its bound.
        kind: netlist::GateKind,
        /// Gates of that kind in the netlist.
        got: usize,
        /// The bound it was required to meet.
        bound: usize,
    },
    /// The structural lint pass found hard errors (combinational
    /// cycles, undriven signals) — the netlist is not a valid
    /// combinational design, so no verification was attempted.
    LintErrors {
        /// The design name.
        design: String,
        /// Number of error-severity findings.
        errors: usize,
        /// The first error finding, preformatted.
        first: String,
    },
    /// An error relayed verbatim from a remote synthesis daemon (the
    /// `rgf2m_serve` protocol carries failures as preformatted
    /// strings). The message displays exactly as received, so
    /// client-driven batch exports stay byte-identical to in-process
    /// runs that produced the same underlying error.
    Remote {
        /// The daemon's preformatted error message.
        message: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::VerificationMismatch { design } => {
                write!(f, "synthesis flow changed the interface of {design}")
            }
            FlowError::InvalidOptions(msg) => write!(f, "invalid flow options: {msg}"),
            FlowError::FormalMismatch {
                design,
                output_bit,
                missing,
                spurious,
            } => write!(
                f,
                "formal verification of {design} failed at output bit {output_bit}: \
                 {missing} spec monomial(s) missing, {spurious} spurious"
            ),
            FlowError::TermBudgetExceeded {
                design,
                output_bit,
                terms,
            } => write!(
                f,
                "formal verification of {design} gave up at output bit {output_bit}: \
                 a product expansion needs {terms} terms, over the budget of {}",
                netlist::algebra::MAX_PRODUCT_TERMS
            ),
            FlowError::DepthExceeded {
                design,
                output_bit,
                got,
                bound,
            } => write!(
                f,
                "depth certificate of {design} failed at output bit {output_bit}: \
                 depth {got} exceeds the claimed bound {bound}"
            ),
            FlowError::AreaExceeded {
                design,
                kind,
                got,
                bound,
            } => write!(
                f,
                "area certificate of {design} failed: {got} {kind} gate(s) exceed \
                 the claimed bound {bound}"
            ),
            FlowError::LintErrors {
                design,
                errors,
                first,
            } => write!(
                f,
                "{design} failed structural lint with {errors} error(s); first: {first}"
            ),
            FlowError::Remote { message } => f.write_str(message),
        }
    }
}

/// Pluggable persistence for pipeline results — the hook a disk-backed
/// artifact store (e.g. `rgf2m_serve::ArtifactStore`) implements so one
/// [`Pipeline`] can serve repeat traffic across processes and restarts.
///
/// [`Pipeline::run_report_sourced`] and [`Pipeline::lookup`] consult
/// the hook on a memory-cache miss; every computed report feeds it.
/// Implementations must be **key-faithful**: [`ArtifactHook::load`]
/// may only return a report previously stored for exactly that
/// `(content_hash, fingerprint)` pair and design name — anything it
/// cannot vouch for (missing, truncated, wrong schema, mismatched key)
/// must be a `None` miss so the pipeline recomputes. A hook must never
/// panic: persistence failures degrade to recomputation, not errors.
pub trait ArtifactHook: Send + Sync + fmt::Debug {
    /// Looks up the report persisted for this exact cache key, or
    /// `None` (a miss — the pipeline recomputes).
    fn load(&self, design: &str, content_hash: u64, fingerprint: u64) -> Option<ImplReport>;

    /// Persists a freshly computed report under its cache key.
    /// Failures must be swallowed (counted, logged — not raised).
    fn store(&self, content_hash: u64, fingerprint: u64, report: &ImplReport);
}

/// Where a [`Pipeline::run_report_sourced`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportSource {
    /// Served from the in-process memoization cache.
    Memory,
    /// Served by the configured [`ArtifactHook`] (e.g. a disk store).
    Store,
    /// Computed by running the full pipeline.
    Computed,
}

impl ReportSource {
    /// The stable lower-case tag used in serving protocols and logs.
    pub fn tag(self) -> &'static str {
        match self {
            ReportSource::Memory => "memory",
            ReportSource::Store => "store",
            ReportSource::Computed => "computed",
        }
    }
}

/// A snapshot of one [`Pipeline`]'s cache observability counters
/// ([`Pipeline::cache_stats`]). All counters start at zero per pipeline
/// instance (clones restart them) and only ever grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Runs served from the in-process memoization cache.
    pub hits: usize,
    /// Reports served by the [`ArtifactHook`] on a memory miss.
    pub store_hits: usize,
    /// Runs that executed the full pipeline (memory and hook both
    /// missed, or the caller asked for full artifacts with
    /// [`Pipeline::run`]).
    pub misses: usize,
    /// Successful pipeline runs inserted into the memory cache (a miss
    /// that errors is counted in [`CacheStats::misses`] only).
    pub inserts: usize,
    /// Reports currently memoized in the memory cache.
    pub entries: usize,
}

impl std::error::Error for FlowError {}

impl FlowError {
    /// The typed flow error for a failed formal check of `design`.
    fn formal(design: &str, e: FormalError) -> FlowError {
        let design = design.to_string();
        match e {
            FormalError::Interface => FlowError::VerificationMismatch { design },
            FormalError::Mismatch {
                output_bit,
                missing,
                spurious,
            } => FlowError::FormalMismatch {
                design,
                output_bit,
                missing,
                spurious,
            },
            FormalError::TermBudget { output_bit, terms } => FlowError::TermBudgetExceeded {
                design,
                output_bit,
                terms,
            },
        }
    }

    /// `Err(LintErrors)` when `lint` holds a hard finding for `design`.
    fn lint(design: &str, lint: &netlist::LintReport) -> Result<(), FlowError> {
        match lint.first_error() {
            Some(first) => Err(FlowError::LintErrors {
                design: design.to_string(),
                errors: lint.errors(),
                first: first.to_string(),
            }),
            None => Ok(()),
        }
    }
}

/// The fallible, staged, memoizing implementation pipeline.
///
/// The builder starts from the default [`Target::Artix7`] fabric;
/// [`Pipeline::with_target`] re-derives every device-dependent option
/// from another registry preset. The report cache is shared across
/// `&self`, so one `Pipeline` can serve many concurrent callers.
#[derive(Debug)]
pub struct Pipeline {
    target: Target,
    device: Device,
    map_options: MapOptions,
    place_options: PlaceOptions,
    resynthesize: bool,
    cache: Mutex<HashMap<CacheKey, ImplReport>>,
    hits: AtomicUsize,
    store_hits: AtomicUsize,
    misses: AtomicUsize,
    inserts: AtomicUsize,
    /// Persistent second-level store consulted on memory misses; not
    /// part of the options fingerprint (it never changes results).
    hook: Option<Arc<dyn ArtifactHook>>,
}

/// Memoization key: (netlist content hash, options fingerprint), kept
/// as the full 128-bit pair rather than a re-hashed composite. A
/// design-name check on every hit additionally catches collisions
/// between differently-named designs; same-name collisions remain
/// theoretically possible at ~2^-64 per pair. The cache has no
/// eviction; an entry is one [`ImplReport`], a few hundred bytes.
type CacheKey = (u64, u64);

impl Pipeline {
    /// A pipeline targeting the default [`Target::Artix7`] fabric with
    /// default options (resynthesis enabled — the XST-like behaviour)
    /// and an empty report cache.
    pub fn new() -> Self {
        Pipeline {
            target: Target::Artix7,
            device: Target::Artix7.device(),
            map_options: Target::Artix7.map_options(),
            place_options: PlaceOptions::default(),
            resynthesize: true,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            inserts: AtomicUsize::new(0),
            hook: None,
        }
    }

    /// Retargets the pipeline: replaces the device model with the
    /// target's preset and re-derives the device-dependent mapping
    /// options from it — the mapper's LUT width *and* the
    /// width-derived priority-cut budget
    /// ([`MapOptions::default_cuts_for`]); the mapper mode is
    /// preserved. This is the one knob for everything device-dependent.
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self.device = target.device();
        self.map_options = target.map_options().with_mode(self.map_options.mode);
        self
    }

    /// Enables or disables the XOR-cluster resynthesis pass.
    pub fn with_resynthesis(mut self, on: bool) -> Self {
        self.resynthesize = on;
        self
    }

    /// Sets the mapper mode; the LUT width and cut budget stay the
    /// target's.
    pub fn with_map_mode(mut self, mode: MapMode) -> Self {
        self.map_options.mode = mode;
        self
    }

    /// Sets the placement RNG seed (see [`PlaceOptions::seed`]).
    pub fn with_place_seed(mut self, seed: u64) -> Self {
        self.place_options.seed = seed;
        self
    }

    /// Attaches a persistent artifact store ([`ArtifactHook`]): on a
    /// memory-cache miss, [`Pipeline::run_report_sourced`] (and
    /// therefore [`Pipeline::run_report`]) asks the hook before
    /// computing, and every fresh computation is persisted through it.
    /// The hook is shared by [`Pipeline::clone_config`] and is
    /// deliberately *not* part of the options fingerprint — it changes
    /// where results come from, never what they are.
    pub fn with_artifact_hook(mut self, hook: Arc<dyn ArtifactHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The target fabric in use.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The device model in use.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The mapping options in use.
    pub fn map_options(&self) -> &MapOptions {
        &self.map_options
    }

    /// The placement options in use.
    pub fn place_options(&self) -> &PlaceOptions {
        &self.place_options
    }

    /// Whether the resynthesis pass is enabled.
    pub fn resynthesis(&self) -> bool {
        self.resynthesize
    }

    /// Stage 0: dead-code elimination plus (if enabled) XOR-cluster
    /// resynthesis. The output is what [`Pipeline::map`] should consume.
    pub fn resynth(&self, net: &Netlist) -> Result<Netlist, FlowError> {
        let clean = net.eliminate_dead_code();
        Ok(if self.resynthesize {
            crate::resynth::rebalance_xors_in(&clean, self.map_options.k, &NetAnalysis::of(&clean))
        } else {
            clean
        })
    }

    /// Stage 1: priority-cuts k-LUT technology mapping.
    pub fn map(&self, synth: &Netlist) -> Result<LutNetlist, FlowError> {
        Ok(map_to_luts(synth, &self.map_options))
    }

    /// Stage 2: proves `mapped` equivalent to the *source* netlist
    /// `reference` on every input (covering resynthesis and mapping
    /// together): per output bit, the source cone's GF(2) polynomial
    /// must equal the mapped cone's ([`crate::formal::verify_equivalent`]).
    /// No specification is needed, so any XOR/AND design goes through.
    ///
    /// An interface difference is [`FlowError::VerificationMismatch`],
    /// a functional one [`FlowError::FormalMismatch`] naming the first
    /// wrong bit, and a cone too large to expand
    /// [`FlowError::TermBudgetExceeded`]. `mapped` must pass
    /// [`crate::lint::lint_mapped`] first, as [`Pipeline::run`] ensures.
    pub fn verify(&self, reference: &Netlist, mapped: &LutNetlist) -> Result<(), FlowError> {
        crate::formal::verify_equivalent(reference, mapped)
            .map_err(|e| FlowError::formal(reference.name(), e))
    }

    /// Complete, sampling-free verification of a gate-level netlist
    /// against a multiplier specification (`rgf2m_core`'s
    /// `multiplier_spec` builds one from a field).
    ///
    /// Runs the structural lint's error half first
    /// ([`netlist::lint_netlist_errors`]) — hard findings are
    /// [`FlowError::LintErrors`], because no algebraic result over a
    /// broken netlist means anything; warnings come from the full
    /// [`netlist::lint_netlist`] — then rewrites every output cone
    /// into its GF(2) polynomial (fanned out per output bit) and
    /// requires syntactic equality with the spec. A pass
    /// certifies the design on *all* operand pairs; a failure is
    /// [`FlowError::FormalMismatch`] naming the first wrong bit.
    pub fn verify_formal(&self, spec: &netlist::MulSpec, net: &Netlist) -> Result<(), FlowError> {
        FlowError::lint(net.name(), &netlist::lint_netlist_errors(net))?;
        crate::formal::verify_netlist(spec, net).map_err(|e| FlowError::formal(net.name(), e))
    }

    /// Static depth certificate: requires every output cone of the
    /// *gate-level* netlist to meet its claimed (AND, XOR) depth bound.
    ///
    /// The spec is typically `rgf2m_core::delay_spec`'s replay of the
    /// paper's Table V delay formula for a method × field pair, making
    /// this a machine-checked version of the paper's `T_A + nT_X`
    /// claims: a pass proves *no* input→output path is deeper than the
    /// formula, a failure is [`FlowError::DepthExceeded`] naming the
    /// first offending output bit. The check is purely structural
    /// (no device model involved) and runs before resynthesis — it
    /// certifies the generator's algebraic structure.
    pub fn verify_depth(&self, spec: &netlist::DepthSpec, net: &Netlist) -> Result<(), FlowError> {
        if net.outputs().len() != spec.num_outputs() {
            return Err(FlowError::VerificationMismatch {
                design: net.name().to_string(),
            });
        }
        netlist::check_depths(net, spec).map_err(|e| FlowError::DepthExceeded {
            design: net.name().to_string(),
            output_bit: e.output_bit,
            got: e.got,
            bound: e.bound,
        })
    }

    /// Static area certificate: requires the *gate-level* netlist to
    /// hold no more AND / XOR gates than the per-kind bounds claimed
    /// for it.
    ///
    /// The spec is typically `rgf2m_core::area_spec`'s replay of the
    /// paper's Table V `#AND`/`#XOR` formulas for a method × field
    /// pair, making this the area counterpart of
    /// [`Pipeline::verify_depth`]: a pass proves the generator emitted
    /// no gate beyond the formula, a failure is
    /// [`FlowError::AreaExceeded`] naming the offending gate kind.
    /// The check is `≤` per kind, so rewrites that *shrink* a design
    /// below its formula keep passing; the specs themselves are exact,
    /// so any spurious gate fails the certificate.
    pub fn verify_area(&self, spec: &netlist::AreaSpec, net: &Netlist) -> Result<(), FlowError> {
        netlist::check_area(net, spec).map_err(|e| FlowError::AreaExceeded {
            design: net.name().to_string(),
            kind: e.kind,
            got: e.got,
            bound: e.bound,
        })
    }

    /// [`Pipeline::verify_formal`] for a mapped netlist: LUT cones are
    /// expanded through the algebraic normal form of their truth
    /// tables ([`crate::lut::Truth::anf`]), so the certificate covers
    /// resynthesis *and* mapping in one step. The precondition is the
    /// mapped lint's error half ([`crate::lint::lint_mapped_errors`]).
    pub fn verify_formal_mapped(
        &self,
        spec: &netlist::MulSpec,
        mapped: &LutNetlist,
    ) -> Result<(), FlowError> {
        FlowError::lint(mapped.name(), &crate::lint::lint_mapped_errors(mapped))?;
        crate::formal::verify_mapped(spec, mapped).map_err(|e| FlowError::formal(mapped.name(), e))
    }

    /// Stage 3: slice packing.
    pub fn pack(&self, mapped: &LutNetlist) -> Result<Packing, FlowError> {
        Ok(pack_slices(mapped, self.device.luts_per_slice))
    }

    /// Stage 4: simulated-annealing placement.
    pub fn place(&self, mapped: &LutNetlist, packing: &Packing) -> Result<Placement, FlowError> {
        Ok(place(mapped, packing, &self.place_options))
    }

    /// Stage 5: static timing analysis (infallible once placed).
    pub fn time(&self, mapped: &LutNetlist, packing: &Packing, placement: &Placement) -> StaReport {
        analyze(mapped, packing, placement, &self.device)
    }

    /// Runs every stage for `net` and returns every intermediate
    /// artifact, without probing either cache tier. The summary then
    /// fills the memory cache and the [`ArtifactHook`], so later
    /// [`Pipeline::run_report`] calls for the design are hits; the
    /// artifacts themselves belong to the caller alone.
    pub fn run(&self, net: &Netlist) -> Result<FlowArtifacts, FlowError> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let synth = self.resynth(net)?;
        let mapped = self.map(&synth)?;
        // Structural lint before any verification: hard findings abort
        // the run, hygiene counts flow into the report (the lint pass
        // is the single source of truth for them).
        let lint = crate::lint::lint_mapped(&mapped);
        FlowError::lint(net.name(), &lint)?;
        self.verify(net, &mapped)?;
        let packing = self.pack(&mapped)?;
        let placement = self.place(&mapped, &packing)?;
        let timing = self.time(&mapped, &packing, &placement);
        // Gate-level depth of the *source* netlist: the algebraic
        // delay claim, deliberately measured before resynthesis.
        let gate_depth =
            netlist::output_depths(net)
                .into_iter()
                .fold(netlist::Depth::default(), |w, d| netlist::Depth {
                    ands: w.ands.max(d.ands),
                    xors: w.xors.max(d.xors),
                });
        // Source-netlist area (the Table V #AND/#XOR claim) and the
        // structural-hashing dividend: gates a strash rewrite would
        // reclaim (0 for every hash-consed generator — a positive
        // sharing certificate carried into the report).
        let gate_stats = net.stats();
        let (_, dedup_saved) = netlist::strash_dedup(net);
        let report = ImplReport {
            name: net.name().to_string(),
            luts: mapped.num_luts(),
            slices: packing.num_slices(),
            depth: mapped.depth(),
            time_ns: timing.critical_ns,
            dup_gates: lint.duplicate_gates(),
            dead_nodes: lint.dead_nodes(),
            worst_slack_ns: timing.worst_slack_ns,
            and_depth: gate_depth.ands,
            xor_depth: gate_depth.xors,
            and_gates: gate_stats.ands,
            xor_gates: gate_stats.xors,
            dedup_saved,
        };
        let key = self.cache_key(net);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.cache
            .lock()
            .expect("pipeline cache poisoned")
            .insert(key, report.clone());
        if let Some(hook) = &self.hook {
            hook.store(key.0, key.1, &report);
        }
        Ok(FlowArtifacts {
            mapped,
            packing,
            placement,
            timing,
            report,
        })
    }

    /// Runs the whole pipeline and returns just the Table V-style
    /// summary, from the memory cache when this pipeline has computed
    /// the design before. With an [`ArtifactHook`] attached, a memory
    /// miss consults the persistent store before computing — see
    /// [`Pipeline::run_report_sourced`] to learn which tier served.
    pub fn run_report(&self, net: &Netlist) -> Result<ImplReport, FlowError> {
        self.run_report_sourced(net).map(|(report, _)| report)
    }

    /// [`Pipeline::run_report`] plus the provenance of the result: the
    /// memory cache, the attached [`ArtifactHook`] store, or a fresh
    /// computation. The serving daemon uses this to label responses and
    /// meter traffic.
    ///
    /// Tier order on each call: [`Pipeline::lookup`] (memory cache →
    /// artifact hook), else [`Pipeline::run`] (which then fills the
    /// memory cache *and* the hook). A hook hit does not fill the
    /// memory cache, so repeat hook hits stay hook hits until something
    /// computes the design in-process.
    pub fn run_report_sourced(
        &self,
        net: &Netlist,
    ) -> Result<(ImplReport, ReportSource), FlowError> {
        if let Some(hit) = self.lookup(net.name(), net.content_hash()) {
            return Ok(hit);
        }
        self.run(net)
            .map(|artifacts| (artifacts.report, ReportSource::Computed))
    }

    /// The cache tiers of [`Pipeline::run_report_sourced`] alone, for a
    /// design known by its name and [`Netlist::content_hash`]: the
    /// memory cache, then the attached [`ArtifactHook`]. `None` is a
    /// miss in both; nothing is computed. A caller that already knows
    /// which netlist a request produces can skip generating it on a
    /// hit. The hit counters are the ones `run_report_sourced` bumps.
    /// A design-name mismatch on an equal key is a hash collision and
    /// treated as a miss.
    pub fn lookup(&self, name: &str, content_hash: u64) -> Option<(ImplReport, ReportSource)> {
        let fingerprint = self.options_fingerprint();
        let hit = self
            .cache
            .lock()
            .expect("pipeline cache poisoned")
            .get(&(content_hash, fingerprint))
            .filter(|hit| hit.name == name)
            .cloned();
        if let Some(report) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((report, ReportSource::Memory));
        }
        let report = self.hook.as_ref()?.load(name, content_hash, fingerprint)?;
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        Some((report, ReportSource::Store))
    }

    /// A snapshot of every cache observability counter: memory hits,
    /// [`ArtifactHook`] store hits, full computations, memory fills and
    /// the current entry count ([`CacheStats`]). The serving daemon's
    /// `stats` endpoint aggregates these across its pipelines; tests
    /// use them to prove warm replays recompute nothing.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.cache.lock().expect("pipeline cache poisoned").len(),
        }
    }

    /// A fresh pipeline with the same configuration and artifact hook but
    /// an **empty** cache, for callers that fan a template out per job
    /// with different seeds or targets.
    pub fn clone_config(&self) -> Pipeline {
        Pipeline {
            target: self.target,
            device: self.device.clone(),
            map_options: self.map_options.clone(),
            place_options: self.place_options.clone(),
            resynthesize: self.resynthesize,
            hook: self.hook.clone(),
            ..Pipeline::new()
        }
    }

    /// A stable fingerprint of every option that affects results; part
    /// of the memoization key. Includes the target name, so retargeted
    /// clones of one configuration never collide in a shared cache even
    /// where two fabrics agree on every numeric constant.
    ///
    /// The byte stream is frozen: the fingerprint names every
    /// artifact-store file (`rgf2m-{hash}-{fingerprint}.json`), so
    /// changing it would orphan every persisted store.
    pub fn options_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(self.target.name());
        h.write_usize(self.device.lut_inputs);
        h.write_usize(self.device.luts_per_slice);
        for t in [
            self.device.t_ibuf_ns,
            self.device.t_obuf_ns,
            self.device.t_lut_ns,
            self.device.t_net_ns,
            self.device.t_net_per_unit_ns,
            self.device.t_net_per_fanout_ns,
        ] {
            h.write_f64(t);
        }
        h.write_usize(self.map_options.k);
        h.write_usize(self.map_options.cuts_per_node);
        h.write_u64(match self.map_options.mode {
            MapMode::Free => 0,
            MapMode::FanoutPreserving => 1,
        });
        h.write_u64(self.place_options.seed);
        h.write_usize(self.place_options.moves_factor);
        h.write_usize(self.place_options.max_total_moves);
        h.write_u64(u64::from(self.resynthesize));
        // The retired slice-capacity option's "none" tag, kept so
        // persisted store keys do not move.
        h.write_u64(0);
        h.finish()
    }

    fn cache_key(&self, net: &Netlist) -> CacheKey {
        (net.content_hash(), self.options_fingerprint())
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_tree(leaves: usize) -> Netlist {
        let mut net = Netlist::new(format!("xor{leaves}"));
        let ins: Vec<_> = (0..leaves).map(|i| net.input(format!("x{i}"))).collect();
        let root = net.xor_balanced(&ins);
        net.output("y", root);
        net
    }

    #[test]
    fn cache_serves_repeat_runs() {
        let net = xor_tree(32);
        let p = Pipeline::new();
        let first = p.run_report(&net).unwrap();
        assert_eq!((p.cache_stats().hits, p.cache_stats().entries), (0, 1));
        let second = p.run_report(&net).unwrap();
        assert_eq!((p.cache_stats().hits, p.cache_stats().entries), (1, 1));
        assert_eq!(first, second);
        // A structurally different design is a different key.
        let other = xor_tree(33);
        p.run_report(&other).unwrap();
        assert_eq!(p.cache_stats().entries, 2);
    }

    #[test]
    fn changed_options_change_the_cache_key() {
        let net = xor_tree(32);
        let a = Pipeline::new();
        let b = Pipeline::new().with_resynthesis(false);
        assert_ne!(a.cache_key(&net), b.cache_key(&net));
        let c = Pipeline::new().with_place_seed(777);
        assert_ne!(a.cache_key(&net), c.cache_key(&net));
        // Retargeting changes the key too — a shared cache can never
        // hand one fabric's artifacts to another.
        let d = Pipeline::new().with_target(Target::Virtex5);
        assert_ne!(a.cache_key(&net), d.cache_key(&net));
    }

    #[test]
    fn with_target_rederives_device_and_k() {
        for target in Target::ALL {
            let p = Pipeline::new()
                .with_map_mode(MapMode::FanoutPreserving)
                .with_target(target);
            assert_eq!(p.target(), target);
            assert_eq!(p.device(), &target.device());
            assert_eq!(p.map_options().k, target.lut_inputs());
            // The cut budget is device-derived (it follows the fabric's
            // LUT width), while the mapper mode survives retargeting.
            assert_eq!(
                p.map_options().cuts_per_node,
                MapOptions::default_cuts_for(target.lut_inputs()),
                "{target}"
            );
            assert_eq!(p.map_options().mode, MapMode::FanoutPreserving);
        }
    }

    #[test]
    fn every_target_runs_the_flow_end_to_end() {
        let net = xor_tree(48);
        for target in Target::ALL {
            let artifacts = Pipeline::new()
                .with_target(target)
                .run(&net)
                .unwrap_or_else(|e| panic!("{target}: {e}"));
            let r = &artifacts.report;
            assert!(r.luts > 0 && r.time_ns > 0.0, "{target}: {r:?}");
            // No mapped LUT may exceed the fabric's input width.
            assert!(
                artifacts
                    .mapped
                    .luts()
                    .iter()
                    .all(|l| l.inputs.len() <= target.lut_inputs()),
                "{target}"
            );
        }
    }

    #[test]
    fn narrower_fabrics_need_more_luts_and_depth() {
        // A 48-leaf XOR tree: LUT4 needs strictly more LUTs and levels
        // than LUT6, which needs at least as many as the 8-input ALM.
        let net = xor_tree(48);
        let by_target = |t: Target| Pipeline::new().with_target(t).run_report(&net).unwrap();
        let narrow = by_target(Target::Spartan3);
        let mid = by_target(Target::Artix7);
        let wide = by_target(Target::StratixAlm);
        assert!(narrow.luts > mid.luts, "{} <= {}", narrow.luts, mid.luts);
        assert!(narrow.depth >= mid.depth);
        assert!(wide.luts <= mid.luts);
        assert!(wide.depth <= mid.depth);
    }

    #[test]
    fn corrupted_mapping_fails_verification() {
        let net = xor_tree(24);
        let p = Pipeline::new();
        let synth = p.resynth(&net).unwrap();
        let mut mapped = p.map(&synth).unwrap();
        p.verify(&net, &mapped).unwrap();
        // Complement one LUT's truth table: the output polynomial gains
        // the constant term, which the proof names exactly.
        mapped.set_truth(0, !mapped.luts()[0].truth);
        match p.verify(&net, &mapped) {
            Err(FlowError::FormalMismatch {
                design,
                output_bit,
                missing,
                spurious,
            }) => {
                assert_eq!(design, "xor24");
                assert_eq!((output_bit, missing, spurious), (0, 0, 1));
            }
            other => panic!("expected FormalMismatch, got {other:?}"),
        }
    }

    #[test]
    fn stages_compose_to_the_same_report_as_run() {
        let net = xor_tree(40);
        let p = Pipeline::new();
        let synth = p.resynth(&net).unwrap();
        let mapped = p.map(&synth).unwrap();
        p.verify(&net, &mapped).unwrap();
        let packing = p.pack(&mapped).unwrap();
        let placement = p.place(&mapped, &packing).unwrap();
        let timing = p.time(&mapped, &packing, &placement);
        let whole = p.run(&net).unwrap();
        assert_eq!(whole.report.luts, mapped.num_luts());
        assert_eq!(whole.report.slices, packing.num_slices());
        assert_eq!(whole.report.time_ns, timing.critical_ns);
    }

    #[test]
    fn pipeline_is_deterministic_across_runs() {
        let net = xor_tree(48);
        let r1 = Pipeline::new().run_report(&net).unwrap();
        let r2 = Pipeline::new().run_report(&net).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn dead_logic_does_not_cost_luts() {
        let mut net = Netlist::new("dead");
        let a = net.input("a");
        let b = net.input("b");
        let live = net.xor(a, b);
        let d1 = net.and(a, b);
        let _d2 = net.xor(d1, a);
        net.output("y", live);
        let report = Pipeline::new().run_report(&net).unwrap();
        assert_eq!(report.luts, 1);
    }

    #[test]
    fn bigger_designs_cost_more_area_time() {
        let p = Pipeline::new();
        let small = p.run_report(&xor_tree(8)).unwrap();
        let big = p.run_report(&xor_tree(128)).unwrap();
        assert!(big.luts > small.luts);
        assert!(big.area_time() > small.area_time());
    }

    #[test]
    fn report_display_mentions_all_metrics() {
        let r = Pipeline::new().run_report(&xor_tree(8)).unwrap();
        let text = r.to_string();
        assert!(text.contains("LUTs"));
        assert!(text.contains("ns"));
        assert!(text.contains("A×T"));
    }

    #[test]
    fn options_fingerprint_covers_every_result_option() {
        // Rebuilding the defaults through the five setters lands on the
        // default fingerprint...
        let fp = Pipeline::new().options_fingerprint();
        let rebuilt = Pipeline::new()
            .with_target(Target::Artix7)
            .with_map_mode(MapMode::Free)
            .with_resynthesis(true)
            .with_place_seed(PlaceOptions::default().seed)
            .with_artifact_hook(Arc::new(MemHook::default()));
        assert_eq!(rebuilt.options_fingerprint(), fp);
        // ...a config clone leaves it alone...
        assert_eq!(rebuilt.clone_config().options_fingerprint(), fp);
        // ...and each result-bearing setter moves it.
        for changed in [
            Pipeline::new().with_target(Target::Virtex5),
            Pipeline::new().with_map_mode(MapMode::FanoutPreserving),
            Pipeline::new().with_resynthesis(false),
            Pipeline::new().with_place_seed(42),
        ] {
            assert_ne!(changed.options_fingerprint(), fp);
        }
    }

    #[test]
    fn options_fingerprints_are_pinned_store_keys() {
        // Every artifact-store file is named by its fingerprint, so these
        // values must never move: a change orphans every persisted store.
        assert_eq!(Pipeline::new().options_fingerprint(), 0x3dce_af81_fe8f_bd79);
        let stratix = Pipeline::new()
            .with_target(Target::StratixAlm)
            .with_place_seed(777);
        assert_eq!(stratix.options_fingerprint(), 0xe9fa_650b_1ec8_96d4);
        let spartan = Pipeline::new()
            .with_map_mode(MapMode::FanoutPreserving)
            .with_resynthesis(false)
            .with_target(Target::Spartan3);
        assert_eq!(spartan.options_fingerprint(), 0xe568_232e_913c_f0a3);
    }

    /// `y = x0 ∨ … ∨ x{n-1}` as a chain of `x ⊕ y ⊕ xy`, whose
    /// polynomial has `2^n − 1` terms.
    fn or_chain(n: usize) -> Netlist {
        let mut net = Netlist::new(format!("or{n}"));
        let ins: Vec<_> = (0..n).map(|i| net.input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            let both = net.and(acc, x);
            let either = net.xor(acc, x);
            acc = net.xor(either, both);
        }
        net.output("y", acc);
        net
    }

    #[test]
    fn oversized_cones_fail_fast_on_the_term_budget() {
        let net = or_chain(48);
        let p = Pipeline::new();
        let expect_budget = |r: Result<(), FlowError>| match r {
            Err(FlowError::TermBudgetExceeded {
                design,
                output_bit,
                terms,
            }) => {
                assert_eq!((design.as_str(), output_bit), ("or48", 0));
                assert!(terms > netlist::algebra::MAX_PRODUCT_TERMS, "{terms}");
            }
            other => panic!("expected TermBudgetExceeded, got {other:?}"),
        };
        let start = std::time::Instant::now();
        expect_budget(p.run(&net).map(|_| ()));
        let mapped = p.map(&p.resynth(&net).unwrap()).unwrap();
        expect_budget(p.verify(&net, &mapped));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
        // A narrow OR is inside the budget and proves equivalent.
        p.run(&or_chain(8)).unwrap();
    }

    #[test]
    fn run_reports_hygiene_counts() {
        let report = Pipeline::new().run_report(&xor_tree(48)).unwrap();
        // The mapper emits no duplicate and no dead LUTs on a clean
        // design; the report proves the lint pass agrees.
        assert_eq!(report.dup_gates, 0);
        assert_eq!(report.dead_nodes, 0);
    }

    #[test]
    fn formal_verification_accepts_and_rejects() {
        use netlist::algebra::{Monomial, Poly};
        // GF(2^2) multiplier, f = y² + y + 1 (hand-derived spec).
        let spec = netlist::MulSpec::new(
            2,
            vec![
                Poly::from_monomials(vec![Monomial::product(&[0, 2]), Monomial::product(&[1, 3])]),
                Poly::from_monomials(vec![
                    Monomial::product(&[0, 3]),
                    Monomial::product(&[1, 2]),
                    Monomial::product(&[1, 3]),
                ]),
            ],
        );
        let mut net = Netlist::new("gf4");
        let a0 = net.input("a0");
        let a1 = net.input("a1");
        let b0 = net.input("b0");
        let b1 = net.input("b1");
        let p00 = net.and(a0, b0);
        let p01 = net.and(a0, b1);
        let p10 = net.and(a1, b0);
        let p11 = net.and(a1, b1);
        let c0 = net.xor(p00, p11);
        let c1a = net.xor(p01, p10);
        let c1 = net.xor(c1a, p11);
        net.output("c0", c0);
        net.output("c1", c1);

        let p = Pipeline::new();
        p.verify_formal(&spec, &net).unwrap();
        let synth = p.resynth(&net).unwrap();
        let mut mapped = p.map(&synth).unwrap();
        p.verify_formal_mapped(&spec, &mapped).unwrap();

        // A flipped truth bit is caught with a named output bit.
        let bad = {
            let mut t = mapped.luts()[mapped.num_luts() - 1].truth;
            t.0[0] ^= 1;
            t
        };
        mapped.set_truth(mapped.num_luts() as u32 - 1, bad);
        match p.verify_formal_mapped(&spec, &mapped) {
            Err(FlowError::FormalMismatch {
                design,
                output_bit,
                missing,
                spurious,
            }) => {
                assert_eq!(design, "gf4");
                assert!(output_bit < 2);
                assert!(missing + spurious > 0);
            }
            other => panic!("expected FormalMismatch, got {other:?}"),
        }

        // An interface mismatch is still VerificationMismatch.
        let wrong_m = netlist::MulSpec::new(3, vec![Poly::zero(), Poly::zero(), Poly::zero()]);
        assert!(matches!(
            p.verify_formal(&wrong_m, &net),
            Err(FlowError::VerificationMismatch { .. })
        ));
    }

    #[test]
    fn formal_lint_preconditions_fail_as_the_full_lint_did() {
        use crate::lut::{Lut, Signal, Truth};
        use netlist::{Gate, MulSpec, Poly};
        let p = Pipeline::new();
        let spec = MulSpec::new(1, vec![Poly::var(0)]);

        // Gate level: outputs reading an undeclared primary input.
        let mut net = Netlist::new("ghost");
        let a = net.input("a0");
        let b = net.input("b0");
        let ghost = net.push_raw(Gate::Input(7));
        let y = net.xor(a, ghost);
        net.and(a, b); // dead: a warning the precondition skips
        net.output("c0", y);
        let full = FlowError::lint(net.name(), &netlist::lint_netlist(&net)).unwrap_err();
        let got = p.verify_formal(&spec, &net).unwrap_err();
        assert_eq!(got, full);
        assert_eq!(
            got.to_string(),
            "ghost failed structural lint with 2 error(s); first: error[undriven-input]: \
             node 2 reads primary input 7, but only 2 are declared"
        );

        // Mapped: a forward reference, a missing LUT, an undeclared
        // input, an output reading a missing LUT.
        let defects: [(Signal, Signal); 4] = [
            (Signal::Lut(2), Signal::Lut(1)),
            (Signal::Lut(40), Signal::Lut(1)),
            (Signal::Input(9), Signal::Lut(1)),
            (Signal::Input(0), Signal::Lut(77)),
        ];
        let mut messages = Vec::new();
        for (bad_input, bad_output) in defects {
            let names = vec!["a0".to_string(), "b0".to_string()];
            let mut mapped = LutNetlist::new("broken".into(), 4, names);
            let l0 = mapped.push_lut(Lut {
                inputs: vec![Signal::Input(0), bad_input],
                truth: Truth::of(0b0110),
            });
            mapped.push_lut(Lut {
                inputs: vec![Signal::Lut(l0), Signal::Input(1)],
                truth: Truth::of(0b1000),
            });
            mapped.push_lut(Lut {
                inputs: vec![Signal::Input(1)],
                truth: Truth::of(0b01),
            }); // dead
            mapped.push_output("c0".into(), bad_output);
            let full =
                FlowError::lint(mapped.name(), &crate::lint::lint_mapped(&mapped)).unwrap_err();
            let got = p.verify_formal_mapped(&spec, &mapped).unwrap_err();
            assert_eq!(got, full);
            messages.push(got.to_string());
        }
        assert_eq!(
            messages,
            [
                "broken failed structural lint with 2 error(s); first: error[combinational-cycle]: \
                 LUT 0 input 1 reads LUT 2, which does not precede it (cone of c0)",
                "broken failed structural lint with 2 error(s); first: error[undriven-input]: \
                 LUT 0 input 1 reads LUT 40, which does not exist (cone of c0)",
                "broken failed structural lint with 2 error(s); first: error[undriven-input]: \
                 LUT 0 input 1 reads primary input 9, but only 2 are declared (cone of c0)",
                "broken failed structural lint with 1 error(s); first: error[undriven-input]: \
                 output 0 (c0) reads LUT 77, which does not exist",
            ]
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = FlowError::VerificationMismatch { design: "d".into() };
        assert!(e.to_string().contains("changed the interface of d"));
        let e = FlowError::InvalidOptions("k".into());
        assert!(e.to_string().contains("invalid flow options"));
        let e = FlowError::FormalMismatch {
            design: "d".into(),
            output_bit: 7,
            missing: 2,
            spurious: 1,
        };
        let text = e.to_string();
        assert!(text.contains("output bit 7"), "{text}");
        assert!(text.contains("2 spec monomial(s) missing"), "{text}");
        let e = FlowError::TermBudgetExceeded {
            design: "d".into(),
            output_bit: 3,
            terms: 1 << 30,
        };
        let text = e.to_string();
        assert!(text.contains("of d gave up at output bit 3"), "{text}");
        assert!(text.contains("needs 1073741824 terms"), "{text}");
        let e = FlowError::LintErrors {
            design: "d".into(),
            errors: 3,
            first: "error[combinational-cycle]: LUT 5".into(),
        };
        let text = e.to_string();
        assert!(text.contains("structural lint with 3 error(s)"), "{text}");
        assert!(text.contains("combinational-cycle"), "{text}");
        let e = FlowError::DepthExceeded {
            design: "d".into(),
            output_bit: 4,
            got: netlist::Depth { ands: 1, xors: 9 },
            bound: netlist::Depth { ands: 1, xors: 5 },
        };
        let text = e.to_string();
        assert!(text.contains("output bit 4"), "{text}");
        assert!(text.contains("TA + 9TX"), "{text}");
        assert!(text.contains("bound TA + 5TX"), "{text}");
        let e = FlowError::AreaExceeded {
            design: "d".into(),
            kind: netlist::GateKind::Xor,
            got: 78,
            bound: 76,
        };
        let text = e.to_string();
        assert!(text.contains("area certificate of d"), "{text}");
        assert!(text.contains("78 XOR gate(s)"), "{text}");
        assert!(text.contains("bound 76"), "{text}");
    }

    #[test]
    fn verify_depth_certifies_and_rejects() {
        let net = xor_tree(8); // balanced over 8 leaves: depth 3TX
        let p = Pipeline::new();
        let exact = netlist::DepthSpec::new(vec![netlist::Depth { ands: 0, xors: 3 }]);
        p.verify_depth(&exact, &net).unwrap();

        let tight = netlist::DepthSpec::new(vec![netlist::Depth { ands: 0, xors: 2 }]);
        match p.verify_depth(&tight, &net) {
            Err(FlowError::DepthExceeded {
                design,
                output_bit,
                got,
                bound,
            }) => {
                assert_eq!(design, "xor8");
                assert_eq!(output_bit, 0);
                assert_eq!(got, netlist::Depth { ands: 0, xors: 3 });
                assert_eq!(bound, netlist::Depth { ands: 0, xors: 2 });
            }
            other => panic!("expected DepthExceeded, got {other:?}"),
        }

        // Output-count mismatch stays a typed interface error, never a
        // panic from the underlying checker.
        let short = netlist::DepthSpec::new(vec![]);
        assert!(matches!(
            p.verify_depth(&short, &net),
            Err(FlowError::VerificationMismatch { .. })
        ));
    }

    #[test]
    fn verify_area_certifies_and_rejects() {
        let net = xor_tree(8); // 7 XOR gates, 0 ANDs
        let p = Pipeline::new();
        p.verify_area(&netlist::AreaSpec::new(0, 7), &net).unwrap();
        // Slack above the bound still passes (the check is ≤).
        p.verify_area(&netlist::AreaSpec::new(1, 9), &net).unwrap();
        match p.verify_area(&netlist::AreaSpec::new(0, 6), &net) {
            Err(FlowError::AreaExceeded {
                design,
                kind,
                got,
                bound,
            }) => {
                assert_eq!(design, "xor8");
                assert_eq!(kind, netlist::GateKind::Xor);
                assert_eq!((got, bound), (7, 6));
            }
            other => panic!("expected AreaExceeded, got {other:?}"),
        }
    }

    /// An in-memory [`ArtifactHook`] for tests: a HashMap-backed store
    /// with call counters.
    #[derive(Debug, Default)]
    struct MemHook {
        saved: Mutex<HashMap<(u64, u64), ImplReport>>,
        loads: AtomicUsize,
        stores: AtomicUsize,
    }

    impl ArtifactHook for MemHook {
        fn load(&self, design: &str, content_hash: u64, fingerprint: u64) -> Option<ImplReport> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.saved
                .lock()
                .unwrap()
                .get(&(content_hash, fingerprint))
                .filter(|r| r.name == design)
                .cloned()
        }

        fn store(&self, content_hash: u64, fingerprint: u64, report: &ImplReport) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.saved
                .lock()
                .unwrap()
                .insert((content_hash, fingerprint), report.clone());
        }
    }

    #[test]
    fn cache_stats_track_hits_misses_and_inserts() {
        let net = xor_tree(32);
        let p = Pipeline::new();
        assert_eq!(p.cache_stats(), CacheStats::default());
        p.run_report(&net).unwrap();
        assert_eq!(
            p.cache_stats(),
            CacheStats {
                hits: 0,
                store_hits: 0,
                misses: 1,
                inserts: 1,
                entries: 1
            }
        );
        p.run_report(&net).unwrap();
        let stats = p.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // A failing run is a miss without an insert.
        let p = Pipeline::new();
        assert!(p.run_report(&or_chain(48)).is_err());
        let stats = p.cache_stats();
        assert_eq!((stats.misses, stats.inserts, stats.entries), (1, 0, 0));
    }

    #[test]
    fn artifact_hook_serves_memory_misses_and_receives_fills() {
        let net = xor_tree(32);
        let hook = Arc::new(MemHook::default());
        let cold = Pipeline::new().with_artifact_hook(hook.clone());
        let report = cold.run_report(&net).unwrap();
        assert_eq!(hook.stores.load(Ordering::Relaxed), 1);
        // A repeat on the same pipeline is a *memory* hit — the hook is
        // not even asked.
        let loads_before = hook.loads.load(Ordering::Relaxed);
        let (again, source) = cold.run_report_sourced(&net).unwrap();
        assert_eq!(source, ReportSource::Memory);
        assert_eq!(again, report);
        assert_eq!(hook.loads.load(Ordering::Relaxed), loads_before);
        // A fresh pipeline (empty memory) with the same hook is served
        // from the store, with zero recomputation.
        let warm = Pipeline::new().with_artifact_hook(hook.clone());
        let (served, source) = warm.run_report_sourced(&net).unwrap();
        assert_eq!(source, ReportSource::Store);
        assert_eq!(served, report);
        let stats = warm.cache_stats();
        assert_eq!((stats.store_hits, stats.misses), (1, 0));
        // Different options fingerprint → different key → the hook
        // misses and the pipeline recomputes.
        let other = Pipeline::new()
            .with_place_seed(777)
            .with_artifact_hook(hook.clone());
        let (_, source) = other.run_report_sourced(&net).unwrap();
        assert_eq!(source, ReportSource::Computed);
        // A config clone shares the hook: its first run is a store hit.
        let (_, source) = warm.clone_config().run_report_sourced(&net).unwrap();
        assert_eq!(source, ReportSource::Store);
    }

    #[test]
    fn lookup_probes_the_tiers_without_computing() {
        let net = xor_tree(32);
        let (name, hash) = (net.name(), net.content_hash());
        let hook = Arc::new(MemHook::default());
        let p = Pipeline::new().with_artifact_hook(hook.clone());
        assert_eq!(p.lookup(name, hash), None);
        assert_eq!(p.cache_stats(), CacheStats::default());
        let report = p.run_report(&net).unwrap();
        assert_eq!(
            p.lookup(name, hash),
            Some((report.clone(), ReportSource::Memory))
        );
        // A fresh pipeline over the same hook: a store hit, counted.
        let warm = Pipeline::new().with_artifact_hook(hook.clone());
        assert_eq!(warm.lookup(name, hash), Some((report, ReportSource::Store)));
        assert_eq!(
            (warm.cache_stats().store_hits, warm.cache_stats().misses),
            (1, 0)
        );
        // A name that does not match the key is a collision: a miss.
        assert_eq!(p.lookup("other", hash), None);
        assert_eq!(warm.lookup("other", hash), None);
    }

    #[test]
    fn compute_report_probes_no_tier_and_fills_both() {
        // The compute step is `run`: it probes neither tier, but its
        // report fills both.
        let net = xor_tree(32);
        let hook = Arc::new(MemHook::default());
        let p = Pipeline::new().with_artifact_hook(hook.clone());
        let report = p.run(&net).unwrap().report;
        assert_eq!(hook.loads.load(Ordering::Relaxed), 0);
        assert_eq!(hook.stores.load(Ordering::Relaxed), 1);
        assert_eq!(
            p.run_report_sourced(&net).unwrap(),
            (report, ReportSource::Memory)
        );
        assert_eq!((p.cache_stats().hits, p.cache_stats().misses), (1, 1));
    }

    #[test]
    fn full_artifact_runs_bypass_hook_loads_but_still_persist() {
        let net = xor_tree(24);
        let hook = Arc::new(MemHook::default());
        let p = Pipeline::new().with_artifact_hook(hook.clone());
        p.run(&net).unwrap();
        // With the design in both tiers, `run` still recomputes: the
        // full artifacts are never cached, so no load is attempted.
        p.run(&net).unwrap();
        let fresh = Pipeline::new().with_artifact_hook(hook.clone());
        fresh.run(&net).unwrap();
        assert_eq!((p.cache_stats().misses, fresh.cache_stats().misses), (2, 1));
        assert_eq!(hook.loads.load(Ordering::Relaxed), 0);
        assert_eq!(hook.stores.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn remote_error_displays_verbatim() {
        let e = FlowError::Remote {
            message: "job 3: (16, 2) is not a valid type II pentanomial: reducible".into(),
        };
        // No prefix, no decoration: exports built from relayed errors
        // must byte-match in-process ones.
        assert_eq!(
            e.to_string(),
            "job 3: (16, 2) is not a valid type II pentanomial: reducible"
        );
    }

    #[test]
    fn report_carries_slack_and_gate_depth() {
        let net = xor_tree(16); // 4 balanced XOR levels, no ANDs
        let report = Pipeline::new().run_report(&net).unwrap();
        assert_eq!(report.and_depth, 0);
        assert_eq!(report.xor_depth, 4);
        // Default STA target is the critical delay itself.
        assert!(
            report.worst_slack_ns.abs() < 1e-9,
            "{}",
            report.worst_slack_ns
        );
        assert!(report.to_string().contains("gate depth 4TX"), "{report}");
        // Source-netlist area and the strash dividend ride along: a
        // hash-consed tree has nothing left for strash to reclaim.
        assert_eq!((report.and_gates, report.xor_gates), (0, 15));
        assert_eq!(report.dedup_saved, 0);
    }
}
