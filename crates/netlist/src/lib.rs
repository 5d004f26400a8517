//! Gate-level XOR/AND netlists (XAGs) with hash-consing construction,
//! bit-parallel simulation, structural analysis and BLIF export.
//!
//! The multipliers of Imaña (DATE 2018) are pure combinational networks
//! of 2-input AND gates (the partial products `a_i·b_j`) and 2-input XOR
//! gates. This crate is the intermediate representation those generator
//! crates target, and the input language of the `rgf2m-fpga` technology
//! mapper. It plays the role the behavioural-VHDL elaboration step plays
//! in the paper's flow.
//!
//! * [`Netlist`] — the IR: append-only gate array in topological order,
//!   with hash-consing (structural deduplication) and constant folding at
//!   construction time;
//! * [`sim`] — 64-way bit-parallel simulation and equivalence checking;
//! * [`analysis`] — gate counts, AND/XOR depth (the paper's `T_A + kT_X`
//!   metric), fanout, levelization;
//! * [`depth`] — per-output depth cones and [`depth::DepthSpec`]
//!   certificates checking netlists against expected Table V formulas;
//! * [`census`] — gate census (per-kind totals, per-output cones,
//!   shared-vs-exclusive attribution), [`census::AreaSpec`] area
//!   certificates, and structural hashing (strash) with the
//!   proof-carrying [`census::strash_dedup`] rewrite;
//! * [`algebra`] — GF(2) polynomial extraction (algebraic normal form
//!   per output cone), the engine behind complete multiplier
//!   verification and reduction-polynomial reverse engineering;
//! * [`lint`] — structural hygiene checks (cycles, undriven signals,
//!   dead nodes, duplicate gates) as a typed [`lint::LintReport`];
//! * [`export`] — the BLIF writer, the one netlist interchange format.
//!
//! # Examples
//!
//! ```
//! use netlist::Netlist;
//!
//! let mut net = Netlist::new("half_adder");
//! let a = net.input("a");
//! let b = net.input("b");
//! let sum = net.xor(a, b);
//! let carry = net.and(a, b);
//! net.output("sum", sum);
//! net.output("carry", carry);
//!
//! assert_eq!(net.eval_bool(&[true, true]), vec![false, true]);
//! assert_eq!(net.stats().xors, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod analysis;
pub mod census;
pub mod depth;
pub mod export;
pub mod lint;
pub mod sim;

mod ir;

pub use algebra::{MulSpec, Poly};
pub use analysis::{Depth, Stats};
pub use census::{
    check_area, strash_classes, strash_dedup, AreaExcess, AreaSpec, GateCensus, GateKind,
};
pub use depth::{check_depths, output_depths, DepthExcess, DepthSpec};
pub use ir::{Fnv1a, Gate, Netlist, NodeId};
pub use lint::{lint_netlist, lint_netlist_errors, LintReport};
