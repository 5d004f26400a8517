//! The paper's contribution: `S_i`/`T_i` term algebra, splitting into
//! complete-XOR-tree atoms, and the *reconfigurable* (flat) GF(2^m)
//! bit-parallel multiplier generators of Imaña (DATE 2018).
//!
//! # The idea chain
//!
//! For `A, B ∈ GF(2^m)` in polynomial basis, the unreduced product
//! `D(y) = A(y)·B(y)` has coefficients `d_k = Σ_{i+j=k} a_i·b_j`,
//! naturally written with the paper's terms `x_k = a_k·b_k` and
//! `z^j_i = a_i·b_j + a_j·b_i`:
//!
//! * `S_i = d_{i−1}` (1 ≤ i ≤ m) and `T_i = d_{m+i}` (0 ≤ i ≤ m−2)
//!   ([`SiTi`], module [`sit`]) — introduced in \[6\];
//! * each `S_i`/`T_i` with `N` products splits, by the binary expansion
//!   of `N`, into atoms `S^j_i`/`T^j_i` of exactly `2^j` products, each a
//!   complete `j`-level XOR tree ([`SplitAtom`], module [`split`]) —
//!   introduced in \[7\];
//! * reduction by the field modulus turns each product coordinate into
//!   `c_k = S_{k+1} + Σ R[k][i]·T_i` (module [`coeffs`], Tables I/IV);
//! * circuit generators turn those expressions into gate-level netlists
//!   (module [`gen`]): the monolithic method of \[6\], the parenthesised
//!   same-level pairing of \[7\], and **this paper's flat method** that
//!   leaves restructuring to the synthesis tool — plus the three
//!   published baselines the paper compares against (\[2\] Mastrovito /
//!   Paar, \[8\] Rashidi et al., \[3\] Reyhani-Masoleh & Hasan), so
//!   [`Method::ALL`] is the complete Table V registry in the paper's
//!   row order.
//!
//! # Examples
//!
//! ```
//! use gf2m::Field;
//! use gf2poly::TypeIiPentanomial;
//! use rgf2m_core::{generate, Method};
//!
//! let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
//! let net = generate(&field, Method::ProposedFlat);
//! assert_eq!(net.num_inputs(), 16);
//! assert_eq!(net.outputs().len(), 8);
//! assert_eq!(net.stats().ands, 64); // m^2 partial products
//! # Ok::<(), gf2poly::PentanomialError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod coeffs;
pub mod gen;
pub mod reveng;
pub mod sit;
pub mod spec;
pub mod split;
pub mod terms;

pub use area::area_spec;
pub use coeffs::{CoefficientTable, FlatCoefficientTable};
pub use gen::{coefficient_support, generate, Method};
pub use reveng::{anonymize, reverse_engineer, ModulusClass, RecoveredField, RevengError};
pub use sit::SiTi;
pub use spec::{delay_spec, multiplier_spec};
pub use split::{AtomKind, SplitAtom};
pub use terms::ProductTerm;
