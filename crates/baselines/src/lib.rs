//! Baseline GF(2^m) bit-parallel multiplier generators.
//!
//! The three published architectures the paper's Table V compares
//! against — \[2\] Mastrovito/Paar, \[8\] Rashidi et al. and \[3\]
//! Reyhani-Masoleh & Hasan — are [`rgf2m_core::Method`] variants, built
//! by [`rgf2m_core::generate`] like the paper's own three, so one enum
//! covers the whole Table V row order. This crate keeps the two
//! *extra-paper* references, each a plain function of the field:
//!
//! * [`school`] — a deliberately naive two-step multiplier (chained
//!   XOR accumulation) kept as a structural worst-case reference for
//!   tests and ablations (not part of the paper's Table V);
//! * [`karatsuba`] — a sub-quadratic recursive multiplier (extension
//!   beyond the paper: fewer AND gates, more XOR depth).
//!
//! # Examples
//!
//! ```
//! use gf2m::Field;
//! use gf2poly::TypeIiPentanomial;
//! use rgf2m_core::{generate, Method};
//!
//! let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
//! let school = rgf2m_baselines::school(&field);
//! let rashidi = generate(&field, Method::Rashidi);
//! // Chained accumulation costs depth: at least twice [8]'s balanced
//! // trees, for the same m² = 64 AND gates.
//! assert!(school.depth().xors >= 2 * rashidi.depth().xors);
//! assert_eq!(school.stats().ands, rashidi.stats().ands);
//! # Ok::<(), gf2poly::PentanomialError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod karatsuba;
mod school;

pub use karatsuba::karatsuba;
pub use school::school;
