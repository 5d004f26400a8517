//! Baseline GF(2^m) bit-parallel multiplier generators.
//!
//! The three published architectures the paper's Table V compares
//! against — [`MastrovitoPaar`](rgf2m_core::MastrovitoPaar) (\[2\]),
//! [`Rashidi`](rgf2m_core::Rashidi) (\[8\]) and
//! [`ReyhaniHasan`](rgf2m_core::ReyhaniHasan) (\[3\]) — live in
//! [`rgf2m_core::gen`] behind the unified [`rgf2m_core::Method`]
//! registry, so a single enum covers the whole Table V row order. This
//! crate keeps the two *extra-paper* references:
//!
//! * [`School`] — a deliberately naive two-step multiplier (chained
//!   XOR accumulation) kept as a structural worst-case reference for
//!   tests and ablations (not part of the paper's Table V);
//! * [`Karatsuba`] — a sub-quadratic recursive multiplier (extension
//!   beyond the paper: fewer AND gates, more XOR depth).
//!
//! # Examples
//!
//! ```
//! use gf2m::Field;
//! use gf2poly::TypeIiPentanomial;
//! use rgf2m_core::{MultiplierGenerator, ReyhaniHasan};
//!
//! let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
//! let net = ReyhaniHasan.generate(&field);
//! // The paper cites 77 XOR gates for [3] at (m, n) = (8, 2); our
//! // builder shares one repeated pair node, landing at 76.
//! assert_eq!(net.stats().xors, 76);
//! # Ok::<(), gf2poly::PentanomialError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod karatsuba;
mod school;

pub use karatsuba::Karatsuba;
pub use school::School;
