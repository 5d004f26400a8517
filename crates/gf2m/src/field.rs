//! The GF(2^m) field context.

use std::fmt;

use gf2poly::{is_irreducible, Gf2Poly, TypeIiPentanomial};

use crate::ReductionMatrix;

/// Error returned when constructing an invalid [`Field`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldError {
    /// The modulus polynomial is reducible (or zero/constant), so the
    /// quotient ring is not a field.
    ReducibleModulus(String),
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::ReducibleModulus(p) => {
                write!(f, "modulus {p} is not irreducible over GF(2)")
            }
        }
    }
}

impl std::error::Error for FieldError {}

/// A binary extension field GF(2^m) = GF(2)\[y\] / (f(y)).
///
/// Elements are represented in the canonical (polynomial) basis
/// `{1, x, …, x^(m−1)}` as [`Gf2Poly`] values of degree < m. The field
/// owns the precomputed [`ReductionMatrix`] of its modulus, giving two
/// independent multiplication routes (Euclidean reduction and matrix
/// reduction) that the test-suite cross-checks.
///
/// This is the *software oracle* against which every gate-level
/// multiplier in the workspace is verified.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::Gf2Poly;
///
/// let field = Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]))?;
/// let (a, b) = (field.element_from_bits(0x57), field.element_from_bits(0x83));
/// // The two multiplication routes agree: 0x57 · 0x83 = 0x31 here.
/// assert_eq!(field.mul(&a, &b), field.mul_via_reduction_matrix(&a, &b));
/// assert_eq!(field.mul(&a, &b), field.element_from_bits(0x31));
/// # Ok::<(), gf2m::FieldError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Field {
    modulus: Gf2Poly,
    m: usize,
    reduction: ReductionMatrix,
}

impl Field {
    /// Creates the field GF(2)\[y\]/(f) after checking that `f` is
    /// irreducible.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ReducibleModulus`] if `f` is reducible, zero,
    /// constant or of degree < 2.
    pub fn new(modulus: Gf2Poly) -> Result<Self, FieldError> {
        let m = modulus.degree().unwrap_or(0);
        if m < 2 || !is_irreducible(&modulus) {
            return Err(FieldError::ReducibleModulus(modulus.to_string()));
        }
        let reduction = ReductionMatrix::new(&modulus);
        Ok(Field {
            modulus,
            m,
            reduction,
        })
    }

    /// Creates the field defined by a validated type II pentanomial.
    ///
    /// Infallible: [`TypeIiPentanomial`] values are irreducible by
    /// construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2m::Field;
    /// use gf2poly::TypeIiPentanomial;
    /// let f = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23)?);
    /// assert_eq!(f.m(), 64);
    /// # Ok::<(), gf2poly::PentanomialError>(())
    /// ```
    pub fn from_pentanomial(p: &TypeIiPentanomial) -> Self {
        Field::new(p.to_poly()).expect("type II pentanomials are irreducible by construction")
    }

    /// The extension degree `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The defining irreducible polynomial `f(y)`.
    pub fn modulus(&self) -> &Gf2Poly {
        &self.modulus
    }

    /// The precomputed reduction matrix of the modulus.
    pub fn reduction_matrix(&self) -> &ReductionMatrix {
        &self.reduction
    }

    /// Builds a field element from the low `m` bits of `bits`
    /// (bit `i` ↦ coordinate of `x^i`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use gf2m::Field;
    /// # use gf2poly::Gf2Poly;
    /// let f = Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap();
    /// assert_eq!(f.element_from_bits(0b101), Gf2Poly::from_exponents(&[2, 0]));
    /// ```
    pub fn element_from_bits(&self, bits: u64) -> Gf2Poly {
        let masked = if self.m >= 64 {
            bits
        } else {
            bits & ((1u64 << self.m) - 1)
        };
        Gf2Poly::from_limbs(vec![masked])
    }

    /// Builds a field element from little-endian limbs, reducing any
    /// excess degree modulo `f`.
    pub fn element_from_limbs(&self, limbs: Vec<u64>) -> Gf2Poly {
        Gf2Poly::from_limbs(limbs).rem_by(&self.modulus)
    }

    /// Returns `true` if `a` is a canonical element (degree < m).
    pub fn contains(&self, a: &Gf2Poly) -> bool {
        a.degree().is_none_or(|d| d < self.m)
    }

    /// Field addition (coordinate-wise XOR).
    pub fn add(&self, a: &Gf2Poly, b: &Gf2Poly) -> Gf2Poly {
        a + b
    }

    /// Field multiplication: polynomial product followed by Euclidean
    /// reduction modulo `f`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an operand is not a canonical element.
    pub fn mul(&self, a: &Gf2Poly, b: &Gf2Poly) -> Gf2Poly {
        debug_assert!(self.contains(a), "left operand out of field");
        debug_assert!(self.contains(b), "right operand out of field");
        a.mul_poly(b).rem_by(&self.modulus)
    }

    /// Field multiplication via the precomputed reduction matrix —
    /// an independent route used to cross-check [`Field::mul`] and to
    /// mirror the paper's `c_k = S_{k+1} + Σ R[k][i]·T_i` formulation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an operand is not a canonical element.
    pub fn mul_via_reduction_matrix(&self, a: &Gf2Poly, b: &Gf2Poly) -> Gf2Poly {
        debug_assert!(self.contains(a), "left operand out of field");
        debug_assert!(self.contains(b), "right operand out of field");
        self.reduction.reduce(&a.mul_poly(b))
    }

    /// Field squaring.
    pub fn square(&self, a: &Gf2Poly) -> Gf2Poly {
        a.square().rem_by(&self.modulus)
    }

    /// Bit-sliced multiplication oracle for gate-level verification.
    ///
    /// `words` holds `2m` lanes-packed words: bit `l` of `words[i]` is
    /// coordinate `a_i` (for `i < m`) or `b_{i−m}` (for `i ≥ m`) of test
    /// vector `l`. Returns `m` words packed the same way with the product
    /// coordinates — exactly the interface of
    /// `netlist::sim::check_against_oracle_*`.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != 2m`.
    pub fn mul_words(&self, words: &[u64]) -> Vec<u64> {
        assert_eq!(
            words.len(),
            2 * self.m,
            "expected 2m = {} words",
            2 * self.m
        );
        let mut out = vec![0u64; self.m];
        for lane in 0..64 {
            let mut a = Gf2Poly::zero();
            let mut b = Gf2Poly::zero();
            for i in 0..self.m {
                if (words[i] >> lane) & 1 == 1 {
                    a.set_coeff(i, true);
                }
                if (words[self.m + i] >> lane) & 1 == 1 {
                    b.set_coeff(i, true);
                }
            }
            let c = self.mul(&a, &b);
            for (k, w) in out.iter_mut().enumerate() {
                if c.coeff(k) {
                    *w |= 1 << lane;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gf256() -> Field {
        Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap()
    }

    #[test]
    fn rejects_reducible_modulus() {
        assert!(matches!(
            Field::new(Gf2Poly::from_exponents(&[8, 0])),
            Err(FieldError::ReducibleModulus(_))
        ));
        assert!(Field::new(Gf2Poly::zero()).is_err());
        assert!(Field::new(Gf2Poly::one()).is_err());
    }

    #[test]
    fn element_from_bits_masks_to_m() {
        let f = gf256();
        assert_eq!(f.element_from_bits(0x1ff), f.element_from_bits(0xff));
        assert!(f.contains(&f.element_from_bits(u64::MAX)));
    }

    #[test]
    fn mul_routes_agree_exhaustively_on_gf256() {
        let f = gf256();
        for a in 0..=255u64 {
            for b in [0u64, 1, 2, 3, 5, 17, 91, 128, 170, 255] {
                let (ea, eb) = (f.element_from_bits(a), f.element_from_bits(b));
                assert_eq!(f.mul(&ea, &eb), f.mul_via_reduction_matrix(&ea, &eb));
            }
        }
    }

    #[test]
    fn multiplicative_group_order_255() {
        // The first power of x that returns to 1 is x^255: x generates
        // the whole multiplicative group.
        let f = gf256();
        let x = f.element_from_bits(2);
        let mut power = x.clone();
        let mut order = 1;
        while !power.is_one() {
            power = f.mul(&power, &x);
            order += 1;
        }
        assert_eq!(order, 255);
    }

    #[test]
    fn exp_log_table_cross_check() {
        // Build exp table with generator x and verify mul(a,b) =
        // exp[(log a + log b) mod 255] for the whole field.
        let f = gf256();
        let x = f.element_from_bits(2);
        let mut exp = Vec::with_capacity(255);
        let mut cur = Gf2Poly::one();
        for _ in 0..255 {
            exp.push(cur.clone());
            cur = f.mul(&cur, &x);
        }
        assert_eq!(cur, Gf2Poly::one(), "x must have order 255");
        let mut log = vec![0usize; 256];
        for (i, e) in exp.iter().enumerate() {
            log[e.limbs().first().copied().unwrap_or(0) as usize] = i;
        }
        for a in 1..=255u64 {
            for b in 1..=255u64 {
                let (ea, eb) = (f.element_from_bits(a), f.element_from_bits(b));
                let want = &exp[(log[a as usize] + log[b as usize]) % 255];
                assert_eq!(&f.mul(&ea, &eb), want, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn square_matches_self_multiplication() {
        let f = gf256();
        for a in 0..=255u64 {
            let ea = f.element_from_bits(a);
            assert_eq!(f.square(&ea), f.mul(&ea, &ea));
        }
    }

    #[test]
    fn frobenius_is_additive() {
        let f = gf256();
        for (a, b) in [(0x13u64, 0x9fu64), (0xff, 0x01), (0x80, 0x7f)] {
            let (ea, eb) = (f.element_from_bits(a), f.element_from_bits(b));
            assert_eq!(
                f.square(&f.add(&ea, &eb)),
                f.add(&f.square(&ea), &f.square(&eb))
            );
        }
    }

    #[test]
    fn distributivity_spot_checks() {
        let f = gf256();
        for (a, b, c) in [(0x57u64, 0x83u64, 0x1bu64), (0xff, 0xfe, 0x01)] {
            let (ea, eb, ec) = (
                f.element_from_bits(a),
                f.element_from_bits(b),
                f.element_from_bits(c),
            );
            assert_eq!(
                f.mul(&ea, &f.add(&eb, &ec)),
                f.add(&f.mul(&ea, &eb), &f.mul(&ea, &ec))
            );
        }
    }
}
