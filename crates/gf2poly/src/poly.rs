//! Dense limb-packed polynomials over GF(2).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Rem};

/// A polynomial over GF(2) in dense little-endian limb representation.
///
/// Bit `i` of the backing storage is the coefficient of `y^i`. The
/// representation is kept *normalized*: there are never trailing all-zero
/// limbs, and the zero polynomial is the empty limb vector.
///
/// Addition is XOR, so `a + a == 0` for every `a`; the type implements the
/// usual ring operators plus Euclidean division helpers and the modular
/// routines needed by irreducibility testing.
///
/// # Examples
///
/// ```
/// use gf2poly::Gf2Poly;
///
/// let f = Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
/// assert_eq!(f.degree(), Some(8));
/// assert_eq!(f.to_string(), "y^8 + y^4 + y^3 + y^2 + 1");
///
/// let (q, r) = Gf2Poly::monomial(10).div_rem(&f);
/// assert_eq!(&q * &f + r, Gf2Poly::monomial(10));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Gf2Poly {
    limbs: Vec<u64>,
}

impl Gf2Poly {
    /// Returns the zero polynomial.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(gf2poly::Gf2Poly::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        Gf2Poly { limbs: Vec::new() }
    }

    /// Returns the constant polynomial `1`.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(gf2poly::Gf2Poly::one().degree(), Some(0));
    /// ```
    pub fn one() -> Self {
        Gf2Poly { limbs: vec![1] }
    }

    /// Returns the monomial `y^degree`.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = gf2poly::Gf2Poly::monomial(100);
    /// assert_eq!(m.degree(), Some(100));
    /// assert_eq!(m.weight(), 1);
    /// ```
    pub fn monomial(degree: usize) -> Self {
        let mut p = Gf2Poly::zero();
        p.set_coeff(degree, true);
        p
    }

    /// Builds a polynomial from the exponents of its nonzero terms.
    ///
    /// Duplicate exponents cancel in pairs (coefficients live in GF(2)).
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let f = Gf2Poly::from_exponents(&[3, 1, 1, 0]);
    /// assert_eq!(f, Gf2Poly::from_exponents(&[3, 0]));
    /// ```
    pub fn from_exponents(exponents: &[usize]) -> Self {
        let mut p = Gf2Poly::zero();
        for &e in exponents {
            let cur = p.coeff(e);
            p.set_coeff(e, !cur);
        }
        p
    }

    /// Builds a polynomial from little-endian limbs (bit `i` ↦ `y^i`).
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let f = Gf2Poly::from_limbs(vec![0b1_0001_1101]);
    /// assert_eq!(f, Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]));
    /// ```
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut p = Gf2Poly { limbs };
        p.normalize();
        p
    }

    /// Exposes the little-endian limbs of the polynomial.
    ///
    /// The returned slice is normalized: its last limb (if any) is nonzero.
    ///
    /// # Examples
    ///
    /// ```
    /// let f = gf2poly::Gf2Poly::from_exponents(&[8, 0]);
    /// assert_eq!(f.limbs(), &[0b1_0000_0001]);
    /// ```
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if this is the constant polynomial `1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// assert_eq!(Gf2Poly::zero().degree(), None);
    /// assert_eq!(Gf2Poly::from_exponents(&[7, 2]).degree(), Some(7));
    /// ```
    pub fn degree(&self) -> Option<usize> {
        let last = self.limbs.last()?;
        Some((self.limbs.len() - 1) * 64 + (63 - last.leading_zeros() as usize))
    }

    /// Number of nonzero coefficients (Hamming weight).
    ///
    /// # Examples
    ///
    /// ```
    /// let f = gf2poly::Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
    /// assert_eq!(f.weight(), 5);
    /// ```
    pub fn weight(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Coefficient of `y^i`.
    pub fn coeff(&self, i: usize) -> bool {
        let (limb, bit) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> bit) & 1 == 1)
    }

    /// Sets the coefficient of `y^i`.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut p = gf2poly::Gf2Poly::zero();
    /// p.set_coeff(5, true);
    /// assert_eq!(p.degree(), Some(5));
    /// p.set_coeff(5, false);
    /// assert!(p.is_zero());
    /// ```
    pub fn set_coeff(&mut self, i: usize, value: bool) {
        let (limb, bit) = (i / 64, i % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << bit;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << bit);
            self.normalize();
        }
    }

    /// Iterates over the exponents of the nonzero terms, ascending.
    ///
    /// # Examples
    ///
    /// ```
    /// let f = gf2poly::Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
    /// let exps: Vec<usize> = f.exponents().collect();
    /// assert_eq!(exps, [0, 2, 3, 4, 8]);
    /// ```
    pub fn exponents(&self) -> impl Iterator<Item = usize> + '_ {
        self.limbs.iter().enumerate().flat_map(|(li, &l)| {
            (0..64).filter_map(move |b| ((l >> b) & 1 == 1).then_some(li * 64 + b))
        })
    }

    /// Multiplies the polynomial by `y^k` (left shift).
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let f = Gf2Poly::from_exponents(&[1, 0]);
    /// assert_eq!(f.shl(3), Gf2Poly::from_exponents(&[4, 3]));
    /// ```
    pub fn shl(&self, k: usize) -> Self {
        if self.is_zero() {
            return Gf2Poly::zero();
        }
        let (limb_shift, bit_shift) = (k / 64, k % 64);
        let mut limbs = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            limbs[i + limb_shift] |= l << bit_shift;
            if bit_shift != 0 {
                limbs[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        Gf2Poly::from_limbs(limbs)
    }

    /// Carry-less (GF(2)) product of `self` and `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let a = Gf2Poly::from_exponents(&[1, 0]);
    /// // (y + 1)(y + 1) = y^2 + 1 because the cross terms cancel.
    /// assert_eq!(a.mul_poly(&a), Gf2Poly::from_exponents(&[2, 0]));
    /// ```
    pub fn mul_poly(&self, other: &Gf2Poly) -> Gf2Poly {
        if self.is_zero() || other.is_zero() {
            return Gf2Poly::zero();
        }
        let (a, b) = (&self.limbs, &other.limbs);
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &al) in a.iter().enumerate() {
            if al == 0 {
                continue;
            }
            for bit in 0..64 {
                if (al >> bit) & 1 == 1 {
                    for (j, &bl) in b.iter().enumerate() {
                        out[i + j] ^= bl << bit;
                        if bit != 0 {
                            out[i + j + 1] ^= bl >> (64 - bit);
                        }
                    }
                }
            }
        }
        Gf2Poly::from_limbs(out)
    }

    /// Squares the polynomial (bit interleaving — cheap over GF(2)).
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let f = Gf2Poly::from_exponents(&[3, 1]);
    /// assert_eq!(f.square(), Gf2Poly::from_exponents(&[6, 2]));
    /// ```
    pub fn square(&self) -> Gf2Poly {
        let mut out = vec![0u64; self.limbs.len() * 2];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[2 * i] = spread_u32((l & 0xFFFF_FFFF) as u32);
            out[2 * i + 1] = spread_u32((l >> 32) as u32);
        }
        Gf2Poly::from_limbs(out)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and
    /// `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let f = Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
    /// let (q, r) = Gf2Poly::monomial(8).div_rem(&f);
    /// assert_eq!(q, Gf2Poly::one());
    /// assert_eq!(r, Gf2Poly::from_exponents(&[4, 3, 2, 0]));
    /// ```
    pub fn div_rem(&self, divisor: &Gf2Poly) -> (Gf2Poly, Gf2Poly) {
        let d = divisor.degree().expect("division by the zero polynomial");
        let mut rem = self.clone();
        let mut quot = Gf2Poly::zero();
        while let Some(rd) = rem.degree() {
            if rd < d {
                break;
            }
            let shift = rd - d;
            quot.set_coeff(shift, true);
            rem += divisor.shl(shift);
        }
        (quot, rem)
    }

    /// Remainder of Euclidean division (see [`Gf2Poly::div_rem`]).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn rem_by(&self, divisor: &Gf2Poly) -> Gf2Poly {
        self.div_rem(divisor).1
    }

    /// Greatest common divisor of `self` and `other`.
    ///
    /// The GCD of two zero polynomials is zero; otherwise the result is the
    /// unique monic (over GF(2): any nonzero) generator of the ideal.
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let a = Gf2Poly::from_exponents(&[2, 0]); // (y+1)^2
    /// let b = Gf2Poly::from_exponents(&[1, 0]); // y+1
    /// assert_eq!(a.gcd(&b), b);
    /// ```
    pub fn gcd(&self, other: &Gf2Poly) -> Gf2Poly {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.rem_by(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular square `self^2 mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn square_mod(&self, modulus: &Gf2Poly) -> Gf2Poly {
        self.square().rem_by(modulus)
    }

    /// Computes `self^(2^k) mod modulus` by repeated modular squaring.
    ///
    /// This is the workhorse of Rabin's irreducibility test.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use gf2poly::Gf2Poly;
    /// let f = Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
    /// let x = Gf2Poly::monomial(1);
    /// // f irreducible of degree 8 ⇒ x^(2^8) ≡ x (mod f).
    /// assert_eq!(x.pow_2k_mod(8, &f), x);
    /// ```
    pub fn pow_2k_mod(&self, k: usize, modulus: &Gf2Poly) -> Gf2Poly {
        let mut acc = self.rem_by(modulus);
        for _ in 0..k {
            acc = acc.square_mod(modulus);
        }
        acc
    }

    /// Evaluates the polynomial at a point of GF(2).
    ///
    /// # Examples
    ///
    /// ```
    /// let f = gf2poly::Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
    /// assert!(f.eval(false));         // constant term is 1
    /// assert!(f.eval(true));          // odd number of terms
    /// ```
    pub fn eval(&self, point: bool) -> bool {
        if point {
            self.weight() % 2 == 1
        } else {
            self.coeff(0)
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

/// Spreads the 32 bits of `v` into the even bit positions of a `u64`.
fn spread_u32(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

impl Add for &Gf2Poly {
    type Output = Gf2Poly;

    fn add(self, rhs: &Gf2Poly) -> Gf2Poly {
        let mut out = self.clone();
        out += rhs.clone();
        out
    }
}

impl Add for Gf2Poly {
    type Output = Gf2Poly;

    fn add(mut self, rhs: Gf2Poly) -> Gf2Poly {
        self += rhs;
        self
    }
}

impl AddAssign for Gf2Poly {
    fn add_assign(&mut self, rhs: Gf2Poly) {
        if rhs.limbs.len() > self.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        for (i, l) in rhs.limbs.iter().enumerate() {
            self.limbs[i] ^= l;
        }
        self.normalize();
    }
}

impl Mul for &Gf2Poly {
    type Output = Gf2Poly;

    fn mul(self, rhs: &Gf2Poly) -> Gf2Poly {
        self.mul_poly(rhs)
    }
}

impl Mul for Gf2Poly {
    type Output = Gf2Poly;

    fn mul(self, rhs: Gf2Poly) -> Gf2Poly {
        self.mul_poly(&rhs)
    }
}

impl Rem for &Gf2Poly {
    type Output = Gf2Poly;

    fn rem(self, rhs: &Gf2Poly) -> Gf2Poly {
        self.rem_by(rhs)
    }
}

impl fmt::Display for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut exps: Vec<usize> = self.exponents().collect();
        exps.reverse();
        let terms: Vec<String> = exps
            .iter()
            .map(|&e| match e {
                0 => "1".to_string(),
                1 => "y".to_string(),
                _ => format!("y^{e}"),
            })
            .collect();
        write!(f, "{}", terms.join(" + "))
    }
}

impl fmt::Debug for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2Poly({self})")
    }
}

impl fmt::Binary for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:b}")?;
            } else {
                write!(f, "{limb:064b}")?;
            }
        }
        Ok(())
    }
}

impl fmt::LowerHex for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(exps: &[usize]) -> Gf2Poly {
        Gf2Poly::from_exponents(exps)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(Gf2Poly::zero().is_zero());
        assert!(Gf2Poly::one().is_one());
        assert_eq!(Gf2Poly::zero().degree(), None);
        assert_eq!(Gf2Poly::one().degree(), Some(0));
        assert_eq!(Gf2Poly::default(), Gf2Poly::zero());
    }

    #[test]
    fn from_exponents_cancels_duplicates() {
        assert_eq!(poly(&[5, 5]), Gf2Poly::zero());
        assert_eq!(poly(&[5, 5, 5]), Gf2Poly::monomial(5));
    }

    #[test]
    fn addition_is_xor() {
        let a = poly(&[4, 2, 0]);
        let b = poly(&[4, 1]);
        assert_eq!(&a + &b, poly(&[2, 1, 0]));
        assert_eq!(&a + &a, Gf2Poly::zero());
    }

    #[test]
    fn add_assign_normalizes() {
        let mut a = poly(&[100]);
        a += poly(&[100]);
        assert!(a.is_zero());
        assert!(a.limbs().is_empty());
    }

    #[test]
    fn set_coeff_clears_and_normalizes() {
        let mut p = poly(&[70, 3]);
        p.set_coeff(70, false);
        assert_eq!(p.degree(), Some(3));
        assert_eq!(p.limbs().len(), 1);
    }

    #[test]
    fn shl_matches_monomial_multiplication() {
        let f = poly(&[8, 4, 3, 2, 0]);
        assert_eq!(f.shl(5), f.mul_poly(&Gf2Poly::monomial(5)));
        assert_eq!(f.shl(64), f.mul_poly(&Gf2Poly::monomial(64)));
        assert_eq!(f.shl(67), f.mul_poly(&Gf2Poly::monomial(67)));
        assert_eq!(Gf2Poly::zero().shl(9), Gf2Poly::zero());
    }

    #[test]
    fn multiplication_small_cases() {
        // (y+1)(y^2+y+1) = y^3 + 1.
        assert_eq!(poly(&[1, 0]).mul_poly(&poly(&[2, 1, 0])), poly(&[3, 0]));
        // multiplication by zero and one.
        let f = poly(&[13, 7, 2]);
        assert_eq!(f.mul_poly(&Gf2Poly::zero()), Gf2Poly::zero());
        assert_eq!(f.mul_poly(&Gf2Poly::one()), f);
    }

    #[test]
    fn multiplication_cross_limb() {
        let a = poly(&[63, 0]);
        let b = poly(&[64, 2]);
        assert_eq!(a.mul_poly(&b), poly(&[127, 65, 64, 2]));
        // Cross terms cancel when they collide: y^63·y + 1·y^64 = 0.
        assert_eq!(a.mul_poly(&poly(&[64, 1])), poly(&[127, 1]));
    }

    #[test]
    fn square_is_self_product() {
        for exps in [&[0][..], &[1, 0], &[63, 31, 5], &[128, 64, 1]] {
            let p = poly(exps);
            assert_eq!(p.square(), p.mul_poly(&p), "square mismatch for {p}");
        }
    }

    #[test]
    fn div_rem_roundtrip() {
        let f = poly(&[8, 4, 3, 2, 0]);
        let g = poly(&[100, 55, 3, 1]);
        let (q, r) = g.div_rem(&f);
        assert!(r.degree().unwrap_or(0) < 8);
        assert_eq!(q.mul_poly(&f) + r, g);
    }

    #[test]
    fn div_rem_by_larger_divisor_is_identity_remainder() {
        let f = poly(&[8, 0]);
        let g = poly(&[3, 1]);
        let (q, r) = g.div_rem(&f);
        assert!(q.is_zero());
        assert_eq!(r, g);
    }

    #[test]
    #[should_panic(expected = "zero polynomial")]
    fn div_by_zero_panics() {
        let _ = poly(&[3, 0]).div_rem(&Gf2Poly::zero());
    }

    #[test]
    fn gcd_of_coprime_is_constant() {
        // y and y+1 are coprime.
        let g = Gf2Poly::monomial(1).gcd(&poly(&[1, 0]));
        assert_eq!(g, Gf2Poly::one());
    }

    #[test]
    fn gcd_finds_common_factor() {
        let common = poly(&[2, 1, 0]); // irreducible y^2+y+1
        let a = common.mul_poly(&poly(&[1, 0]));
        let b = common.mul_poly(&Gf2Poly::monomial(3));
        assert_eq!(a.gcd(&b), common);
    }

    #[test]
    fn pow_2k_mod_fixed_point_for_irreducible() {
        let f = poly(&[8, 4, 3, 2, 0]);
        let x = Gf2Poly::monomial(1);
        assert_eq!(x.pow_2k_mod(8, &f), x);
        // and x^(2^4) ≠ x because 8/2 = 4 < 8.
        assert_ne!(x.pow_2k_mod(4, &f), x);
    }

    #[test]
    fn eval_at_gf2_points() {
        let f = poly(&[8, 4, 3, 2, 0]);
        assert!(f.eval(false));
        assert!(f.eval(true));
        let g = poly(&[3, 1]); // no constant term, even weight
        assert!(!g.eval(false));
        assert!(!g.eval(true));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            poly(&[8, 4, 3, 2, 0]).to_string(),
            "y^8 + y^4 + y^3 + y^2 + 1"
        );
        assert_eq!(poly(&[1]).to_string(), "y");
        assert_eq!(Gf2Poly::zero().to_string(), "0");
        assert_eq!(format!("{:b}", poly(&[4, 0])), "10001");
        assert_eq!(format!("{:x}", poly(&[8, 4, 3, 2, 0])), "11d");
    }

    #[test]
    fn exponents_iterator_is_ascending() {
        let exps: Vec<usize> = poly(&[200, 64, 63, 2]).exponents().collect();
        assert_eq!(exps, [2, 63, 64, 200]);
    }
}
