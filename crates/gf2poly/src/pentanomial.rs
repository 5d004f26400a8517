//! Type II irreducible pentanomials `y^m + y^(n+2) + y^(n+1) + y^n + 1`.

use std::fmt;

use crate::{is_irreducible, Gf2Poly};

/// Error returned when constructing an invalid [`TypeIiPentanomial`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PentanomialError {
    /// `n` is outside the structural range `2 ≤ n ≤ ⌊m/2⌋ − 1` required by
    /// the paper's definition (type II pentanomials, \[5\]).
    ShapeOutOfRange {
        /// The requested extension degree.
        m: usize,
        /// The requested middle-block offset.
        n: usize,
    },
    /// The pentanomial has the right shape but is reducible over GF(2).
    Reducible {
        /// The requested extension degree.
        m: usize,
        /// The requested middle-block offset.
        n: usize,
    },
}

impl fmt::Display for PentanomialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PentanomialError::ShapeOutOfRange { m, n } => write!(
                f,
                "n = {n} outside the type II range 2 <= n <= floor({m}/2) - 1"
            ),
            PentanomialError::Reducible { m, n } => write!(
                f,
                "y^{m} + y^{} + y^{} + y^{n} + 1 is reducible over GF(2)",
                n + 2,
                n + 1
            ),
        }
    }
}

impl std::error::Error for PentanomialError {}

/// A *type II irreducible pentanomial* `f(y) = y^m + y^(n+2) + y^(n+1) + y^n + 1`.
///
/// These are the defining polynomials the paper builds multipliers for
/// (following Rodríguez-Henríquez & Koç \[5\]): three consecutive middle
/// terms starting at `y^n`, with `2 ≤ n ≤ ⌊m/2⌋ − 1`. They are abundant,
/// and every NIST-recommended ECDSA binary field degree (163, 233, 283,
/// 409, 571) admits one.
///
/// Construction via [`TypeIiPentanomial::new`] validates both the shape
/// constraint and irreducibility, so a value of this type is always a
/// usable field modulus.
///
/// # Examples
///
/// ```
/// use gf2poly::TypeIiPentanomial;
///
/// let p = TypeIiPentanomial::new(8, 2)?;
/// assert_eq!(p.m(), 8);
/// assert_eq!(p.n(), 2);
/// assert_eq!(p.to_poly().to_string(), "y^8 + y^4 + y^3 + y^2 + 1");
///
/// // (9, 2) has the right shape but y^9+y^4+y^3+y^2+1 is reducible:
/// assert!(TypeIiPentanomial::new(9, 2).is_err());
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeIiPentanomial {
    m: usize,
    n: usize,
}

impl TypeIiPentanomial {
    /// Creates a validated type II irreducible pentanomial.
    ///
    /// # Errors
    ///
    /// Returns [`PentanomialError::ShapeOutOfRange`] if
    /// `n < 2` or `n > ⌊m/2⌋ − 1`, and [`PentanomialError::Reducible`] if
    /// the resulting pentanomial is not irreducible over GF(2).
    pub fn new(m: usize, n: usize) -> Result<Self, PentanomialError> {
        let p = Self::new_unchecked_shape(m, n)?;
        if !is_irreducible(&p.to_poly()) {
            return Err(PentanomialError::Reducible { m, n });
        }
        Ok(p)
    }

    /// Creates a pentanomial validating only the shape constraint, not
    /// irreducibility. Useful for census code that tests irreducibility
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns [`PentanomialError::ShapeOutOfRange`] if `n < 2` or
    /// `n > ⌊m/2⌋ − 1`.
    pub fn new_unchecked_shape(m: usize, n: usize) -> Result<Self, PentanomialError> {
        // `n ≥ ⌊m/2⌋` is `n + 1 > ⌊m/2⌋` without overflow at `usize::MAX`.
        if m < 6 || n < 2 || n >= m / 2 {
            return Err(PentanomialError::ShapeOutOfRange { m, n });
        }
        Ok(TypeIiPentanomial { m, n })
    }

    /// The extension degree `m` (the field is GF(2^m)).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The offset `n` of the three consecutive middle terms.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Materializes the pentanomial as a [`Gf2Poly`].
    ///
    /// # Examples
    ///
    /// ```
    /// let p = gf2poly::TypeIiPentanomial::new(64, 23)?;
    /// assert_eq!(p.to_poly().weight(), 5);
    /// # Ok::<(), gf2poly::PentanomialError>(())
    /// ```
    pub fn to_poly(&self) -> Gf2Poly {
        Gf2Poly::from_exponents(&[self.m, self.n + 2, self.n + 1, self.n, 0])
    }

    /// Finds every irreducible type II pentanomial of degree `m`,
    /// ascending in `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// let all = gf2poly::TypeIiPentanomial::find_all(8);
    /// assert_eq!(all.len(), 2); // (8,2) and (8,3)
    /// assert_eq!(all[0].n(), 2);
    /// ```
    pub fn find_all(m: usize) -> Vec<Self> {
        if m < 6 {
            return Vec::new();
        }
        (2..=m / 2 - 1)
            .filter_map(|n| Self::new(m, n).ok())
            .collect()
    }

    /// Finds the irreducible type II pentanomial of degree `m` with the
    /// smallest `n`, if one exists.
    ///
    /// # Examples
    ///
    /// ```
    /// let p = gf2poly::TypeIiPentanomial::first(163).unwrap();
    /// assert_eq!(p.m(), 163);
    /// assert!(gf2poly::is_irreducible(&p.to_poly()));
    /// ```
    pub fn first(m: usize) -> Option<Self> {
        if m < 6 {
            return None;
        }
        (2..=m / 2 - 1).find_map(|n| Self::new(m, n).ok())
    }
}

impl fmt::Display for TypeIiPentanomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y^{} + y^{} + y^{} + y^{} + 1",
            self.m,
            self.n + 2,
            self.n + 1,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gf256_pentanomial() {
        let p = TypeIiPentanomial::new(8, 2).unwrap();
        assert_eq!(p.to_poly(), Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]));
        assert_eq!(p.to_string(), "y^8 + y^4 + y^3 + y^2 + 1");
    }

    #[test]
    fn shape_validation() {
        assert!(matches!(
            TypeIiPentanomial::new(8, 1),
            Err(PentanomialError::ShapeOutOfRange { .. })
        ));
        // n = m/2 - 1 is the largest legal n; n = m/2 is not.
        assert!(TypeIiPentanomial::new_unchecked_shape(20, 9).is_ok());
        assert!(TypeIiPentanomial::new_unchecked_shape(20, 10).is_err());
        // Tiny m admits no type II pentanomial at all.
        assert!(TypeIiPentanomial::new_unchecked_shape(5, 2).is_err());
        // An offset at the top of the range is refused, not overflowed.
        assert!(TypeIiPentanomial::new(163, usize::MAX).is_err());
    }

    #[test]
    fn reducible_shape_is_rejected_with_specific_error() {
        // y^9+y^4+y^3+y^2+1 is reducible.
        assert_eq!(
            TypeIiPentanomial::new(9, 2),
            Err(PentanomialError::Reducible { m: 9, n: 2 })
        );
    }

    #[test]
    fn all_paper_table_v_pairs_are_valid() {
        for (m, n) in [
            (8usize, 2usize),
            (64, 23),
            (113, 4),
            (113, 34),
            (122, 49),
            (139, 59),
            (148, 72),
            (163, 66),
            (163, 68),
        ] {
            let p = TypeIiPentanomial::new(m, n)
                .unwrap_or_else(|e| panic!("paper pair ({m},{n}) invalid: {e}"));
            assert!(is_irreducible(&p.to_poly()));
        }
    }

    #[test]
    fn find_all_matches_brute_force_for_small_m() {
        for m in 6..=32usize {
            let brute: Vec<usize> = (2..=m / 2 - 1)
                .filter(|&n| is_irreducible(&Gf2Poly::from_exponents(&[m, n + 2, n + 1, n, 0])))
                .collect();
            let found: Vec<usize> = TypeIiPentanomial::find_all(m)
                .iter()
                .map(|p| p.n())
                .collect();
            assert_eq!(found, brute, "m = {m}");
        }
    }

    #[test]
    fn first_is_minimum_of_find_all() {
        for m in [8usize, 64, 113, 122, 139, 148, 163] {
            let all = TypeIiPentanomial::find_all(m);
            assert_eq!(TypeIiPentanomial::first(m), all.first().copied());
        }
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = TypeIiPentanomial::new(8, 1).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("type II range"), "{msg}");
        let e = TypeIiPentanomial::new(9, 2).unwrap_err();
        assert!(e.to_string().contains("reducible"), "{e}");
    }
}
