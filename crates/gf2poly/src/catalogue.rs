//! Catalogue of the fields used in the paper and in the ECC standards it
//! cites.
//!
//! The paper's Table V evaluates nine `(m, n)` type II pentanomial pairs;
//! [`TABLE_V_FIELDS`] lists them in the paper's order. [`NIST_DEGREES`]
//! records the standardized binary-field degrees the paper refers to,
//! and [`nist_standard_modulus`] returns the exact
//! reduction polynomials fixed by FIPS 186-4 for cross-checking our field
//! arithmetic against an independent source.

use crate::{Gf2Poly, TypeIiPentanomial};

/// The nine `(m, n)` pairs evaluated in the paper's Table V, in order.
pub const TABLE_V_FIELDS: [(usize, usize); 9] = [
    (8, 2),
    (64, 23),
    (113, 4),
    (113, 34),
    (122, 49),
    (139, 59),
    (148, 72),
    (163, 66),
    (163, 68),
];

/// The five binary-field degrees recommended by NIST for ECDSA
/// (FIPS 186-4 curves B/K-163 … B/K-571).
pub const NIST_DEGREES: [usize; 5] = [163, 233, 283, 409, 571];

/// Returns the Table V pentanomials as validated [`TypeIiPentanomial`]s.
///
/// # Examples
///
/// ```
/// let fields = gf2poly::catalogue::table_v_pentanomials();
/// assert_eq!(fields.len(), 9);
/// assert_eq!(fields[0].m(), 8);
/// ```
pub fn table_v_pentanomials() -> Vec<TypeIiPentanomial> {
    TABLE_V_FIELDS
        .iter()
        .map(|&(m, n)| {
            TypeIiPentanomial::new(m, n)
                .expect("paper Table V pairs are valid type II pentanomials")
        })
        .collect()
}

/// The standard NIST reduction polynomial for a given ECDSA binary-field
/// degree, or `None` if `m` is not a NIST degree.
///
/// These are the polynomials fixed in FIPS 186-4, *not* necessarily type
/// II pentanomials; they serve as an independent cross-check for field
/// arithmetic.
///
/// # Examples
///
/// ```
/// let f = gf2poly::catalogue::nist_standard_modulus(163).unwrap();
/// assert_eq!(f.to_string(), "y^163 + y^7 + y^6 + y^3 + 1");
/// assert!(gf2poly::is_irreducible(&f));
/// ```
pub fn nist_standard_modulus(m: usize) -> Option<Gf2Poly> {
    let exps: &[usize] = match m {
        163 => &[163, 7, 6, 3, 0],
        233 => &[233, 74, 0],
        283 => &[283, 12, 7, 5, 0],
        409 => &[409, 87, 0],
        571 => &[571, 10, 5, 2, 0],
        _ => return None,
    };
    Some(Gf2Poly::from_exponents(exps))
}

/// The SECG SEC 2 reduction polynomial for GF(2^113) (sect113r1).
///
/// # Examples
///
/// ```
/// assert!(gf2poly::is_irreducible(&gf2poly::catalogue::secg_113_modulus()));
/// ```
pub fn secg_113_modulus() -> Gf2Poly {
    Gf2Poly::from_exponents(&[113, 9, 0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_irreducible;

    #[test]
    fn table_v_pentanomials_all_validate() {
        let fields = table_v_pentanomials();
        assert_eq!(fields.len(), TABLE_V_FIELDS.len());
        for (p, &(m, n)) in fields.iter().zip(&TABLE_V_FIELDS) {
            assert_eq!((p.m(), p.n()), (m, n));
        }
    }

    #[test]
    fn nist_standard_moduli_are_irreducible() {
        for m in NIST_DEGREES {
            let f = nist_standard_modulus(m).unwrap();
            assert_eq!(f.degree(), Some(m));
            assert!(is_irreducible(&f), "NIST modulus for m={m}");
        }
        assert!(nist_standard_modulus(100).is_none());
    }

    /// The paper's motivating claim: "all five binary fields recommended
    /// by NIST for ECDSA can be constructed using such polynomials."
    /// m = 571 is exercised in the (slower) integration suite; here we
    /// verify the three smaller degrees.
    #[test]
    fn nist_degrees_admit_type_ii_pentanomials_small() {
        for m in [163usize, 233, 283] {
            assert!(
                TypeIiPentanomial::first(m).is_some(),
                "no type II pentanomial found for NIST degree {m}"
            );
        }
    }
}
