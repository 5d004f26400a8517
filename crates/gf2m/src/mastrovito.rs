//! The Mastrovito product matrix.

use gf2poly::Gf2Poly;

use crate::Field;

/// The Mastrovito product matrix `M(a)` of a field, in *symbolic* form.
///
/// Mastrovito's bit-parallel multiplier \[1\] combines polynomial
/// multiplication and modular reduction into a single matrix-vector
/// product `c = M(a) · b`, where entry `M[k][j]` is a GF(2)-sum of
/// coordinates of `a`. This type stores, for every `(k, j)`, the *set of
/// `a`-indices* whose XOR forms the entry — the information a circuit
/// generator needs (baseline \[2\] in the paper builds exactly this
/// network).
///
/// # Examples
///
/// ```
/// use gf2m::{Field, MastrovitoMatrix};
/// use gf2poly::Gf2Poly;
///
/// let field = Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]))?;
/// let m = MastrovitoMatrix::new(&field);
/// // Evaluating the symbolic matrix multiplies correctly.
/// let a = field.element_from_bits(0x57);
/// let b = field.element_from_bits(0x83);
/// assert_eq!(m.apply(&a, &b), field.mul(&a, &b));
/// # Ok::<(), gf2m::FieldError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MastrovitoMatrix {
    m: usize,
    /// `entries[k][j]` = ascending list of `a`-indices XORed to form
    /// `M[k][j]`.
    entries: Vec<Vec<Vec<usize>>>,
}

impl MastrovitoMatrix {
    /// Builds the symbolic Mastrovito matrix for `field`.
    ///
    /// Derivation: with `d_k = Σ_{i+j=k} a_i b_j` and reduction matrix
    /// `R`, we have `c_k = d_k + Σ_t R[k][t] · d_{m+t}`, so the `a`-index
    /// `i` appears in `M[k][j]` iff `i + j = k` (low part) or
    /// `i + j = m + t` with `R[k][t] = 1` (reduced high part). Collisions
    /// cancel modulo 2.
    pub fn new(field: &Field) -> Self {
        let m = field.m();
        let red = field.reduction_matrix();
        let mut entries = vec![vec![Vec::new(); m]; m];
        for (k, row) in entries.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut present = vec![false; m];
                // Low part: i = k - j.
                if k >= j && k - j < m {
                    present[k - j] ^= true;
                }
                // High part: i = m + t - j for each t with R[k][t] = 1.
                for t in 0..m - 1 {
                    if red.entry(k, t) {
                        let idx = m + t;
                        if idx >= j && idx - j < m {
                            present[idx - j] ^= true;
                        }
                    }
                }
                *cell = present
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &p)| p.then_some(i))
                    .collect();
            }
        }
        MastrovitoMatrix { m, entries }
    }

    /// The extension degree `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The `a`-index set of entry `M[k][j]`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ m` or `j ≥ m`.
    pub fn entry(&self, k: usize, j: usize) -> &[usize] {
        &self.entries[k][j]
    }

    /// Evaluates `c = M(a) · b` for concrete elements.
    ///
    /// This is the software semantics of the Mastrovito circuit and must
    /// agree with [`Field::mul`].
    pub fn apply(&self, a: &Gf2Poly, b: &Gf2Poly) -> Gf2Poly {
        let mut c = Gf2Poly::zero();
        for k in 0..self.m {
            let mut bit = false;
            for j in 0..self.m {
                if b.coeff(j) {
                    let entry: bool = self.entries[k][j]
                        .iter()
                        .fold(false, |acc, &i| acc ^ a.coeff(i));
                    bit ^= entry;
                }
            }
            if bit {
                c.set_coeff(k, true);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gf256() -> Field {
        Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap()
    }

    #[test]
    fn apply_matches_field_mul_exhaustively_sampled() {
        let f = gf256();
        let m = MastrovitoMatrix::new(&f);
        for a in (0..=255u64).step_by(7) {
            for b in (0..=255u64).step_by(11) {
                let (ea, eb) = (f.element_from_bits(a), f.element_from_bits(b));
                assert_eq!(m.apply(&ea, &eb), f.mul(&ea, &eb), "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn identity_column_structure() {
        // With b = 1 (j = 0 only), c_k = M[k][0] · a. M[k][0] must
        // therefore be {k}: multiplying by one is the identity.
        let f = gf256();
        let m = MastrovitoMatrix::new(&f);
        for k in 0..8 {
            assert_eq!(m.entry(k, 0), &[k], "M[{k}][0]");
        }
    }

    #[test]
    fn works_for_larger_pentanomial_field() {
        let f = Field::new(Gf2Poly::from_exponents(&[64, 25, 24, 23, 0])).unwrap();
        let m = MastrovitoMatrix::new(&f);
        let a = f.element_from_limbs(vec![0x0123_4567_89ab_cdef]);
        let b = f.element_from_limbs(vec![0xfedc_ba98_7654_3210]);
        assert_eq!(m.apply(&a, &b), f.mul(&a, &b));
    }

    #[test]
    fn entries_have_no_duplicates_and_are_sorted() {
        let f = gf256();
        let m = MastrovitoMatrix::new(&f);
        for k in 0..8 {
            for j in 0..8 {
                let e = m.entry(k, j);
                let mut sorted = e.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(e, sorted.as_slice(), "entry ({k},{j})");
            }
        }
    }
}
