//! Product-coefficient expressions: Table I (sums of whole `S_i`/`T_i`)
//! and Table IV (the paper's *flat* sums of split atoms).

use std::fmt;

use gf2m::Field;

use crate::split::{AtomKind, SplitAtom};

/// One row of a Table-I-style coefficient expression:
/// `c_k = S_{k+1} + Σ T_i` over the T-index set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoeffRow {
    /// Product-coordinate index `k`.
    pub k: usize,
    /// The single `S` index (always `k + 1`).
    pub s_index: usize,
    /// The `T` indices with `R[k][i] = 1`, ascending.
    pub t_indices: Vec<usize>,
}

impl fmt::Display for CoeffRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{} = S{}", self.k, self.s_index)?;
        for t in &self.t_indices {
            write!(f, " + T{t}")?;
        }
        Ok(())
    }
}

/// The coefficients of the product as sums of whole `S_i`/`T_i`
/// functions — the generalization of the paper's Table I to any field
/// modulus, via the reduction matrix.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use rgf2m_core::CoefficientTable;
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let table = CoefficientTable::new(&field);
/// assert_eq!(table.row(0).to_string(), "c0 = S1 + T0 + T4 + T5 + T6");
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoefficientTable {
    m: usize,
    rows: Vec<CoeffRow>,
}

impl CoefficientTable {
    /// Derives the coefficient expressions from the field's reduction
    /// matrix: `c_k = d_k + Σ R[k][i] d_{m+i} = S_{k+1} + Σ R[k][i] T_i`.
    pub fn new(field: &Field) -> Self {
        let m = field.m();
        let red = field.reduction_matrix();
        let rows = (0..m)
            .map(|k| CoeffRow {
                k,
                s_index: k + 1,
                t_indices: red.t_terms_for_coefficient(k),
            })
            .collect();
        CoefficientTable { m, rows }
    }

    /// The extension degree `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Row `k` of the table.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ m`.
    pub fn row(&self, k: usize) -> &CoeffRow {
        &self.rows[k]
    }

    /// All rows, `c_0` to `c_{m−1}`.
    pub fn rows(&self) -> &[CoeffRow] {
        &self.rows
    }
}

impl fmt::Display for CoefficientTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row};")?;
        }
        Ok(())
    }
}

/// The coefficients of the product as *flat* sums of split atoms —
/// the paper's Table IV, generalized to any field modulus.
///
/// This is the data the proposed multiplier is built from: the
/// parenthesised grouping of \[7\] is deliberately absent, leaving the
/// synthesis tool free to restructure the XOR network.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use rgf2m_core::FlatCoefficientTable;
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let table = FlatCoefficientTable::new(&field);
/// assert_eq!(
///     table.format_row(1),
///     "c1 = S2^1 + T1^2 + T1^1 + T5^1 + T6^0"
/// );
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatCoefficientTable {
    m: usize,
    rows: Vec<Vec<SplitAtom>>,
}

impl FlatCoefficientTable {
    /// Builds the flat atom expression of every coefficient.
    ///
    /// Atom order within a row follows the paper: the `S_{k+1}` atoms
    /// (level descending), then for each contributing `T_i` (ascending
    /// `i`) its atoms, level descending.
    pub fn new(field: &Field) -> Self {
        let m = field.m();
        let atoms = SplitAtom::split_all(m);
        let atoms_of = |kind: AtomKind, index: usize| -> Vec<SplitAtom> {
            let mut v: Vec<SplitAtom> = atoms
                .iter()
                .filter(|a| a.kind() == kind && a.index() == index)
                .cloned()
                .collect();
            v.sort_by_key(|a| std::cmp::Reverse(a.level()));
            v
        };
        let table = CoefficientTable::new(field);
        let rows = (0..m)
            .map(|k| {
                let row = table.row(k);
                let mut out = atoms_of(AtomKind::S, row.s_index);
                for &t in &row.t_indices {
                    out.extend(atoms_of(AtomKind::T, t));
                }
                out
            })
            .collect();
        FlatCoefficientTable { m, rows }
    }

    /// The extension degree `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The atoms of coefficient `c_k`, in paper order.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ m`.
    pub fn atoms(&self, k: usize) -> &[SplitAtom] {
        &self.rows[k]
    }

    /// Renders row `k` in the paper's Table IV notation.
    pub fn format_row(&self, k: usize) -> String {
        let body = self.rows[k]
            .iter()
            .map(SplitAtom::name)
            .collect::<Vec<_>>()
            .join(" + ");
        format!("c{k} = {body}")
    }
}

impl fmt::Display for FlatCoefficientTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in 0..self.m {
            writeln!(f, "{};", self.format_row(k))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::TypeIiPentanomial;

    fn gf256() -> Field {
        Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
    }

    /// Table I of the paper, verbatim.
    #[test]
    fn table_i_exact() {
        let table = CoefficientTable::new(&gf256());
        let expected = [
            "c0 = S1 + T0 + T4 + T5 + T6",
            "c1 = S2 + T1 + T5 + T6",
            "c2 = S3 + T0 + T2 + T4 + T5",
            "c3 = S4 + T0 + T1 + T3 + T4",
            "c4 = S5 + T0 + T1 + T2 + T6",
            "c5 = S6 + T1 + T2 + T3",
            "c6 = S7 + T2 + T3 + T4",
            "c7 = S8 + T3 + T4 + T5",
        ];
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(table.row(k).to_string(), *want, "row {k}");
        }
    }

    /// Table IV of the paper, verbatim.
    #[test]
    fn table_iv_exact() {
        let table = FlatCoefficientTable::new(&gf256());
        let expected = [
            "c0 = S1^0 + T0^2 + T0^1 + T0^0 + T4^1 + T4^0 + T5^1 + T6^0",
            "c1 = S2^1 + T1^2 + T1^1 + T5^1 + T6^0",
            "c2 = S3^1 + S3^0 + T0^2 + T0^1 + T0^0 + T2^2 + T2^0 + T4^1 + T4^0 + T5^1",
            "c3 = S4^2 + T0^2 + T0^1 + T0^0 + T1^2 + T1^1 + T3^2 + T4^1 + T4^0",
            "c4 = S5^2 + S5^0 + T0^2 + T0^1 + T0^0 + T1^2 + T1^1 + T2^2 + T2^0 + T6^0",
            "c5 = S6^2 + S6^1 + T1^2 + T1^1 + T2^2 + T2^0 + T3^2",
            "c6 = S7^2 + S7^1 + S7^0 + T2^2 + T2^0 + T3^2 + T4^1 + T4^0",
            "c7 = S8^3 + T3^2 + T4^1 + T4^0 + T5^1",
        ];
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(table.format_row(k), *want, "row {k}");
        }
    }

    #[test]
    fn flat_table_atom_products_sum_to_coefficient_support() {
        // Each c_k's atoms must cover d_k plus the mapped d_{m+i} sets.
        let field = gf256();
        let flat = FlatCoefficientTable::new(&field);
        let table = CoefficientTable::new(&field);
        for k in 0..8 {
            let row = table.row(k);
            let want_products: usize = {
                let s_products = k + 1; // |d_k| for k < m
                let t_products: usize = row.t_indices.iter().map(|&i| 2 * 8 - 1 - (8 + i)).sum();
                s_products + t_products
            };
            let got: usize = flat.atoms(k).iter().map(SplitAtom::num_products).sum();
            assert_eq!(got, want_products, "c{k}");
        }
    }

    #[test]
    fn generalizes_to_other_pentanomials() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap());
        let table = CoefficientTable::new(&field);
        assert_eq!(table.rows().len(), 64);
        // c_k always starts with S_{k+1}.
        for k in 0..64 {
            assert_eq!(table.row(k).s_index, k + 1);
        }
    }

    #[test]
    fn works_for_trinomial_moduli() {
        // The construction only needs a reduction matrix.
        let field = Field::new(gf2poly::Gf2Poly::from_exponents(&[113, 9, 0])).unwrap();
        let table = CoefficientTable::new(&field);
        // y^113 ≡ y^9 + 1, so T_0 feeds c_0 and c_9.
        assert!(table.row(0).t_indices.contains(&0));
        assert!(table.row(9).t_indices.contains(&0));
    }
}
