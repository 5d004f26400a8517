//! Property-based tests for the term algebra, splitting and coefficient
//! tables over randomized extension degrees.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use proptest::prelude::*;
use rgf2m_core::terms::{d_terms, num_products};
use rgf2m_core::{AtomKind, CoefficientTable, SiTi, SplitAtom};

proptest! {
    #[test]
    fn d_terms_partition_products(m in 2usize..80, k_frac in 0.0f64..1.0) {
        let k = ((2 * m - 2) as f64 * k_frac) as usize;
        let terms = d_terms(m, k);
        // Count and degree invariants.
        let expect = if k < m { k + 1 } else { 2 * m - 1 - k };
        prop_assert_eq!(num_products(&terms), expect);
        for t in &terms {
            prop_assert_eq!(t.degree(), k);
        }
        // No duplicate product pairs.
        let mut pairs: Vec<(usize, usize)> = terms.iter().flat_map(|t| t.products()).collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assert_eq!(pairs.len(), before);
    }

    #[test]
    fn equation_1_equals_direct(m in 2usize..128) {
        let direct = SiTi::new(m);
        let formula = SiTi::from_equation_1(m);
        // Spot-check a pseudo-random subset of indices per case.
        for i in [1, m / 3 + 1, m / 2 + 1, m].iter().copied() {
            let mut a = direct.s(i).to_vec();
            let mut b = formula.s(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
        for i in [0, m / 4, m.saturating_sub(2)].iter().copied() {
            let mut a = direct.t(i).to_vec();
            let mut b = formula.t(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn split_atoms_have_exact_power_of_two_sizes(m in 2usize..64) {
        for atom in SplitAtom::split_all(m) {
            prop_assert_eq!(atom.num_products(), 1usize << atom.level());
        }
    }

    #[test]
    fn split_atoms_partition_each_function(m in 2usize..48) {
        let sit = SiTi::new(m);
        let atoms = SplitAtom::split_all(m);
        for i in 1..=m {
            let got: usize = atoms
                .iter()
                .filter(|a| a.kind() == AtomKind::S && a.index() == i)
                .map(SplitAtom::num_products)
                .sum();
            prop_assert_eq!(got, num_products(sit.s(i)));
        }
    }

    #[test]
    fn coefficient_table_rows_start_with_s_k_plus_1(
        mn in proptest::sample::select(vec![(8usize, 2usize), (13, 5), (16, 3), (64, 23)]),
    ) {
        let (m, n) = mn;
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let table = CoefficientTable::new(&field);
        for k in 0..m {
            prop_assert_eq!(table.row(k).s_index, k + 1);
            // T indices strictly ascending and within range.
            let t = &table.row(k).t_indices;
            for w in t.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            if let Some(&last) = t.last() {
                prop_assert!(last <= m - 2);
            }
        }
    }
}
