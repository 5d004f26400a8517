//! The algebraic specification of a GF(2^m) bit-parallel multiplier:
//! one GF(2) polynomial per product coordinate, derived from the
//! field's reduction matrix — the reference object complete (formal)
//! verification compares netlists against.
//!
//! For `A, B ∈ GF(2^m)` in polynomial basis, the unreduced product has
//! coefficients `d_t = Σ_{i+j=t} a_i·b_j`, and reduction by the modulus
//! gives `c_k = d_k + Σ_i R[k][i]·d_{m+i}` with `R` the field's
//! [`ReductionMatrix`](gf2m::ReductionMatrix). Expanding every `d_t`
//! yields an explicit multilinear polynomial over the 2m input bits;
//! no two expanded products coincide (the `(i, j)` pairs of distinct
//! `t` groups are disjoint), so the expansion is already in algebraic
//! normal form and can be compared syntactically.

use gf2m::{Field, MastrovitoMatrix};
use netlist::algebra::{Monomial, MulSpec, Poly};
use netlist::depth::DepthSpec;
use netlist::Depth;

use crate::coeffs::{CoefficientTable, FlatCoefficientTable};
use crate::gen::{coefficient_support, Method};
use crate::sit::SiTi;
use crate::split::SplitAtom;
use crate::terms::{d_terms, ProductTerm};

/// Derives the complete per-output-bit specification of a multiplier
/// over `field`.
///
/// Variable numbering matches the `a0..a{m-1}, b0..b{m-1}` interface
/// every generator in [`crate::gen`] emits: `a_i` is variable `i`,
/// `b_j` is variable `m + j`.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use rgf2m_core::{generate, multiplier_spec, Method};
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let spec = multiplier_spec(&field);
/// let polys = netlist::algebra::output_polys(&generate(&field, Method::ProposedFlat))?;
/// assert_eq!(polys, spec.outputs());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn multiplier_spec(field: &Field) -> MulSpec {
    let m = field.m();
    let red = field.reduction_matrix();
    let mut outputs = Vec::with_capacity(m);
    for k in 0..m {
        // c_k = d_k + Σ_{i ∈ I_k} d_{m+i}, with I_k from the reduction
        // matrix row; expand each d_t into its a_i·b_{t−i} products.
        // Each a_i·b_j is an inline degree-2 monomial: no allocation
        // per product.
        let ts =
            std::iter::once(k).chain(red.t_terms_for_coefficient(k).into_iter().map(|i| m + i));
        let products = ts.flat_map(|t| {
            (t.saturating_sub(m - 1)..=t.min(m - 1))
                .map(move |i| Monomial::product(&[i as u32, (m + t - i) as u32]))
        });
        outputs.push(Poly::from_monomials(products));
    }
    MulSpec::new(m, outputs)
}

/// Derives the expected per-output (AND-depth, XOR-depth) bounds — the
/// paper's Table V delay formula — for `method` over `field`.
///
/// The bounds are computed by replaying each generator's tree-building
/// strategy on depth values alone: balanced `chunks(2)` combination for
/// the flat/balanced methods, depth-keyed Huffman merging for the
/// parenthesised method of \[7\]. Because hash-consing shares only
/// structurally identical gates (identical depth included) and no tree
/// ever pairs a node with itself, the replay is *exact*: every
/// generator's netlist measures component-wise equal to these bounds,
/// which is what [`netlist::check_depths`] (and the FPGA pipeline's
/// `verify_depth`) certifies.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use netlist::{check_depths, Depth};
/// use rgf2m_core::{delay_spec, generate, Method};
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let spec = delay_spec(&field, Method::Imana2016);
/// assert_eq!(spec.worst(), Depth { ands: 1, xors: 5 }); // T_A + 5T_X
/// check_depths(&generate(&field, Method::Imana2016), &spec).unwrap();
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
pub fn delay_spec(field: &Field, method: Method) -> DepthSpec {
    let m = field.m();
    let bounds = match method {
        Method::MastrovitoPaar => {
            // Per row k: each nonzero matrix entry is a balanced XOR
            // sum of `a` inputs, ANDed with b_j, then the row is a
            // balanced tree over those terms in column order.
            let matrix = MastrovitoMatrix::new(field);
            (0..m)
                .map(|k| {
                    let row_terms: Vec<Depth> = (0..m)
                        .filter_map(|j| {
                            let entry = matrix.entry(k, j);
                            if entry.is_empty() {
                                None
                            } else {
                                Some(Depth {
                                    ands: 1,
                                    xors: ceil_log2(entry.len()),
                                })
                            }
                        })
                        .collect();
                    balanced_depth(&row_terms)
                })
                .collect()
        }
        Method::Rashidi => {
            // One perfectly balanced tree per coefficient over its raw
            // partial-product support: T_A + ⌈log2 |support|⌉·T_X.
            (0..m)
                .map(|k| Depth {
                    ands: 1,
                    xors: ceil_log2(coefficient_support(field, k).len()),
                })
                .collect()
        }
        Method::ReyhaniHasan => {
            // Shared antidiagonal d_t trees over raw products, then a
            // balanced reduction tree per coefficient.
            let red = field.reduction_matrix();
            let d_depths: Vec<Depth> = (0..=2 * m - 2)
                .map(|t| {
                    let products: usize = d_terms(m, t).iter().map(ProductTerm::num_products).sum();
                    Depth {
                        ands: 1,
                        xors: ceil_log2(products),
                    }
                })
                .collect();
            (0..m)
                .map(|k| {
                    let mut parts = vec![d_depths[k]];
                    for t in 0..m - 1 {
                        if red.entry(k, t) {
                            parts.push(d_depths[m + t]);
                        }
                    }
                    balanced_depth(&parts)
                })
                .collect()
        }
        Method::Imana2012 => {
            // Monolithic S_i/T_i units as balanced trees over their
            // terms, coefficients as balanced trees over whole units.
            let sit = SiTi::new(m);
            let table = CoefficientTable::new(field);
            let s_units: Vec<Depth> = (1..=m)
                .map(|i| balanced_depth(&term_depths(sit.s(i))))
                .collect();
            let t_units: Vec<Depth> = (0..=m - 2)
                .map(|i| balanced_depth(&term_depths(sit.t(i))))
                .collect();
            (0..m)
                .map(|k| {
                    let row = table.row(k);
                    let mut units = vec![s_units[row.s_index - 1]];
                    units.extend(row.t_indices.iter().map(|&i| t_units[i]));
                    balanced_depth(&units)
                })
                .collect()
        }
        Method::Imana2016 => {
            // Split atoms combined by the parenthesised same-level
            // pairing discipline (depth-keyed Huffman merging).
            let table = FlatCoefficientTable::new(field);
            (0..m)
                .map(|k| huffman_depth(&atom_depths(table.atoms(k))))
                .collect()
        }
        Method::ProposedFlat => {
            // Same atoms, combined by a plain balanced tree in table
            // order.
            let table = FlatCoefficientTable::new(field);
            (0..m)
                .map(|k| balanced_depth(&atom_depths(table.atoms(k))))
                .collect()
        }
    };
    DepthSpec::new(bounds)
}

/// `⌈log2(n)⌉` with `ceil_log2(0) = ceil_log2(1) = 0`.
fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Depths of a term list: `x_k` is one AND, `z^j_i` one AND + one XOR.
fn term_depths(terms: &[ProductTerm]) -> Vec<Depth> {
    terms
        .iter()
        .map(|t| match t {
            ProductTerm::X(_) => Depth { ands: 1, xors: 0 },
            ProductTerm::Z { .. } => Depth { ands: 1, xors: 1 },
        })
        .collect()
}

/// Depths of split atoms: each is a complete balanced tree over its
/// terms.
fn atom_depths(atoms: &[SplitAtom]) -> Vec<Depth> {
    atoms
        .iter()
        .map(|a| balanced_depth(&term_depths(a.terms())))
        .collect()
}

/// Replays [`netlist::Netlist::xor_balanced`]'s layered `chunks(2)`
/// combination on depth values: each pair becomes the component-wise
/// max plus one XOR level, an odd singleton passes through unchanged.
fn balanced_depth(nodes: &[Depth]) -> Depth {
    match nodes {
        [] => Depth::default(),
        [single] => *single,
        _ => {
            let mut layer = nodes.to_vec();
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for pair in layer.chunks(2) {
                    next.push(match pair {
                        [x, y] => Depth {
                            ands: x.ands.max(y.ands),
                            xors: x.xors.max(y.xors) + 1,
                        },
                        [x] => *x,
                        _ => unreachable!(),
                    });
                }
                layer = next;
            }
            layer[0]
        }
    }
}

/// Replays [`netlist::Netlist::xor_depth_aware`]'s min-heap merging on
/// XOR depths. Any tie-break order yields the same result (popping any
/// two minimum keys leaves the same key multiset), and the AND depth of
/// the root is simply the max over the leaves, so no node identities
/// are needed.
fn huffman_depth(nodes: &[Depth]) -> Depth {
    if nodes.is_empty() {
        return Depth::default();
    }
    let ands = nodes.iter().map(|d| d.ands).max().unwrap_or(0);
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
        nodes.iter().map(|d| std::cmp::Reverse(d.xors)).collect();
    while heap.len() > 1 {
        let std::cmp::Reverse(d1) = heap.pop().expect("len > 1");
        let std::cmp::Reverse(d2) = heap.pop().expect("len > 1");
        heap.push(std::cmp::Reverse(d1.max(d2) + 1));
    }
    let std::cmp::Reverse(xors) = heap.pop().expect("nonempty");
    Depth { ands, xors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Method};
    use gf2poly::Gf2Poly;

    fn gf256() -> Field {
        Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap()
    }

    fn poly_from_bits(v: u64) -> Gf2Poly {
        let exps: Vec<usize> = (0..64).filter(|&i| v >> i & 1 == 1).collect();
        Gf2Poly::from_exponents(&exps)
    }

    #[test]
    fn spec_agrees_with_field_arithmetic() {
        let field = gf256();
        let spec = multiplier_spec(&field);
        let m = field.m();
        // A fixed spread of operand pairs, checked coefficient-wise
        // against the field's own multiplication.
        let mut x = 0x9eu64;
        for _ in 0..32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (av, bv) = ((x >> 8) & 0xff, (x >> 32) & 0xff);
            let a = poly_from_bits(av);
            let b = poly_from_bits(bv);
            let c = field.mul(&a, &b);
            let mut assignment = vec![false; 2 * m];
            for i in 0..m {
                assignment[i] = av >> i & 1 == 1;
                assignment[m + i] = bv >> i & 1 == 1;
            }
            for k in 0..m {
                assert_eq!(
                    spec.output(k).eval(&assignment),
                    c.coeff(k),
                    "c_{k} for a={av:#x}, b={bv:#x}"
                );
            }
        }
    }

    #[test]
    fn spec_is_bilinear_with_disjoint_groups() {
        let field = gf256();
        let spec = multiplier_spec(&field);
        let m = field.m();
        for (k, poly) in spec.outputs().iter().enumerate() {
            assert!(!poly.is_zero(), "c_{k} must not vanish");
            for mono in poly.monomials() {
                let vars = mono.vars();
                assert_eq!(vars.len(), 2, "c_{k} monomial {mono} is not bilinear");
                assert!((vars[0] as usize) < m, "c_{k}: {mono}");
                let v = vars[1] as usize;
                assert!((m..2 * m).contains(&v), "c_{k}: {mono}");
            }
        }
    }

    #[test]
    fn every_method_matches_the_spec_at_gf256() {
        let field = gf256();
        let spec = multiplier_spec(&field);
        for method in Method::ALL {
            let net = generate(&field, method);
            let polys = netlist::algebra::output_polys(&net).unwrap();
            for (k, (got, want)) in polys.iter().zip(spec.outputs()).enumerate() {
                assert_eq!(got, want, "{method:?} output bit {k}");
            }
        }
    }

    #[test]
    fn delay_spec_is_exact_for_every_method_at_gf256() {
        // The replay is not just an upper bound: every generator's
        // netlist measures component-wise *equal* to its spec.
        let field = gf256();
        for method in Method::ALL {
            let spec = delay_spec(&field, method);
            let got = netlist::output_depths(&generate(&field, method));
            assert_eq!(
                got,
                spec.bounds(),
                "{method:?}: measured depths differ from delay_spec"
            );
        }
    }

    #[test]
    fn delay_spec_golden_values_at_gf256() {
        // Table V delay formulas at (m, n) = (8, 2).
        let field = gf256();
        let worst = |method| delay_spec(&field, method).worst();
        // [2]: XOR logic above and below the AND level.
        let mastrovito = worst(Method::MastrovitoPaar);
        assert_eq!(mastrovito.ands, 1);
        assert!(mastrovito.xors > 3, "{mastrovito}");
        // [8]: the 2-input-gate optimum, ⌈log2 22⌉ = 5.
        assert_eq!(worst(Method::Rashidi), Depth { ands: 1, xors: 5 });
        // [3]: T_A + 7T_X cited; balanced trees land in 6..=7.
        let reyhani = worst(Method::ReyhaniHasan);
        assert_eq!(reyhani.ands, 1);
        assert!((6..=7).contains(&reyhani.xors), "{reyhani}");
        // [6]: the monolithic-unit bottleneck, T_A + 6T_X.
        assert_eq!(worst(Method::Imana2012), Depth { ands: 1, xors: 6 });
        // [7]: the split + parenthesised bound, T_A + 5T_X.
        assert_eq!(worst(Method::Imana2016), Depth { ands: 1, xors: 5 });
        // This work: flat sums stay within the balanced envelope.
        let proposed = worst(Method::ProposedFlat);
        assert_eq!(proposed.ands, 1);
        assert!(proposed.xors <= 7, "{proposed}");
    }

    #[test]
    fn delay_spec_certifies_generators_on_more_fields() {
        use gf2poly::TypeIiPentanomial;
        for (m, n) in [(7usize, 2usize), (16, 3)] {
            let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
            for method in Method::ALL {
                let spec = delay_spec(&field, method);
                assert_eq!(spec.num_outputs(), m);
                netlist::check_depths(&generate(&field, method), &spec)
                    .unwrap_or_else(|e| panic!("{method:?} at (m,n)=({m},{n}): {e}"));
            }
        }
    }

    #[test]
    fn tree_depth_replays_match_the_builders() {
        use netlist::Netlist;
        // Cross-check the replay helpers against the real tree builders
        // over leaves of assorted depths.
        let leaf_specs: Vec<u32> = vec![0, 0, 3, 1, 0, 2, 1, 0, 0, 4, 1];
        for n in 1..=leaf_specs.len() {
            let spec: Vec<Depth> = leaf_specs[..n]
                .iter()
                .map(|&x| Depth { ands: 0, xors: x })
                .collect();
            let build = |aware: bool| {
                let mut net = Netlist::new("t");
                let leaves: Vec<_> = spec
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let mut chain: Vec<_> = (0..=d.xors)
                            .map(|j| net.input(format!("x{i}_{j}")))
                            .collect();
                        // Distinct inputs per leaf: a chain of depth d.xors.
                        let first = chain.remove(0);
                        chain.into_iter().fold(first, |acc, nxt| net.xor(acc, nxt))
                    })
                    .collect();
                let root = if aware {
                    net.xor_depth_aware(&leaves)
                } else {
                    net.xor_balanced(&leaves)
                };
                net.output("y", root);
                net.depth()
            };
            assert_eq!(build(false), balanced_depth(&spec), "balanced over {n}");
            assert_eq!(build(true), huffman_depth(&spec), "huffman over {n}");
        }
    }
}
