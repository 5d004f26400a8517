//! A sub-quadratic Karatsuba multiplier generator (extension baseline).
//!
//! The paper's six Table V methods are all quadratic (m² AND gates).
//! Karatsuba recursion trades AND gates for XOR gates and depth — the
//! classic space/time alternative for large fields. Including it shows
//! where the paper's quadratic designs stop being area-optimal, and
//! exercises the `MulCircuit` builder on a structurally different
//! algorithm.

use gf2m::Field;
use netlist::{Netlist, NodeId};
use rgf2m_core::gen::MulCircuit;

/// The schoolbook cut-off: recursion stops at this many coordinates
/// (the standard hybrid, since Karatsuba's XOR overhead dominates at
/// small sizes).
const THRESHOLD: usize = 8;

/// A recursive Karatsuba polynomial multiplier, schoolbook from 8
/// coordinates down, followed by reduction-matrix reduction. The
/// netlist is named `mul_karatsuba_m<m>`.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23)?);
/// let net = rgf2m_baselines::karatsuba(&field);
/// // Sub-quadratic: strictly fewer than 64² AND gates.
/// assert!(net.stats().ands < 64 * 64);
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
pub fn karatsuba(field: &Field) -> Netlist {
    karatsuba_with(field, THRESHOLD)
}

/// [`karatsuba`] with the schoolbook cut-off `threshold` (at least 2).
fn karatsuba_with(field: &Field, threshold: usize) -> Netlist {
    let m = field.m();
    let red = field.reduction_matrix().clone();
    let mut circuit = MulCircuit::new(m, format!("mul_karatsuba_m{m}"));
    let a: Vec<NodeId> = (0..m).map(|i| circuit.a_input(i)).collect();
    let b: Vec<NodeId> = (0..m).map(|j| circuit.b_input(j)).collect();
    // Unreduced product d_0..d_{2m-2}.
    let d = karatsuba_rec(circuit.net_mut(), &a, &b, threshold);
    debug_assert_eq!(d.len(), 2 * m - 1);
    // Reduce via the reduction matrix.
    for k in 0..m {
        let mut parts = vec![d[k]];
        for t in 0..m - 1 {
            if red.entry(k, t) {
                parts.push(d[m + t]);
            }
        }
        let c = circuit.net_mut().xor_balanced(&parts);
        circuit.output(k, c);
    }
    circuit.finish()
}

/// Recursive Karatsuba over coordinate slices; returns the 2n−1
/// coefficients of the polynomial product.
fn karatsuba_rec(net: &mut Netlist, a: &[NodeId], b: &[NodeId], threshold: usize) -> Vec<NodeId> {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    if n == 0 {
        return Vec::new();
    }
    if n <= threshold {
        // Schoolbook base case with balanced antidiagonal trees.
        let mut out = Vec::with_capacity(2 * n - 1);
        for k in 0..2 * n - 1 {
            let mut terms = Vec::new();
            for i in k.saturating_sub(n - 1)..=k.min(n - 1) {
                let p = net.and(a[i], b[k - i]);
                terms.push(p);
            }
            out.push(net.xor_balanced(&terms));
        }
        return out;
    }
    let half = n / 2;
    let (a_lo, a_hi) = a.split_at(half);
    let (b_lo, b_hi) = b.split_at(half);
    // Three recursive products: lo·lo, hi·hi, (lo+hi)·(lo+hi).
    let p_lo = karatsuba_rec(net, a_lo, b_lo, threshold);
    let p_hi = karatsuba_rec(net, a_hi, b_hi, threshold);
    let a_mid: Vec<NodeId> = (0..n - half)
        .map(|i| {
            if i < half {
                net.xor(a_lo[i], a_hi[i])
            } else {
                a_hi[i]
            }
        })
        .collect();
    let b_mid: Vec<NodeId> = (0..n - half)
        .map(|i| {
            if i < half {
                net.xor(b_lo[i], b_hi[i])
            } else {
                b_hi[i]
            }
        })
        .collect();
    let p_mid = karatsuba_rec(net, &a_mid, &b_mid, threshold);
    // Combine: result = p_lo + X^half·(p_mid − p_lo − p_hi) + X^{2·half}·p_hi.
    let zero = net.constant(false);
    let mut out = vec![zero; 2 * n - 1];
    let acc = |net: &mut Netlist, out: &mut Vec<NodeId>, idx: usize, v: NodeId| {
        out[idx] = net.xor(out[idx], v);
    };
    for (i, &v) in p_lo.iter().enumerate() {
        acc(net, &mut out, i, v);
        acc(net, &mut out, i + half, v); // subtraction = addition in GF(2)
    }
    for (i, &v) in p_hi.iter().enumerate() {
        acc(net, &mut out, i + 2 * half, v);
        acc(net, &mut out, i + half, v);
    }
    for (i, &v) in p_mid.iter().enumerate() {
        acc(net, &mut out, i + half, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::TypeIiPentanomial;
    use netlist::sim::{check_against_oracle_exhaustive, check_against_oracle_random};

    #[test]
    fn correct_exhaustively_on_gf256() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        // Threshold 2 forces real recursion even at m = 8.
        let net = karatsuba_with(&field, 2);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }

    #[test]
    fn correct_on_odd_sized_field() {
        // Odd m exercises the asymmetric split at every level.
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(11, 4).unwrap());
        let net = karatsuba_with(&field, 3);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }

    #[test]
    fn sub_quadratic_and_count() {
        for (m, n) in [(64usize, 23usize), (113, 34)] {
            let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
            let net = karatsuba(&field);
            let ands = net.stats().ands;
            assert!(ands < m * m, "({m},{n}): {ands} >= m²");
            // And the asymptotic is roughly m^1.585: allow generous slack.
            let bound = (3.0 * (m as f64).powf(1.7)) as usize;
            assert!(ands < bound, "({m},{n}): {ands} >= {bound}");
            let oracle = |w: &[u64]| field.mul_words(w);
            assert!(check_against_oracle_random(&net, oracle, 3, 99).is_equivalent());
        }
    }

    #[test]
    fn trades_ands_for_xors_and_depth() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap());
        let kara = karatsuba(&field).stats();
        let quad = rgf2m_core::generate(&field, rgf2m_core::Method::Rashidi).stats();
        assert!(kara.ands < quad.ands);
        assert!(kara.depth.xors >= quad.depth.xors);
    }

    #[test]
    fn threshold_larger_than_m_degenerates_to_schoolbook() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        let net = karatsuba_with(&field, 64);
        assert_eq!(net.stats().ands, 64); // pure schoolbook
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }
}
