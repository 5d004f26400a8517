//! The product-matrix multiplier of Mastrovito/Paar (\[2\]).

use gf2m::{Field, MastrovitoMatrix};
use netlist::Netlist;

use crate::gen::MulCircuit;

/// The Mastrovito product-matrix architecture as used by Paar (\[2\]
/// in the paper).
///
/// The multiplier literally evaluates `c = M(a) · b`:
///
/// 1. each distinct matrix entry `M[k][j]` — a GF(2)-sum of `a`
///    coordinates — is materialized once as a balanced XOR tree over the
///    `a` inputs (hash-consing shares identical sums across the matrix);
/// 2. every nonzero entry is ANDed with its column input `b_j`;
/// 3. each row is accumulated with a balanced XOR tree.
///
/// Unlike the other methods, the AND gates here combine *sums* of `a`
/// coordinates with `b_j`, so XOR logic sits both above and below the
/// AND level — the structure the paper's delay discussion attributes to
/// this architecture.
pub(super) fn generate(field: &Field) -> Netlist {
    let m = field.m();
    let matrix = MastrovitoMatrix::new(field);
    let mut circuit = MulCircuit::new(m, format!("mul_mastrovito_m{m}"));
    let a_inputs: Vec<_> = (0..m).map(|i| circuit.a_input(i)).collect();
    let b_inputs: Vec<_> = (0..m).map(|j| circuit.b_input(j)).collect();
    for k in 0..m {
        let mut row_terms = Vec::new();
        for (j, &bj) in b_inputs.iter().enumerate() {
            let entry = matrix.entry(k, j);
            if entry.is_empty() {
                continue;
            }
            let sum_nodes: Vec<_> = entry.iter().map(|&i| a_inputs[i]).collect();
            let entry_node = circuit.net_mut().xor_balanced(&sum_nodes);
            let anded = circuit.net_mut().and(entry_node, bj);
            row_terms.push(anded);
        }
        let c = circuit.net_mut().xor_balanced(&row_terms);
        circuit.output(k, c);
    }
    circuit.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::TypeIiPentanomial;
    use netlist::sim::{check_against_oracle_exhaustive, check_against_oracle_random};

    fn gf256() -> Field {
        Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
    }

    #[test]
    fn correct_exhaustively_on_gf256() {
        let field = gf256();
        let net = generate(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }

    #[test]
    fn and_count_close_to_m_squared() {
        // One AND per nonzero matrix entry; for a pentanomial the matrix
        // is nearly dense.
        let s = generate(&gf256()).stats();
        assert!((56..=72).contains(&s.ands), "ANDs = {}", s.ands);
    }

    #[test]
    fn xor_sits_above_and_below_the_and_level() {
        // The Mastrovito structure puts a-sums *below* the AND gates, so
        // total depth has XOR levels on both sides: XOR depth must exceed
        // the row-accumulation depth alone (⌈log2 m⌉ = 3 at m = 8).
        let net = generate(&gf256());
        let d = net.depth();
        assert_eq!(d.ands, 1);
        assert!(d.xors > 3, "expected pre-AND sums to add depth, got {d}");
    }

    #[test]
    fn correct_on_large_field_randomly() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap());
        let net = generate(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_random(&net, oracle, 4, 7).is_equivalent());
    }
}
