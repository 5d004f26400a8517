//! The split + parenthesised multiplier of \[7\] (Imaña 2016).

use gf2m::Field;
use netlist::Netlist;

use crate::coeffs::FlatCoefficientTable;
use crate::gen::MulCircuit;

/// The method of \[7\]: `S_i`/`T_i` split into complete
/// XOR-tree atoms `S^j_i`/`T^j_i`, which are then summed under the
/// *parenthesised same-level pairing* discipline — atoms of equal depth
/// are XORed together first, so every pairing produces a complete tree
/// one level deeper (Table III of the paper).
///
/// We realize the discipline as deterministic depth-aware (Huffman)
/// pairing, which achieves the published delay bound: `T_A + 5T_X` for
/// GF(2^8). The printed grouping of Table III may differ textually; the
/// level structure is the same.
pub(super) fn generate(field: &Field) -> Netlist {
    let m = field.m();
    let table = FlatCoefficientTable::new(field);
    let mut circuit = MulCircuit::new(m, format!("mul_imana2016_m{m}"));
    for k in 0..m {
        let atoms: Vec<_> = table.atoms(k).to_vec();
        let nodes: Vec<_> = atoms.iter().map(|a| circuit.atom(a)).collect();
        let c = circuit.net_mut().xor_depth_aware(&nodes);
        circuit.output(k, c);
    }
    circuit.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::TypeIiPentanomial;
    use netlist::analysis::Depth;
    use netlist::sim::check_against_oracle_exhaustive;

    #[test]
    fn correct_and_depth_bounded_on_smallest_type_ii_field() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(7, 2).unwrap());
        let net = generate(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
        assert_eq!(net.depth().ands, 1);
    }

    #[test]
    fn paper_delay_bound_gf256() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        let net = generate(&field);
        assert_eq!(net.depth(), Depth { ands: 1, xors: 5 });
    }

    /// Delay stays logarithmic: ≤ T_A + (⌈log2 m⌉ + 3)·T_X. The atoms
    /// are at most ⌊log2 m⌋ deep and the same-level pairing adds a
    /// bounded number of levels for the type II reduction network (the
    /// paper cites T_A + 5T_X at m = 8, where only first-order reduction
    /// occurs; larger fields pay for second-order reduction fan-in).
    #[test]
    fn delay_scales_logarithmically() {
        for (m, n) in [(8usize, 2usize), (16, 3), (64, 23), (113, 34)] {
            let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
            let net = generate(&field);
            let ceil_log2 = usize::BITS - (m - 1).leading_zeros();
            let bound = ceil_log2 + 3;
            assert!(
                net.depth().xors <= bound,
                "m={m}: depth {} > bound {bound}",
                net.depth().xors
            );
        }
    }
}
