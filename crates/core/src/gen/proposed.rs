//! The paper's proposed multiplier: split atoms, **flat** coefficient
//! sums, synthesis freedom downstream.

use gf2m::Field;
use netlist::Netlist;

use crate::coeffs::FlatCoefficientTable;
use crate::gen::MulCircuit;

/// The paper's contribution (Table IV): keep the
/// `S^j_i`/`T^j_i` splitting of \[7\] but *drop the parenthesised
/// pairing restriction*. Every coefficient is emitted as a structurally
/// neutral sum of its atoms — no cross-coefficient pair nodes are forced
/// into existence — so the downstream synthesis tool (the `rgf2m-fpga`
/// mapper, standing in for Xilinx XST) is free to restructure the XOR
/// network while mapping into LUTs.
///
/// The atoms themselves are still complete balanced trees (that part of
/// the structure is beneficial and kept), and partial products remain
/// fully shared.
pub(super) fn generate(field: &Field) -> Netlist {
    let m = field.m();
    let table = FlatCoefficientTable::new(field);
    let mut circuit = MulCircuit::new(m, format!("mul_proposed_m{m}"));
    for k in 0..m {
        let atoms: Vec<_> = table.atoms(k).to_vec();
        let nodes: Vec<_> = atoms.iter().map(|a| circuit.atom(a)).collect();
        // A plain balanced combination in table order: no forced
        // same-level pair nodes shared across coefficients.
        let c = circuit.net_mut().xor_balanced(&nodes);
        circuit.output(k, c);
    }
    circuit.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::TypeIiPentanomial;
    use netlist::sim::check_against_oracle_exhaustive;

    #[test]
    fn correct_on_gf256() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        let net = generate(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }

    #[test]
    fn structurally_differs_from_parenthesised_method() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        let flat = generate(&field);
        let paren = crate::generate(&field, crate::Method::Imana2016);
        // Same function (checked elsewhere), different structure: the
        // netlists should not be gate-for-gate identical.
        let flat_sig: Vec<_> = flat.gates().to_vec();
        let paren_sig: Vec<_> = paren.gates().to_vec();
        assert_ne!(flat_sig, paren_sig);
    }

    #[test]
    fn atom_trees_are_complete() {
        // AND depth is exactly 1 and XOR depth is bounded by
        // ceil(log2(largest coefficient support)).
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        let net = generate(&field);
        assert_eq!(net.depth().ands, 1);
        assert!(net.depth().xors <= 7);
    }
}
