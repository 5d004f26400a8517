//! The monolithic `S_i`/`T_i` multiplier of \[6\] (Imaña 2012).

use gf2m::Field;
use netlist::Netlist;

use crate::coeffs::CoefficientTable;
use crate::gen::MulCircuit;
use crate::sit::SiTi;

/// The method of \[6\]: each `S_i`/`T_i` is built as one
/// *monolithic* balanced XOR tree over its product terms, and each
/// coefficient `c_k` as a balanced XOR tree over its whole units.
///
/// The monolithic construction is exactly what the paper identifies as
/// the delay bottleneck motivating the splitting of \[7\]: summing units
/// of unequal depth in a plain balanced tree wastes levels (T_A + 6T_X
/// for GF(2^8) versus T_A + 5T_X with splitting).
pub(super) fn generate(field: &Field) -> Netlist {
    let m = field.m();
    let sit = SiTi::new(m);
    let table = CoefficientTable::new(field);
    let mut circuit = MulCircuit::new(m, format!("mul_imana2012_m{m}"));

    // Build every S_i / T_i unit once (hash-consing shares them
    // across coefficients automatically).
    let s_units: Vec<_> = (1..=m)
        .map(|i| {
            let nodes = circuit.term_nodes(sit.s(i));
            circuit.net_mut().xor_balanced(&nodes)
        })
        .collect();
    let t_units: Vec<_> = (0..=m - 2)
        .map(|i| {
            let nodes = circuit.term_nodes(sit.t(i));
            circuit.net_mut().xor_balanced(&nodes)
        })
        .collect();

    for k in 0..m {
        let row = table.row(k);
        let mut units = vec![s_units[row.s_index - 1]];
        units.extend(row.t_indices.iter().map(|&i| t_units[i]));
        let c = circuit.net_mut().xor_balanced(&units);
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
    fn correct_on_gf128() {
        // The smallest type II field: (7,2) = y^7 + y^4 + y^3 + y^2 + 1.
        let penta = TypeIiPentanomial::new(7, 2).expect("(7,2) is irreducible");
        let field = Field::from_pentanomial(&penta);
        let net = generate(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }

    #[test]
    fn unit_sharing_keeps_and_count_minimal() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
        let net = generate(&field);
        // Every a_i·b_j appears exactly once.
        assert_eq!(net.stats().ands, 64);
    }
}
