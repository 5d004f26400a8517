//! A naive two-step reference multiplier (not part of Table V).

use gf2m::Field;
use netlist::Netlist;
use rgf2m_core::gen::MulCircuit;
use rgf2m_core::terms::d_terms;

/// A deliberately naive two-step multiplier: `d_k` built by *chained*
/// XOR accumulation (schoolbook order), then reduction, also chained.
///
/// This is the structural worst case — linear depth — kept as a
/// reference point for tests and for the ablation benches showing how
/// much tree construction matters. It is functionally identical to every
/// other generator. The netlist is named `mul_school_m<m>`.
pub fn school(field: &Field) -> Netlist {
    let m = field.m();
    let red = field.reduction_matrix().clone();
    let mut circuit = MulCircuit::new(m, format!("mul_school_m{m}"));
    let d_nodes: Vec<_> = (0..=2 * m - 2)
        .map(|k| {
            // Chain over raw products in schoolbook order.
            let products: Vec<_> = d_terms(m, k).iter().flat_map(|t| t.products()).collect();
            let nodes: Vec<_> = products
                .into_iter()
                .map(|(i, j)| circuit.product(i, j))
                .collect();
            circuit.net_mut().xor_chain(&nodes)
        })
        .collect();
    for k in 0..m {
        let mut acc = vec![d_nodes[k]];
        for t in 0..m - 1 {
            if red.entry(k, t) {
                acc.push(d_nodes[m + t]);
            }
        }
        let c = circuit.net_mut().xor_chain(&acc);
        circuit.output(k, c);
    }
    circuit.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::TypeIiPentanomial;
    use netlist::sim::check_against_oracle_exhaustive;

    fn gf256() -> Field {
        Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
    }

    #[test]
    fn correct_exhaustively_on_gf256() {
        let field = gf256();
        let net = school(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_exhaustive(&net, oracle).is_equivalent());
    }

    #[test]
    fn depth_is_much_worse_than_tree_methods() {
        let field = gf256();
        let school = school(&field).depth().xors;
        let rashidi = rgf2m_core::generate(&field, rgf2m_core::Method::Rashidi)
            .depth()
            .xors;
        assert!(
            school >= 2 * rashidi,
            "school {school} vs rashidi {rashidi}"
        );
    }

    #[test]
    fn same_and_count_as_everyone_else() {
        assert_eq!(school(&gf256()).stats().ands, 64);
    }
}
