//! The minimum-delay bit-parallel multiplier of Rashidi et al. (\[8\]).

use gf2m::Field;
use netlist::Netlist;

use crate::gen::support::coefficient_support;
use crate::gen::MulCircuit;

/// The bit-parallel version of the low-time-complexity
/// multiplier of Rashidi, Farashahi & Sayedi (\[8\] in the paper).
///
/// Every product coordinate is *flattened to its raw partial-product
/// support* and summed by one perfectly balanced XOR tree — no
/// intermediate `d_k`/`z`-pair nodes constrain the tree shape. This is
/// the minimum-achievable delay for 2-input gates,
/// `T_A + ⌈log2 |support|⌉ · T_X`, matching Table V where \[8\] posts the
/// lowest critical path for GF(2^8). The price is that nothing except
/// the AND gates is shared between coefficients, which costs XOR area.
pub(super) fn generate(field: &Field) -> Netlist {
    let m = field.m();
    let mut circuit = MulCircuit::new(m, format!("mul_rashidi_m{m}"));
    for k in 0..m {
        let products: Vec<_> = coefficient_support(field, k)
            .into_iter()
            .map(|(i, j)| circuit.product(i, j))
            .collect();
        let c = circuit.net_mut().xor_balanced(&products);
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
    fn achieves_minimum_depth_gf256() {
        // Largest support for (8,2) is 22 products → ⌈log2 22⌉ = 5 XOR
        // levels; no 2-input-gate multiplier can beat T_A + 5T_X.
        let field = gf256();
        let max_support = (0..8)
            .map(|k| coefficient_support(&field, k).len())
            .max()
            .unwrap();
        let want = usize::BITS - (max_support - 1).leading_zeros();
        let d = generate(&field).depth();
        assert_eq!(d.ands, 1);
        assert_eq!(d.xors, want);
    }

    #[test]
    fn depth_is_minimal_among_all_methods_gf256() {
        use crate::Method;
        let field = gf256();
        let rashidi_depth = generate(&field).depth().xors;
        for method in Method::ALL {
            let other = crate::generate(&field, method).depth().xors;
            assert!(
                rashidi_depth <= other,
                "rashidi {rashidi_depth} vs {method:?} {other}"
            );
        }
    }

    #[test]
    fn pays_for_depth_with_xor_area() {
        // Flattening forgoes z-pair sharing: strictly more XORs than [3].
        let field = gf256();
        let rashidi = generate(&field).stats().xors;
        let reyhani = crate::generate(&field, crate::Method::ReyhaniHasan)
            .stats()
            .xors;
        assert!(rashidi > reyhani, "{rashidi} vs {reyhani}");
        // But the AND gates are still shared: exactly m².
        assert_eq!(generate(&field).stats().ands, 64);
    }

    #[test]
    fn correct_on_large_field_randomly() {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap());
        let net = generate(&field);
        let oracle = |w: &[u64]| field.mul_words(w);
        assert!(check_against_oracle_random(&net, oracle, 4, 13).is_equivalent());
    }
}
