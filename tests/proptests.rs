//! Cross-crate property tests: random operands, random fields, random
//! methods — the full stack must stay consistent.

use proptest::prelude::*;
use rgf2m::prelude::*;

/// A pool of small-to-medium fields covering both parities of m and
/// both pentanomial and trinomial moduli.
fn field_pool() -> Vec<Field> {
    vec![
        Field::from_pentanomial(&TypeIiPentanomial::new(7, 2).unwrap()),
        Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap()),
        Field::from_pentanomial(&TypeIiPentanomial::new(8, 3).unwrap()),
        Field::from_pentanomial(&TypeIiPentanomial::new(13, 5).unwrap()),
        Field::from_pentanomial(&TypeIiPentanomial::new(16, 3).unwrap()),
        Field::new(gf2poly::Gf2Poly::from_exponents(&[9, 1, 0])).unwrap(),
    ]
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Imana2012),
        Just(Method::Imana2016),
        Just(Method::ProposedFlat),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_netlists_multiply_correctly(
        fi in 0usize..6,
        method in arb_method(),
        seed in any::<u64>(),
    ) {
        let field = &field_pool()[fi];
        let net = generate(field, method);
        let oracle = |w: &[u64]| field.mul_words(w);
        prop_assert!(
            netlist::sim::check_against_oracle_random(&net, oracle, 2, seed)
                .is_equivalent()
        );
    }

    #[test]
    fn netlist_product_is_commutative(
        fi in 0usize..6,
        a_bits in any::<u64>(),
        b_bits in any::<u64>(),
    ) {
        let field = &field_pool()[fi];
        let m = field.m();
        let net = generate(field, Method::ProposedFlat);
        let mk = |x: u64, y: u64| -> Vec<bool> {
            (0..m).map(|i| (x >> (i % 64)) & 1 == 1)
                .chain((0..m).map(|i| (y >> (i % 64)) & 1 == 1))
                .collect()
        };
        prop_assert_eq!(
            net.eval_bool(&mk(a_bits, b_bits)),
            net.eval_bool(&mk(b_bits, a_bits))
        );
    }

    #[test]
    fn multiplying_by_one_is_identity_at_gate_level(
        fi in 0usize..6,
        a_bits in any::<u64>(),
    ) {
        let field = &field_pool()[fi];
        let m = field.m();
        let net = generate(field, Method::Imana2016);
        let inputs: Vec<bool> = (0..m)
            .map(|i| (a_bits >> (i % 64)) & 1 == 1)
            .chain((0..m).map(|i| i == 0)) // b = 1
            .collect();
        let out = net.eval_bool(&inputs);
        let expect: Vec<bool> = inputs[..m].to_vec();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn resynthesis_preserves_random_multipliers(
        fi in 0usize..6,
        method in arb_method(),
        seed in any::<u64>(),
    ) {
        let field = &field_pool()[fi];
        let net = generate(field, method);
        let re = rgf2m::fpga::resynth::rebalance_xors(&net, 6);
        prop_assert!(
            netlist::sim::check_equivalent_random(&net, &re, 2, seed).is_equivalent()
        );
    }

    #[test]
    fn mapping_preserves_random_multipliers(
        fi in 0usize..6,
        k in 3usize..=6,
    ) {
        let field = &field_pool()[fi];
        let net = generate(field, Method::ProposedFlat);
        let mapped = rgf2m::fpga::map::map_to_luts(
            &net,
            &MapOptions::new().with_k(k),
        );
        prop_assert_eq!(rgf2m::fpga::formal::verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn strash_dedup_preserves_formal_equivalence(
        fi in 0usize..6,
        mi in 0usize..6,
    ) {
        // The proof-carrying dedup rewrite must never change the
        // function: its output still passes complete algebraic
        // verification against the multiplication spec, for every
        // registered method over every pooled field. And because the
        // netlist builder hash-conses, there is never anything for it
        // to reclaim on a generated design.
        let field = &field_pool()[fi];
        let net = generate(field, Method::ALL[mi]);
        let (deduped, saved) = strash_dedup(&net);
        prop_assert_eq!(saved, 0);
        let spec = multiplier_spec(field);
        prop_assert!(Pipeline::new().verify_formal(&spec, &deduped).is_ok());
    }

    #[test]
    fn census_totals_match_netlist_stats(
        fi in 0usize..6,
        mi in 0usize..6,
    ) {
        // The gate census is just a different projection of the same
        // netlist: its per-kind totals must agree with `stats()` and
        // with the Table V area formulas, gate for gate.
        let field = &field_pool()[fi];
        let method = Method::ALL[mi];
        let net = generate(field, method);
        let census = GateCensus::of(&net);
        let stats = net.stats();
        prop_assert_eq!(census.ands, stats.ands);
        prop_assert_eq!(census.xors, stats.xors);
        let spec = area_spec(field, method);
        prop_assert_eq!(census.ands, spec.ands());
        prop_assert_eq!(census.xors, spec.xors());
    }

    #[test]
    fn field_and_gate_level_agree_on_random_triples(
        fi in 0usize..6,
        a_bits in any::<u64>(),
        b_bits in any::<u64>(),
    ) {
        // (a·b)·a == a·(b·a) through the gate level, twice through the
        // netlist.
        let field = &field_pool()[fi];
        let m = field.m();
        let net = generate(field, Method::ProposedFlat);
        let a = field.element_from_bits(a_bits);
        let b = field.element_from_bits(b_bits);
        let ab_sw = field.mul(&a, &b);
        let inputs: Vec<bool> = (0..m)
            .map(|i| a.coeff(i))
            .chain((0..m).map(|i| b.coeff(i)))
            .collect();
        let ab_hw = net.eval_bool(&inputs);
        prop_assert_eq!(ab_hw.len(), m);
        for (k, &bit) in ab_hw.iter().enumerate() {
            prop_assert_eq!(bit, ab_sw.coeff(k));
        }
    }
}
