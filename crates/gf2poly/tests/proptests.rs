//! Property-based tests for the GF(2)[y] polynomial ring.

use gf2poly::Gf2Poly;
use proptest::prelude::*;

/// Strategy producing polynomials of degree < 192 (3 limbs).
fn arb_poly() -> impl Strategy<Value = Gf2Poly> {
    proptest::collection::vec(any::<u64>(), 0..=3).prop_map(Gf2Poly::from_limbs)
}

/// Strategy producing nonzero polynomials.
fn arb_nonzero_poly() -> impl Strategy<Value = Gf2Poly> {
    arb_poly().prop_filter("nonzero", |p| !p.is_zero())
}

proptest! {
    #[test]
    fn addition_commutes(a in arb_poly(), b in arb_poly()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn addition_self_inverse(a in arb_poly()) {
        prop_assert!((&a + &a).is_zero());
    }

    #[test]
    fn addition_associates(a in arb_poly(), b in arb_poly(), c in arb_poly()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn multiplication_commutes(a in arb_poly(), b in arb_poly()) {
        prop_assert_eq!(a.mul_poly(&b), b.mul_poly(&a));
    }

    #[test]
    fn multiplication_associates(a in arb_poly(), b in arb_poly(), c in arb_poly()) {
        prop_assert_eq!(a.mul_poly(&b).mul_poly(&c), a.mul_poly(&b.mul_poly(&c)));
    }

    #[test]
    fn multiplication_distributes(a in arb_poly(), b in arb_poly(), c in arb_poly()) {
        prop_assert_eq!(a.mul_poly(&(&b + &c)), a.mul_poly(&b) + a.mul_poly(&c));
    }

    #[test]
    fn degree_of_product_adds(a in arb_nonzero_poly(), b in arb_nonzero_poly()) {
        let prod = a.mul_poly(&b);
        prop_assert_eq!(
            prod.degree().unwrap(),
            a.degree().unwrap() + b.degree().unwrap()
        );
    }

    #[test]
    fn square_freshman_dream(a in arb_poly(), b in arb_poly()) {
        // (a + b)^2 = a^2 + b^2 in characteristic 2.
        prop_assert_eq!((&a + &b).square(), a.square() + b.square());
    }

    #[test]
    fn div_rem_invariant(a in arb_poly(), d in arb_nonzero_poly()) {
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(q.mul_poly(&d) + r.clone(), a);
        if let Some(rd) = r.degree() {
            prop_assert!(rd < d.degree().unwrap());
        }
    }

    #[test]
    fn gcd_divides_both(a in arb_nonzero_poly(), b in arb_nonzero_poly()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem_by(&g).is_zero());
        prop_assert!(b.rem_by(&g).is_zero());
    }

    #[test]
    fn gcd_is_symmetric(a in arb_poly(), b in arb_poly()) {
        prop_assert_eq!(a.gcd(&b), b.gcd(&a));
    }

    #[test]
    fn shl_then_coeffs_shift(a in arb_poly(), k in 0usize..100) {
        let shifted = a.shl(k);
        for e in a.exponents() {
            prop_assert!(shifted.coeff(e + k));
        }
        prop_assert_eq!(shifted.weight(), a.weight());
    }

    #[test]
    fn eval_is_ring_hom_at_one(a in arb_poly(), b in arb_poly()) {
        // evaluation at 1 is a ring homomorphism GF(2)[y] -> GF(2).
        prop_assert_eq!(a.mul_poly(&b).eval(true), a.eval(true) & b.eval(true));
        prop_assert_eq!((&a + &b).eval(true), a.eval(true) ^ b.eval(true));
    }

    #[test]
    fn display_roundtrip_via_exponents(a in arb_poly()) {
        let exps: Vec<usize> = a.exponents().collect();
        prop_assert_eq!(Gf2Poly::from_exponents(&exps), a);
    }
}
