//! Property-based tests for GF(2^m) field axioms across several moduli.

use gf2m::Field;
use gf2poly::{Gf2Poly, TypeIiPentanomial};
use proptest::prelude::*;

/// The fields exercised: small/odd/even degree, pentanomial and trinomial.
fn fields() -> Vec<Field> {
    vec![
        Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap()),
        Field::from_pentanomial(&TypeIiPentanomial::new(13, 5).unwrap()),
        Field::from_pentanomial(&TypeIiPentanomial::new(64, 23).unwrap()),
        Field::new(Gf2Poly::from_exponents(&[113, 9, 0])).unwrap(),
    ]
}

fn arb_field_and_pair() -> impl Strategy<Value = (usize, Vec<u64>, Vec<u64>)> {
    (
        0usize..4,
        proptest::collection::vec(any::<u64>(), 1..=2),
        proptest::collection::vec(any::<u64>(), 1..=2),
    )
}

proptest! {
    #[test]
    fn mul_commutes((fi, al, bl) in arb_field_and_pair()) {
        let f = &fields()[fi];
        let a = f.element_from_limbs(al);
        let b = f.element_from_limbs(bl);
        prop_assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
    }

    #[test]
    fn mul_routes_agree((fi, al, bl) in arb_field_and_pair()) {
        let f = &fields()[fi];
        let a = f.element_from_limbs(al);
        let b = f.element_from_limbs(bl);
        prop_assert_eq!(f.mul(&a, &b), f.mul_via_reduction_matrix(&a, &b));
    }

    #[test]
    fn mul_associates(
        (fi, al, bl) in arb_field_and_pair(),
        cl in proptest::collection::vec(any::<u64>(), 1..=2),
    ) {
        let f = &fields()[fi];
        let (a, b, c) = (
            f.element_from_limbs(al),
            f.element_from_limbs(bl),
            f.element_from_limbs(cl),
        );
        prop_assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
    }

    #[test]
    fn mul_distributes(
        (fi, al, bl) in arb_field_and_pair(),
        cl in proptest::collection::vec(any::<u64>(), 1..=2),
    ) {
        let f = &fields()[fi];
        let (a, b, c) = (
            f.element_from_limbs(al),
            f.element_from_limbs(bl),
            f.element_from_limbs(cl),
        );
        prop_assert_eq!(
            f.mul(&a, &f.add(&b, &c)),
            f.add(&f.mul(&a, &b), &f.mul(&a, &c))
        );
    }

    #[test]
    fn square_is_frobenius((fi, al, bl) in arb_field_and_pair()) {
        let f = &fields()[fi];
        let a = f.element_from_limbs(al);
        let b = f.element_from_limbs(bl);
        // (a+b)^2 = a^2 + b^2 and (ab)^2 = a^2 b^2.
        prop_assert_eq!(
            f.square(&f.add(&a, &b)),
            f.add(&f.square(&a), &f.square(&b))
        );
        prop_assert_eq!(f.square(&f.mul(&a, &b)), f.mul(&f.square(&a), &f.square(&b)));
    }
}
