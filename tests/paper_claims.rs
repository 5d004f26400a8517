//! Machine-checked statements from the paper's text, beyond the tables:
//! each test quotes the claim it verifies.

use rgf2m::prelude::*;

/// §I/§II: "Type II irreducible pentanomials f(y) = y^m + y^{n+2} +
/// y^{n+1} + y^n + 1, with 2 ≤ n ≤ ⌊m/2⌋−1, are important because they
/// are abundant..."
#[test]
fn type_ii_pentanomials_are_abundant() {
    let mut degrees_with_at_least_one = 0;
    for m in 6..=128usize {
        if TypeIiPentanomial::first(m).is_some() {
            degrees_with_at_least_one += 1;
        }
    }
    // A majority of degrees in 6..=128 admit one (we measure 73 of 123,
    // ≈ 59% — "abundant" relative to, e.g., irreducible trinomials,
    // which miss every m ≡ 0 (mod 8)).
    assert!(
        degrees_with_at_least_one * 2 > 128 - 6,
        "only {degrees_with_at_least_one} of 123 degrees have a type II pentanomial"
    );
}

/// §I: "...all five binary fields recommended by NIST for ECDSA can be
/// constructed using such polynomials." (571 exercised separately —
/// see `nist_571_admits_type_ii_pentanomial`.)
#[test]
fn nist_fields_admit_type_ii_pentanomials() {
    for m in [163usize, 233, 283, 409] {
        assert!(
            TypeIiPentanomial::first(m).is_some(),
            "NIST degree {m} has no type II pentanomial"
        );
    }
}

/// The m = 571 case of the NIST claim (slowest; kept separate).
/// Runs by default in release builds — seconds there — and stays
/// ignored only under debug assertions, where the GF(2) polynomial
/// arithmetic is an order of magnitude slower.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "takes ~a minute unoptimized; runs by default in release builds (cargo test --release)"
)]
fn nist_571_admits_type_ii_pentanomial() {
    assert!(TypeIiPentanomial::first(571).is_some());
}

/// §II: the worked S/T example — "for GF(2^8) the addition of S1 + T4 =
/// a0b0 + (a6b6 + (a5b7 + a7b5)) would result in a 3-level binary tree
/// of XOR gates. However ... it could be done with a 2-level complete
/// binary tree."
#[test]
fn s1_plus_t4_packs_into_two_levels() {
    use netlist::Netlist;
    let sit = SiTi::new(8);
    // Monolithic: S1 + (T4 as a nested tree) — 3 XOR levels.
    let mut mono = Netlist::new("mono");
    let nodes: Vec<_> = {
        let mut b = Vec::new();
        for t in sit.s(1).iter().chain(sit.t(4)) {
            let prods: Vec<_> = t
                .products()
                .iter()
                .map(|&(i, j)| {
                    let a = mono.input(format!("a{i}_{j}"));
                    let bb = mono.input(format!("b{i}_{j}"));
                    mono.and(a, bb)
                })
                .collect();
            b.push(prods);
        }
        b
    };
    // S1 = x0 (1 product); T4 = x6 + z5^7 (3 products).
    assert_eq!(nodes[0].len(), 1);
    assert_eq!(nodes[1].len() + nodes[2].len(), 3);
    // All four products in one balanced tree: 2 XOR levels.
    let mut flat = Vec::new();
    for group in &nodes {
        flat.extend_from_slice(group);
    }
    let root = mono.xor_balanced(&flat);
    mono.output("y", root);
    assert_eq!(mono.depth().xors, 2);
}

/// §II: "the delay complexity is TA + 5TX ... the lowest one among
/// similar GF(2^8) multipliers, such as those given in [6] and [3],
/// with delays TA + 6TX and TA + 7TX".
#[test]
fn delay_hierarchy_for_gf256() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    let d2016 = generate(&field, Method::Imana2016).depth();
    let d2012 = generate(&field, Method::Imana2012).depth();
    assert_eq!((d2016.ands, d2016.xors), (1, 5), "[7]-style splitting");
    assert_eq!((d2012.ands, d2012.xors), (1, 6), "[6]-style monolithic");
}

/// §II: "The space complexity ... was found to be 64 AND and 87 XOR
/// gates" for the Table III multiplier; "the number of 2-input AND
/// gates is the same in all approaches".
#[test]
fn space_complexity_for_gf256() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    // "the number of 2-input AND gates is the same in all approaches"
    // refers to the methods that AND raw operand bits (m² partial
    // products); Mastrovito/Paar ANDs sums of a-coordinates instead, so
    // its count is one per nonzero matrix entry.
    for method in Method::ALL {
        if method == Method::MastrovitoPaar {
            continue;
        }
        assert_eq!(generate(&field, method).stats().ands, 64, "{method:?}");
    }
    let xors = generate(&field, Method::Imana2016).stats().xors;
    // Paper: 87 with [7]'s exact sharing; ours shares via hash-consing
    // and deterministic Huffman pairing, landing within a few gates.
    assert!(
        (80..=95).contains(&xors),
        "parenthesised XOR count {xors} far from the paper's 87"
    );
}

/// §II, eq. (1): the Si/Ti definitions — cross-checked against direct
/// antidiagonal enumeration for every m up to 96 (both parities).
#[test]
fn equation_1_is_correct_for_all_m_up_to_96() {
    for m in 2..=96 {
        let direct = SiTi::new(m);
        let formula = SiTi::from_equation_1(m);
        for i in 1..=m {
            let mut a = direct.s(i).to_vec();
            let mut b = formula.s(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "S_{i}, m={m}");
        }
        for i in 0..=m.saturating_sub(2) {
            let mut a = direct.t(i).to_vec();
            let mut b = formula.t(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "T_{i}, m={m}");
        }
    }
}

/// §III/§IV: the central architectural claim — removing the
/// parenthesised restriction gives the synthesis tool freedom, so the
/// flat design's mapped LUT depth stays within one level of the
/// parenthesised design's: `flat.depth <= paren.depth + 1`. The name
/// states the paper's claim; the bound checked is the one-level slack.
#[test]
fn flat_never_maps_deeper_than_parenthesised() {
    for (m, n) in [(8usize, 2usize), (16, 3), (64, 23)] {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let pipeline = Pipeline::new();
        let flat = pipeline
            .run_report(&generate(&field, Method::ProposedFlat))
            .unwrap();
        let paren = pipeline
            .run_report(&generate(&field, Method::Imana2016))
            .unwrap();
        assert!(
            flat.depth <= paren.depth + 1,
            "({m},{n}): flat LUT depth {} vs paren {}",
            flat.depth,
            paren.depth
        );
    }
}

/// Table V structure: every (m, n) pair the paper implements is a valid
/// type II irreducible pentanomial, and the two m = 163 variants match
/// the NIST degree.
#[test]
fn table_v_field_list_is_well_formed() {
    let fields = gf2poly::catalogue::table_v_pentanomials();
    assert_eq!(fields.len(), 9);
    assert_eq!(fields.iter().filter(|p| p.m() == 163).count(), 2);
    assert_eq!(fields.iter().filter(|p| p.m() == 113).count(), 2);
    for p in &fields {
        assert!(gf2poly::is_irreducible(&p.to_poly()), "{p}");
    }
}
