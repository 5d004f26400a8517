//! Cross-method equivalence and complexity-ordering tests: all six
//! Table V methods agree pairwise and show the documented structure.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use netlist::sim::{check_equivalent_exhaustive, check_equivalent_random};
use netlist::Netlist;
use rgf2m_baselines::school;
use rgf2m_core::{generate, Method};

fn all_table_v_methods(field: &Field) -> Vec<(&'static str, Netlist)> {
    vec![
        ("[2] mastrovito", generate(field, Method::MastrovitoPaar)),
        ("[8] rashidi", generate(field, Method::Rashidi)),
        ("[3] reyhani", generate(field, Method::ReyhaniHasan)),
        ("[6] imana2012", generate(field, Method::Imana2012)),
        ("[7] imana2016", generate(field, Method::Imana2016)),
        ("this-work proposed", generate(field, Method::ProposedFlat)),
    ]
}

#[test]
fn all_six_methods_pairwise_equivalent_gf256() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    let nets = all_table_v_methods(&field);
    let (ref_name, reference) = &nets[0];
    for (name, net) in &nets[1..] {
        let r = check_equivalent_exhaustive(reference, net);
        assert!(r.is_equivalent(), "{ref_name} vs {name}: {r:?}");
    }
}

#[test]
fn all_six_methods_equivalent_on_every_table_v_field_random() {
    for &(m, n) in gf2poly::catalogue::TABLE_V_FIELDS.iter() {
        if m > 64 {
            continue; // larger fields covered by the slower suite below
        }
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let nets = all_table_v_methods(&field);
        let (_, reference) = &nets[0];
        for (name, net) in &nets[1..] {
            let r = check_equivalent_random(reference, net, 4, 99);
            assert!(r.is_equivalent(), "({m},{n}) {name}: {r:?}");
        }
    }
}

#[test]
fn all_six_methods_equivalent_on_nist163_random() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(163, 66).unwrap());
    let nets = all_table_v_methods(&field);
    let (_, reference) = &nets[0];
    for (name, net) in &nets[1..] {
        let r = check_equivalent_random(reference, net, 2, 163);
        assert!(r.is_equivalent(), "(163,66) {name}: {r:?}");
    }
    // And against the software oracle, to anchor the whole family.
    let oracle = |w: &[u64]| field.mul_words(w);
    let r = netlist::sim::check_against_oracle_random(reference, oracle, 2, 164);
    assert!(r.is_equivalent(), "reference vs oracle: {r:?}");
}

#[test]
fn school_reference_agrees_with_rashidi() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(13, 5).unwrap());
    let school = school(&field);
    let rashidi = generate(&field, Method::Rashidi);
    assert!(check_equivalent_random(&school, &rashidi, 8, 5).is_equivalent());
}

#[test]
fn depth_ordering_matches_paper_theory_gf256() {
    // Theoretical delays cited in the paper for (8,2):
    // [8] = T_A+5T_X (min), [7]/proposed-family = T_A+5T_X,
    // [6] = T_A+6T_X, [3] = T_A+7T_X (our balanced variant ≤ that).
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    let depth_of = |net: &Netlist| net.depth().xors;
    let rashidi = depth_of(&generate(&field, Method::Rashidi));
    let imana2016 = depth_of(&generate(&field, Method::Imana2016));
    let imana2012 = depth_of(&generate(&field, Method::Imana2012));
    assert_eq!(rashidi, 5);
    assert_eq!(imana2016, 5);
    assert_eq!(imana2012, 6);
}
