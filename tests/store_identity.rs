//! Every generator's store identity is pinned: the netlist name and
//! `Netlist::content_hash` of each Table V method and of both
//! extra-paper references, at (8, 2) and (163, 68). The daemon's design
//! memo and every artifact-store file name
//! (`rgf2m-{hash}-{fingerprint}.json`) are keyed on these values, so a
//! refactor of a generator must leave them untouched.

use rgf2m::baselines::{karatsuba, school};
use rgf2m::prelude::*;

fn netlist_of(field: &Field, generator: &str) -> Netlist {
    match generator {
        "school" => school(field),
        "karatsuba" => karatsuba(field),
        name => generate(field, Method::from_name(name).unwrap()),
    }
}

/// `(m, n, generator, netlist name, content hash)`, taken from the
/// generators as they stood when this table was written.
const PINS: [(usize, usize, &str, &str, u64); 16] = [
    (8, 2, "mastrovito", "mul_mastrovito_m8", 0xe694700eb3c3010a),
    (8, 2, "rashidi", "mul_rashidi_m8", 0xf8cb36fbb6f9f81d),
    (8, 2, "reyhani_hasan", "mul_reyhani_m8", 0xcb0c008df35552f8),
    (8, 2, "imana2012", "mul_imana2012_m8", 0x18fd0d35744aaa4b),
    (8, 2, "imana2016", "mul_imana2016_m8", 0xf5095661568b450c),
    (8, 2, "proposed", "mul_proposed_m8", 0x10176d8c495d2226),
    (8, 2, "school", "mul_school_m8", 0xf1dd5e5ad715cf34),
    (8, 2, "karatsuba", "mul_karatsuba_m8", 0xdd519bc3dc8f692e),
    (
        163,
        68,
        "mastrovito",
        "mul_mastrovito_m163",
        0x1e475de839253947,
    ),
    (163, 68, "rashidi", "mul_rashidi_m163", 0x68d58cb34ad8f5af),
    (
        163,
        68,
        "reyhani_hasan",
        "mul_reyhani_m163",
        0xf63bbe108d76938b,
    ),
    (
        163,
        68,
        "imana2012",
        "mul_imana2012_m163",
        0x44a6482c3e17c064,
    ),
    (
        163,
        68,
        "imana2016",
        "mul_imana2016_m163",
        0xc623e6f4c09b45a1,
    ),
    (163, 68, "proposed", "mul_proposed_m163", 0x093b3053028ef5b1),
    (163, 68, "school", "mul_school_m163", 0xf986572f63ab3f98),
    (
        163,
        68,
        "karatsuba",
        "mul_karatsuba_m163",
        0x91d4bff2e3d7ca32,
    ),
];

#[test]
fn every_generator_keeps_its_netlist_name_and_content_hash() {
    let mut covered: Vec<&str> = Vec::new();
    for (m, n, generator, name, hash) in PINS {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let net = netlist_of(&field, generator);
        assert_eq!(net.name(), name, "({m}, {n}) {generator}");
        assert_eq!(
            net.content_hash(),
            hash,
            "({m}, {n}) {generator}: content hash 0x{:016x}",
            net.content_hash()
        );
        covered.push(generator);
    }
    // Every Table V method and both extra-paper references, at both fields.
    for method in Method::ALL {
        assert_eq!(covered.iter().filter(|&&g| g == method.name()).count(), 2);
    }
    assert_eq!(covered.len(), 2 * (Method::ALL.len() + 2));
}
