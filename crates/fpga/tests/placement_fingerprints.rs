//! Pins the annealer's exact output on real multiplier designs.
//!
//! Every design is built through the production stages
//! (`Pipeline::{resynth, map, pack}` for its target) and placed with
//! `place_with_stats` under the harness options (seed 2018, an exact
//! 1.2 M proposal budget). Each case pins the proposal and acceptance
//! counters, the final HPWL's bits and an FNV-1a hash over every slice
//! position, so any change to the annealer that is meant to be a pure
//! speedup must leave all four untouched.
//!
//! The (163, 68) cases take seconds each and are `#[ignore]`d; run them
//! with `cargo test --release -- --include-ignored`.
//!
//! On a mismatch the assertion prints the full table of observed
//! fingerprints in source form, ready to paste if a change is meant to
//! move placements.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::place::{place_with_stats, PlaceOptions, MAX_TOTAL_MOVES};
use rgf2m_fpga::{Pipeline, Target};

/// One pinned placement: method and target names, proposals, accepted
/// proposals, `final_hpwl.to_bits()` and the slice position hash.
type Fingerprint = (&'static str, &'static str, usize, usize, u64, u64);

fn harness_options() -> PlaceOptions {
    assert_eq!(MAX_TOTAL_MOVES, 1_200_000);
    PlaceOptions { seed: 2018 }
}

/// FNV-1a over the bits of every slice's (x, y), in slice order.
fn position_hash(pos: impl Iterator<Item = (f32, f32)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (x, y) in pos {
        for byte in x
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(y.to_bits().to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(field: &Field, method: Method, target: Target) -> Fingerprint {
    let pipeline = Pipeline::new().with_target(target);
    let net = generate(field, method);
    let synth = pipeline.resynth(&net).expect("resynth");
    let mapped = pipeline.map(&synth).expect("map");
    let packing = pipeline.pack(&mapped).expect("pack");
    let (placement, stats) = place_with_stats(&mapped, &packing, &harness_options());
    let hash = position_hash((0..packing.num_slices() as u32).map(|s| placement.slice_pos(s)));
    (
        method.name(),
        target.name(),
        stats.proposals,
        stats.accepted,
        stats.final_hpwl.to_bits(),
        hash,
    )
}

fn check(field: &Field, cases: &[(Method, Target)], expected: &[Fingerprint]) {
    let got: Vec<Fingerprint> = cases
        .iter()
        .map(|&(method, target)| fingerprint(field, method, target))
        .collect();
    let table: String = got
        .iter()
        .map(|(m, t, p, a, hp, h)| {
            format!("    (\"{m}\", \"{t}\", {p}, {a}, {hp:#018x}, {h:#018x}),\n")
        })
        .collect();
    assert!(got == expected, "placements moved; observed:\n{table}");
}

#[rustfmt::skip]
const SMALL: [Fingerprint; 24] = [
    ("mastrovito", "artix7", 3744, 755, 0x4062aea0e9000000, 0x90ed0d1ba47896e5),
    ("mastrovito", "spartan3", 10624, 1847, 0x40705fffff800000, 0x176655b9a717ee78),
    ("mastrovito", "virtex5", 7264, 1670, 0x40685f15f1800000, 0x10fd87ef059dbbe8),
    ("mastrovito", "stratix_alm", 2496, 403, 0x4053511112800000, 0x59be520d67c78fc5),
    ("rashidi", "artix7", 5704, 1107, 0x4067083a84c00000, 0xfca799a67178c725),
    ("rashidi", "spartan3", 17312, 3898, 0x40761ccccd000000, 0x68adddae2933ea05),
    ("rashidi", "virtex5", 10968, 2294, 0x406f3fffff800000, 0xe65d4a923a67be58),
    ("rashidi", "stratix_alm", 2624, 478, 0x4053111112000000, 0x4f7e613b6442ecc5),
    ("reyhani_hasan", "artix7", 3016, 539, 0x4060a66666000000, 0xef766fd0dff47cf5),
    ("reyhani_hasan", "spartan3", 9568, 1683, 0x406e0db6dc800000, 0xec1e397e891f65d5),
    ("reyhani_hasan", "virtex5", 5968, 891, 0x40686ccccdc00000, 0x007fefe2c790cb68),
    ("reyhani_hasan", "stratix_alm", 2496, 636, 0x4053a35a36000000, 0x8ce10fe375c299c5),
    ("imana2012", "artix7", 3088, 549, 0x4060e92492400000, 0x8f36ec18e4379c35),
    ("imana2012", "spartan3", 9568, 1682, 0x406de00000c00000, 0x1cca96abe178f445),
    ("imana2012", "virtex5", 5968, 962, 0x406932972b000000, 0x8c9ddd77c7d1a928),
    ("imana2012", "stratix_alm", 2496, 636, 0x4053a35a36000000, 0x8ce10fe375c299c5),
    ("imana2016", "artix7", 4112, 784, 0x4064e92492c00000, 0x54343415c0dfdad8),
    ("imana2016", "spartan3", 10864, 2006, 0x407063cf3d400000, 0xf58b98c3293f6138),
    ("imana2016", "virtex5", 7456, 1559, 0x406c2aaaaa800000, 0x5cc6c0b82a6e9d08),
    ("imana2016", "stratix_alm", 2944, 506, 0x4054911113000000, 0x2b73a913c135cf65),
    ("proposed", "artix7", 3848, 648, 0x406496db6d000000, 0x3f4383ff244c1958),
    ("proposed", "spartan3", 11720, 2532, 0x40714a83a8400000, 0x4f049502ea36e418),
    ("proposed", "virtex5", 7984, 1637, 0x406cde79e6c00000, 0x0848522f7f217715),
    ("proposed", "stratix_alm", 2688, 425, 0x4056111112800000, 0xb8fbd5bf2264cc65),
];

#[test]
fn gf256_placements_are_pinned() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap());
    let cases: Vec<(Method, Target)> = Method::ALL
        .into_iter()
        .flat_map(|m| Target::ALL.into_iter().map(move |t| (m, t)))
        .collect();
    check(&field, &cases, &SMALL);
}

#[rustfmt::skip]
const LARGE: [Fingerprint; 5] = [
    ("proposed", "artix7", 1200000, 307436, 0x40ffec482c130000, 0x379e3e7fd1b7e38f),
    ("proposed", "spartan3", 1200000, 840665, 0x412771f8f0788000, 0xc34f18f110f79430),
    ("proposed", "virtex5", 1200000, 653866, 0x41101c797618c000, 0x2d5de56428d2a1f6),
    ("proposed", "stratix_alm", 472144, 87423, 0x40ec7180c7030000, 0xfe68243ac79fef5b),
    ("rashidi", "artix7", 1200000, 699782, 0x411d5b11d9bb4000, 0x1b4af01e793da92a),
];

#[test]
#[ignore = "m = 163 placements take seconds each; run with --release --include-ignored"]
fn gf2_163_placements_are_pinned() {
    let field = Field::from_pentanomial(&TypeIiPentanomial::new(163, 68).unwrap());
    let cases: Vec<(Method, Target)> = Target::ALL
        .into_iter()
        .map(|t| (Method::ProposedFlat, t))
        .chain([(Method::Rashidi, Target::Artix7)])
        .collect();
    check(&field, &cases, &LARGE);
}
