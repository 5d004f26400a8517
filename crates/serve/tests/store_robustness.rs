//! Robustness contract of the disk store: every degraded state —
//! truncated document, wrong schema tag, unwritable root — must fall
//! back to recompute (never panic, never serve garbage), and a healthy
//! round trip must serve reports identical to the fresh computation.
//! The reader itself never panics on any bytes, and whatever it accepts
//! it can write back unchanged.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use netlist::Netlist;
use proptest::prelude::*;
use rgf2m_fpga::{ImplReport, Pipeline, ReportSource};
use rgf2m_serve::codec::{FieldKind, REPORT_FIELDS};
use rgf2m_serve::store::{ArtifactStore, ARTIFACT_SCHEMA};

/// A per-test scratch directory (cleared at entry, so reruns are
/// deterministic).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rgf2m-store-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn xor_tree(leaves: usize) -> Netlist {
    let mut net = Netlist::new(format!("xor{leaves}"));
    let ins: Vec<_> = (0..leaves).map(|i| net.input(format!("x{i}"))).collect();
    let root = net.xor_balanced(&ins);
    net.output("y", root);
    net
}

/// The single on-disk document a one-design fill produced.
fn only_entry(store: &ArtifactStore) -> PathBuf {
    let mut entries: Vec<PathBuf> = fs::read_dir(store.root())
        .expect("store root readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one document");
    entries.pop().expect("one entry")
}

#[test]
fn round_trip_serves_reports_identical_to_the_fresh_run() {
    let net = xor_tree(32);
    let store = Arc::new(ArtifactStore::open(scratch("roundtrip")).unwrap());
    let cold = Pipeline::new().with_artifact_hook(store.clone());
    let (fresh, source) = cold.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Computed);
    assert_eq!(store.stats().writes, 1);
    // A fresh pipeline over the same store serves from disk, with no
    // recomputation, and the served report is identical — floats
    // included (the writer uses shortest round-trip Display).
    let warm = Pipeline::new().with_artifact_hook(store.clone());
    let (served, source) = warm.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Store);
    assert_eq!(served, fresh);
    assert_eq!(served.time_ns.to_bits(), fresh.time_ns.to_bits());
    let stats = warm.cache_stats();
    assert_eq!((stats.store_hits, stats.misses), (1, 0));
    // The document itself is the schema-tagged artifact format.
    let text = fs::read_to_string(only_entry(&store)).unwrap();
    assert!(text.contains(&format!("\"schema\": \"{ARTIFACT_SCHEMA}\"")));
}

#[test]
fn truncated_document_degrades_to_recompute_and_heals() {
    let net = xor_tree(24);
    let store = Arc::new(ArtifactStore::open(scratch("truncated")).unwrap());
    let fresh = Pipeline::new()
        .with_artifact_hook(store.clone())
        .run_report(&net)
        .unwrap();
    let path = only_entry(&store);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() / 2]).unwrap();
    // The truncated entry reads as a miss; the flow recomputes...
    let p = Pipeline::new().with_artifact_hook(store.clone());
    let (report, source) = p.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Computed);
    assert_eq!(report, fresh);
    assert!(store.stats().corrupt >= 1, "{:?}", store.stats());
    // ...and the refill heals the document for the next process.
    assert_eq!(fs::read_to_string(&path).unwrap(), text);
    let healed = Pipeline::new().with_artifact_hook(store.clone());
    let (_, source) = healed.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Store);
}

#[test]
fn wrong_schema_tag_degrades_to_recompute() {
    let net = xor_tree(24);
    let store = Arc::new(ArtifactStore::open(scratch("schema")).unwrap());
    Pipeline::new()
        .with_artifact_hook(store.clone())
        .run_report(&net)
        .unwrap();
    let path = only_entry(&store);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replace(ARTIFACT_SCHEMA, "rgf2m-artifact/999")).unwrap();
    let p = Pipeline::new().with_artifact_hook(store.clone());
    let (_, source) = p.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Computed);
    assert!(store.stats().corrupt >= 1);
}

#[test]
fn unwritable_root_never_panics_and_never_blocks_the_flow() {
    // A path under a regular file can never be created or written —
    // robust even when tests run as root (chmod tricks are not).
    let store = Arc::new(ArtifactStore::at("/dev/null/nowhere"));
    let net = xor_tree(24);
    let p = Pipeline::new().with_artifact_hook(store.clone());
    let (report, source) = p.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Computed);
    assert!(report.luts > 0);
    let stats = store.stats();
    assert!(stats.write_errors >= 1, "{stats:?}");
    assert!(stats.misses >= 1, "{stats:?}");
    assert_eq!(stats.hits, 0);
    // Direct saves fail soft too.
    assert!(!store.save(1, 2, &report));
}

#[test]
fn distinct_options_fingerprints_do_not_cross_contaminate() {
    let net = xor_tree(32);
    let store = Arc::new(ArtifactStore::open(scratch("keys")).unwrap());
    let a = Pipeline::new().with_artifact_hook(store.clone());
    a.run_report(&net).unwrap();
    // A different placement seed is a different options fingerprint —
    // the store must miss, recompute, and file a second document.
    let b = Pipeline::new()
        .with_place_seed(777)
        .with_artifact_hook(store.clone());
    let (_, source) = b.run_report_sourced(&net).unwrap();
    assert_eq!(source, ReportSource::Computed);
    assert_eq!(store.stats().writes, 2);
    assert_eq!(fs::read_dir(store.root()).unwrap().count(), 2);
}

/// What a hostile or bit-rotted document might hold where a report
/// column's number belongs.
const HOSTILE_VALUES: [&str; 12] = [
    "-1",
    "0.5",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "4294967296",
    "-0",
    "null",
    "\"7\"",
    "true",
    "[]",
    "{}",
];

/// Key strings that are not the 16 lowercase hex digits a writer emits.
const BAD_KEYS: [&str; 13] = [
    "",
    "g",
    "-1",
    "+ff",
    "+1",
    "1",
    "0x1f",
    " 1f",
    "+00000000000001f",
    "00000000DEADBEEF",
    "10000000000000000",
    "ffffffffffffffffffffffffffffffff",
    "caf\\u00e9",
];

/// The two key members of an artifact document.
const KEY_MEMBERS: [&str; 2] = ["content_hash", "options_fingerprint"];

/// Decodes `text`; an accepted document must carry finite times and
/// re-encode to one that decodes to the same key and the same report,
/// bit for bit.
fn decodes_soundly(text: &str) -> Result<(), TestCaseError> {
    let Ok((ch, fp, report)) = ArtifactStore::decode(text) else {
        return Ok(());
    };
    let ns = |r: &ImplReport| -> Vec<u64> {
        REPORT_FIELDS
            .iter()
            .filter_map(|f| match f.kind {
                FieldKind::Ns(get, _) => Some(get(r).to_bits()),
                _ => None,
            })
            .collect()
    };
    prop_assert!(
        ns(&report)
            .into_iter()
            .map(f64::from_bits)
            .all(f64::is_finite),
        "non-finite time in {report:?} decoded from {text:?}"
    );
    let again = ArtifactStore::encode(ch, fp, &report);
    let (ch2, fp2, back) = ArtifactStore::decode(&again).map_err(TestCaseError::fail)?;
    prop_assert_eq!((ch2, fp2), (ch, fp));
    prop_assert_eq!(&back, &report);
    prop_assert_eq!(ns(&back), ns(&report));
    Ok(())
}

/// `doc` with the value of its member `key` (a number, or a quoted
/// hex string) replaced by the raw JSON `value`.
fn with_member(doc: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\": ");
    let start = doc.find(&tag).expect("member present") + tag.len();
    let end = start
        + doc[start..]
            .find([',', '}', '\n'])
            .expect("member is followed by a delimiter");
    format!("{}{value}{}", &doc[..start], &doc[end..])
}

/// A finite `f64`: a corner case or any finite bit pattern.
fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(f64::MAX),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |v| v.is_finite()),
    ]
}

/// A valid artifact document over a random key and report.
fn arb_document() -> impl Strategy<Value = String> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(0usize..1 << 53, 7),
        proptest::collection::vec(any::<u32>(), 3),
        proptest::collection::vec(finite(), 2),
    )
        .prop_map(|(ch, fp, counts, levels, floats)| {
            let report = ImplReport {
                name: "gf256_proposed".into(),
                luts: counts[0],
                slices: counts[1],
                depth: levels[0],
                time_ns: floats[0],
                dup_gates: counts[2],
                dead_nodes: counts[3],
                worst_slack_ns: floats[1],
                and_depth: levels[1],
                xor_depth: levels[2],
                and_gates: counts[4],
                xor_gates: counts[5],
                dedup_saved: counts[6],
            };
            ArtifactStore::encode(ch, fp, &report)
        })
}

/// A fixed valid document to corrupt one member at a time.
fn sample_document() -> String {
    let report = ImplReport {
        name: "gf256_proposed".into(),
        luts: 33,
        slices: 11,
        depth: 3,
        time_ns: 9.5,
        and_depth: 1,
        xor_depth: 5,
        and_gates: 64,
        xor_gates: 84,
        ..ImplReport::default()
    };
    ArtifactStore::encode(0xdead_beef, 0x1234, &report)
}

#[test]
fn keys_other_than_sixteen_lowercase_hex_digits_are_refused() {
    let doc = sample_document();
    assert_eq!(
        ArtifactStore::decode(&doc).map(|(ch, fp, _)| (ch, fp)),
        Ok((0xdead_beef, 0x1234))
    );
    for key in KEY_MEMBERS {
        for bad in BAD_KEYS {
            let text = with_member(&doc, key, &format!("\"{bad}\""));
            assert!(
                ArtifactStore::decode(&text).is_err(),
                "{key} = {bad:?} decoded"
            );
        }
    }
}

#[test]
fn counts_a_json_number_cannot_hold_exactly_are_refused() {
    let doc = sample_document();
    let luts = |value: &str| ArtifactStore::decode(&with_member(&doc, "luts", value));
    assert_eq!(luts("9007199254740991").unwrap().2.luts, (1 << 53) - 1);
    // 2^53 + 1 reads as the f64 2^53, and 2^64 once saturated to
    // `usize::MAX`: neither is the count the document spells.
    for value in [
        "9007199254740992",
        "9007199254740993",
        "18446744073709551616",
    ] {
        let err = luts(value).unwrap_err();
        assert!(err.contains("is not a count"), "{value}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        decodes_soundly(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn decode_never_panics_on_any_prefix(doc in arb_document()) {
        prop_assert!(ArtifactStore::decode(&doc).is_ok(), "{doc}");
        decodes_soundly(&doc)?;
        for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
            decodes_soundly(&doc[..end])?;
        }
    }

    #[test]
    fn decode_never_panics_on_a_flipped_byte(
        doc in arb_document(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = doc.into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        decodes_soundly(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn decode_never_panics_on_a_hostile_column(doc in arb_document()) {
        for key in REPORT_FIELDS.iter().map(|f| f.name).chain(["name"]) {
            for value in HOSTILE_VALUES {
                decodes_soundly(&with_member(&doc, key, value))?;
            }
        }
    }

    #[test]
    fn decode_never_panics_on_a_bad_key(doc in arb_document()) {
        for key in KEY_MEMBERS {
            for bad in BAD_KEYS {
                decodes_soundly(&with_member(&doc, key, &format!("\"{bad}\"")))?;
            }
            for value in HOSTILE_VALUES {
                decodes_soundly(&with_member(&doc, key, value))?;
            }
        }
    }
}
