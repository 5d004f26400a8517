//! The disk-backed artifact store: one schema-versioned JSON file per
//! pipeline cache key, content-addressed by the same FNV-1a pair
//! (`Netlist::content_hash`, options fingerprint) the in-memory
//! [`Pipeline`](rgf2m_fpga::Pipeline) cache uses.
//!
//! Durability contract:
//!
//! * **Atomic fill** — documents are written to a temp file in the
//!   store root and renamed into place, so a reader never observes a
//!   half-written entry and concurrent writers of the same key settle
//!   on one complete document.
//! * **Corrupt means miss** — a truncated, unparsable, wrong-schema or
//!   wrong-key document degrades to a recompute (and bumps the
//!   `corrupt` counter); the store never panics on bad bytes and never
//!   serves garbage.
//! * **Unwritable means compute-only** — a store rooted somewhere it
//!   cannot write keeps serving the flow: saves fail soft (counted in
//!   `write_errors`), loads miss.
//!
//! The document layout is the byte-deterministic writer style of the
//! Table V exports: fixed field order, u64 hashes as 16-hex-digit
//! strings (JSON numbers are f64 and cannot carry a u64). The report
//! object is written and read by [`crate::codec`], the daemon's wire
//! format's codec too: floats in Rust's shortest round-trip `Display`
//! so a loaded report is bit-identical to the one saved, members read
//! by key so their order does not matter.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use rgf2m_fpga::{ArtifactHook, ImplReport};

use crate::codec::{read_report, write_report_members};
use crate::json::{parse_json, JsonValue};

/// Schema tag stamped into every artifact document. Bump the suffix on
/// any layout change: old entries then read as misses and refill.
pub const ARTIFACT_SCHEMA: &str = "rgf2m-artifact/2";

/// Counters describing one store's traffic since it was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Loads served from a valid on-disk document.
    pub hits: usize,
    /// Loads that found no usable document (includes `corrupt`).
    pub misses: usize,
    /// Loads that found a document but rejected it (truncated,
    /// unparsable, wrong schema, wrong key, wrong design).
    pub corrupt: usize,
    /// Successful document fills.
    pub writes: usize,
    /// Fills that failed (unwritable root, rename error, ...).
    pub write_errors: usize,
}

/// A content-addressed directory of `rgf2m-artifact/2` documents.
pub struct ArtifactStore {
    root: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
    corrupt: AtomicUsize,
    writes: AtomicUsize,
    write_errors: AtomicUsize,
}

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactStore {
    /// Opens a store rooted at `root`, creating the directory if
    /// needed.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let store = ArtifactStore::at(root);
        fs::create_dir_all(&store.root)?;
        Ok(store)
    }

    /// Wraps `root` without touching the filesystem. If the directory
    /// does not exist (or cannot be written), loads miss and saves fail
    /// soft — the infallible constructor for "use the store if it
    /// works" call sites and for the unwritable-root degradation tests.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            root: root.into(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            corrupt: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            write_errors: AtomicUsize::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A traffic snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// The document path of one cache key: the file name carries both
    /// halves of the key as fixed-width hex, so a directory listing
    /// *is* the key set.
    pub fn path_for(&self, content_hash: u64, fingerprint: u64) -> PathBuf {
        self.root
            .join(format!("rgf2m-{content_hash:016x}-{fingerprint:016x}.json"))
    }

    /// Serializes `report` as a complete artifact document.
    pub fn encode(content_hash: u64, fingerprint: u64, report: &ImplReport) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{ARTIFACT_SCHEMA}\",\n"));
        s.push_str(&format!("  \"content_hash\": \"{content_hash:016x}\",\n"));
        s.push_str(&format!(
            "  \"options_fingerprint\": \"{fingerprint:016x}\",\n"
        ));
        s.push_str("  \"report\": {");
        write_report_members(report, &mut s);
        s.push_str("}\n}\n");
        s
    }

    /// Parses an artifact document back into its key and report.
    /// Anything short of a complete, schema-tagged document is an
    /// error.
    pub fn decode(text: &str) -> Result<(u64, u64, ImplReport), String> {
        let doc = parse_json(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(format!("schema {schema:?}, expected {ARTIFACT_SCHEMA:?}"));
        }
        // Exactly the writer's form: 16 lowercase hex digits.
        let hex_u64 = |key: &str| -> Result<u64, String> {
            let s = doc
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("missing hex \"{key}\""))?;
            let lower_hex = |c: u8| c.is_ascii_digit() || (b'a'..=b'f').contains(&c);
            if s.len() != 16 || !s.bytes().all(lower_hex) {
                return Err(format!("\"{key}\" = {s:?} is not 16 lowercase hex digits"));
            }
            u64::from_str_radix(s, 16).map_err(|e| format!("bad hex \"{key}\": {e}"))
        };
        let content_hash = hex_u64("content_hash")?;
        let fingerprint = hex_u64("options_fingerprint")?;
        let report = read_report(doc.get("report").ok_or("missing \"report\"")?, "report")?;
        Ok((content_hash, fingerprint, report))
    }

    /// Fills the key's document atomically (temp file + rename).
    /// Returns whether the fill landed; failures only bump
    /// `write_errors` — an unwritable store must not take the flow
    /// down.
    pub fn save(&self, content_hash: u64, fingerprint: u64, report: &ImplReport) -> bool {
        let doc = ArtifactStore::encode(content_hash, fingerprint, report);
        let tmp = self.root.join(format!(
            ".tmp-{}-{content_hash:016x}-{fingerprint:016x}",
            std::process::id()
        ));
        let result = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(doc.as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, self.path_for(content_hash, fingerprint))
        })();
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Loads the key's report, if a valid document for exactly this
    /// key and design is on disk. Every failure mode — absent file,
    /// bad bytes, wrong schema, key or design mismatch — is a miss.
    pub fn load(&self, design: &str, content_hash: u64, fingerprint: u64) -> Option<ImplReport> {
        let path = self.path_for(content_hash, fingerprint);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match ArtifactStore::decode(&text) {
            Ok((ch, fp, report))
                if ch == content_hash && fp == fingerprint && report.name == design =>
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            _ => {
                // Present but unusable: corrupt, truncated, wrong
                // schema, or addressed under the wrong name.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

impl ArtifactHook for ArtifactStore {
    fn load(&self, design: &str, content_hash: u64, fingerprint: u64) -> Option<ImplReport> {
        ArtifactStore::load(self, design, content_hash, fingerprint)
    }

    fn store(&self, content_hash: u64, fingerprint: u64, report: &ImplReport) {
        self.save(content_hash, fingerprint, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_synth_ok, parse_response, FieldSpec, SynthRequest};
    use proptest::prelude::*;
    use proptest::{collection, sample};
    use rgf2m_core::Method;
    use rgf2m_fpga::Target;

    fn report() -> ImplReport {
        ImplReport {
            name: "gf256_proposed".into(),
            luts: 33,
            slices: 11,
            depth: 3,
            time_ns: 9.654_321_098_7,
            dup_gates: 0,
            dead_nodes: 0,
            worst_slack_ns: 0.0,
            and_depth: 1,
            xor_depth: 5,
            and_gates: 64,
            xor_gates: 84,
            dedup_saved: 0,
        }
    }

    /// Encodes `r` as a store document and as a
    /// synth response line; both must give back the identical bits,
    /// and re-encoding the decoded store document must reproduce it.
    fn assert_roundtrips(r: &ImplReport) -> Result<(), TestCaseError> {
        let doc = ArtifactStore::encode(0xdead_beef, u64::MAX, r);
        let (ch, fp, back) = ArtifactStore::decode(&doc).map_err(TestCaseError::fail)?;
        prop_assert_eq!((ch, fp), (0xdead_beef, u64::MAX));
        prop_assert_eq!(bits(&back), bits(r));
        prop_assert_eq!(ArtifactStore::encode(ch, fp, &back), doc);

        let req = SynthRequest {
            id: 7,
            field: FieldSpec::Pair { m: 8, n: 2 },
            method: Method::ProposedFlat,
            target: Target::Virtex5,
            seed: 42,
        };
        let resp =
            parse_response(&encode_synth_ok(&req, r, "computed")).map_err(TestCaseError::fail)?;
        let back = resp.report().map_err(TestCaseError::fail)?;
        prop_assert_eq!(bits(&back), bits(r));
        Ok(())
    }

    /// The report with its floats as raw bits, so `-0.0 != 0.0` and
    /// every mantissa bit counts.
    fn bits(r: &ImplReport) -> (ImplReport, u64, u64) {
        (r.clone(), r.time_ns.to_bits(), r.worst_slack_ns.to_bits())
    }

    #[test]
    fn encode_decode_roundtrips_bit_exactly() {
        let wire = ImplReport {
            time_ns: 9.876_543_210_123,
            ..report()
        };
        let edges = ImplReport {
            name: "gf(2^8) \"proposed\"\n\u{1F600}".into(),
            luts: (1 << 53) - 1,
            time_ns: 5e-324,
            worst_slack_ns: -1e300,
            depth: u32::MAX,
            ..report()
        };
        for r in [report(), wire, edges] {
            assert_roundtrips(&r).unwrap();
        }
    }

    /// A finite `f64`: the awkward corners or any finite bit pattern.
    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(5e-324),
            Just(f64::MIN_POSITIVE / 3.0),
            Just(1e300),
            Just(-1.25e-7),
            any::<u64>()
                .prop_map(f64::from_bits)
                .prop_filter("finite", |v| v.is_finite()),
        ]
    }

    proptest! {
        #[test]
        fn random_reports_roundtrip_bit_exactly(
            // Counts travel as JSON numbers, exact below 2^53.
            counts in collection::vec(0usize..1 << 53, 7),
            levels in collection::vec(any::<u32>(), 3),
            floats in collection::vec(float(), 2),
            name in sample::select(vec!["gf256_proposed", "a \"quoted\"\tname", "caf\u{e9}"]),
        ) {
            let r = ImplReport {
                name: name.to_string(),
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
            assert_roundtrips(&r)?;
        }
    }

    #[test]
    fn decode_rejects_wrong_schema_and_garbage() {
        let doc = ArtifactStore::encode(1, 2, &report());
        let wrong = doc.replace(ARTIFACT_SCHEMA, "rgf2m-artifact/0");
        assert!(ArtifactStore::decode(&wrong)
            .unwrap_err()
            .contains("schema"));
        assert!(ArtifactStore::decode(&doc[..doc.len() / 2]).is_err());
        assert!(ArtifactStore::decode("").is_err());
        assert!(ArtifactStore::decode("{}").is_err());
        let bad_count = doc.replace("\"luts\": 33", "\"luts\": -3");
        assert!(ArtifactStore::decode(&bad_count)
            .unwrap_err()
            .contains("not a count"));
        // A time past `f64::MAX` is refused, not read as infinity.
        let overflow = doc.replace("\"time_ns\": 9.6543210987", "\"time_ns\": 1e999");
        assert_ne!(overflow, doc);
        assert!(ArtifactStore::decode(&overflow)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn decode_accepts_a_document_in_the_original_key_order() {
        // The `rgf2m-artifact/2` layout as first written: `worst_slack_ns`
        // between the hygiene counters and the depth pair, no `area_time`.
        // The reader goes by key, so stores filled then still load.
        let doc = concat!(
            "{\n",
            "  \"schema\": \"rgf2m-artifact/2\",\n",
            "  \"content_hash\": \"00000000deadbeef\",\n",
            "  \"options_fingerprint\": \"0000000000001234\",\n",
            "  \"report\": {\"name\": \"gf256_proposed\", \"luts\": 33, \"slices\": 11, ",
            "\"depth\": 3, \"time_ns\": 9.6543210987, \"dup_gates\": 0, \"dead_nodes\": 0, ",
            "\"worst_slack_ns\": 0, \"and_depth\": 1, \"xor_depth\": 5, ",
            "\"and_gates\": 64, \"xor_gates\": 84, \"dedup_saved\": 0}\n",
            "}\n",
        );
        let (ch, fp, back) = ArtifactStore::decode(doc).unwrap();
        assert_eq!((ch, fp), (0xdead_beef, 0x1234));
        assert_eq!(back, report());
        assert_eq!(back.time_ns.to_bits(), report().time_ns.to_bits());
    }

    #[test]
    fn key_addressing_is_fixed_width_hex() {
        let store = ArtifactStore::at("/tmp/any");
        let path = store.path_for(0xab, 0xcd);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "rgf2m-00000000000000ab-00000000000000cd.json"
        );
    }
}
