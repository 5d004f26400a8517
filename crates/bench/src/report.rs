//! Structured report output for batch runs: hand-rolled JSON and CSV
//! writers (this workspace builds with zero registry access, so no
//! serde), plus the schema validator for the Table V export.
//!
//! The writers are **byte-deterministic**: for the same batch rows
//! they produce the same bytes, run over run and machine over machine
//! (fixed field order, fixed float precision, no timestamps). Both, and
//! the validator, walk the report columns of
//! [`rgf2m_serve::codec::REPORT_FIELDS`]. The `base_seed` and per-row
//! `seed` columns carry [`DEFAULT_SEED`], the one seed every batch job
//! is placed with.

use rgf2m_core::Method;
use rgf2m_fpga::{place::DEFAULT_SEED, Target};
use rgf2m_serve::codec::{write_json_fields, Floats, REPORT_FIELDS};
use rgf2m_serve::json::{json_string, parse_json, JsonValue};

use crate::batch::BatchRow;

/// Schema tag stamped into every Table V JSON export. `/5` added the
/// per-row `and_gates` / `xor_gates` area pair (the source netlist's
/// Table V `#AND`/`#XOR` claim) and the `dedup_saved` strash dividend;
/// `/4` added the per-row `and_depth` / `xor_depth` gate-depth pair
/// (the source netlist's Table V delay claim) and the STA's
/// `worst_slack_ns`; `/3` added the per-row `dup_gates` / `dead_nodes`
/// hygiene counters (from the post-mapping lint pass); `/2` added the
/// per-row `target` field. Older documents, which lack those fields,
/// no longer validate.
pub const TABLE5_SCHEMA: &str = "rgf2m-table5/5";

/// Serializes batch rows as the `rgf2m-table5/5` JSON document.
///
/// Successful rows carry the measured quadruple plus the paper's
/// `area_time` metric, the lint pass's hygiene counters, the source
/// netlist's gate-depth and gate-count pairs (with the strash
/// `dedup_saved` dividend) and the STA's worst slack; failed rows
/// carry `"ok": false` and the error message. Every row names its
/// target fabric. Byte-identical for identical inputs.
pub fn rows_to_json(rows: &[BatchRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{TABLE5_SCHEMA}\",\n"));
    s.push_str(&format!("  \"base_seed\": {DEFAULT_SEED},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!(
            "\"m\": {}, \"n\": {}, \"method\": {}, \"citation\": {}, \"target\": {}, \"seed\": {DEFAULT_SEED}",
            row.job.m,
            row.job.n,
            json_string(row.job.method.name()),
            json_string(row.job.method.citation()),
            json_string(row.job.target.name()),
        ));
        match &row.result {
            Ok(r) => {
                s.push_str(", \"ok\": true");
                write_json_fields(r, Floats::FourPlaces, &mut s);
            }
            Err(e) => s.push_str(&format!(
                ", \"ok\": false, \"error\": {}",
                json_string(&e.to_string())
            )),
        }
        s.push('}');
        if i + 1 < rows.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Serializes batch rows as CSV (header + one line per job, errors in
/// the trailing column). Byte-identical for identical inputs.
pub fn rows_to_csv(rows: &[BatchRow]) -> String {
    let mut s = String::from("m,n,method,citation,target,seed,ok");
    for f in &REPORT_FIELDS {
        s.push(',');
        s.push_str(f.name);
    }
    s.push_str(",error\n");
    for row in rows {
        s.push_str(&format!(
            "{},{},{},{},{},{DEFAULT_SEED},{}",
            row.job.m,
            row.job.n,
            row.job.method.name(),
            csv_field(row.job.method.citation()),
            row.job.target.name(),
            row.result.is_ok()
        ));
        for f in &REPORT_FIELDS {
            s.push(',');
            if let Ok(r) = &row.result {
                f.write_value(r, Floats::FourPlaces, &mut s);
            }
        }
        s.push(',');
        if let Err(e) = &row.result {
            s.push_str(&csv_field(&e.to_string()));
        }
        s.push('\n');
    }
    s
}

/// Quotes a CSV field when it needs quoting (commas, quotes, newlines).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

// ---------------------------------------------------------------------
// Schema validation for the table5 artifact.
// ---------------------------------------------------------------------

/// Validates a `rgf2m-table5/5` JSON document: schema tag, non-empty
/// row set, whole six-method blocks in the paper's row order, every
/// row naming a registered target fabric, and every row `ok` with each
/// column of [`REPORT_FIELDS`] present and within its bound (positive
/// areas, times and depths, non-negative counters, a worst slack that
/// is zero up to float noise). Within each six-method block the target
/// must be uniform (one block = one field on one fabric). Returns a
/// short human-readable summary on success.
pub fn validate_table5_json(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != TABLE5_SCHEMA {
        return Err(format!("schema {schema:?}, expected {TABLE5_SCHEMA:?}"));
    }
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"rows\" array")?;
    if rows.is_empty() {
        return Err("empty \"rows\"".into());
    }
    if rows.len() % Method::ALL.len() != 0 {
        return Err(format!(
            "{} rows is not a whole number of {}-method blocks",
            rows.len(),
            Method::ALL.len()
        ));
    }
    let mut targets_seen: Vec<String> = Vec::new();
    let mut block_target: Option<String> = None;
    for (i, row) in rows.iter().enumerate() {
        let method = Method::ALL[i % Method::ALL.len()];
        let ctx = |field: &str| format!("row {i}: {field}");
        let name = row
            .get("method")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing \"method\""))?;
        if name != method.name() {
            return Err(format!(
                "row {i}: method {name:?} breaks the paper row order (expected {:?})",
                method.name()
            ));
        }
        let citation = row
            .get("citation")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing \"citation\""))?;
        if citation != method.citation() {
            return Err(format!(
                "row {i}: citation {citation:?}, expected {:?}",
                method.citation()
            ));
        }
        let target = row
            .get("target")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing \"target\""))?;
        if Target::from_name(target).is_none() {
            return Err(format!("row {i}: unknown target {target:?}"));
        }
        if i % Method::ALL.len() == 0 {
            block_target = Some(target.to_string());
        } else if block_target.as_deref() != Some(target) {
            return Err(format!(
                "row {i}: target {target:?} differs from its block's {:?}",
                block_target.as_deref().unwrap_or("<none>")
            ));
        }
        if !targets_seen.iter().any(|t| t == target) {
            targets_seen.push(target.to_string());
        }
        if row.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            let err = row
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("<no error recorded>");
            return Err(format!("row {i} is not ok: {err}"));
        }
        for field in &REPORT_FIELDS {
            let name = field.name;
            let v = row
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| ctx(&format!("missing numeric \"{name}\"")))?;
            field
                .bound
                .check(v)
                .map_err(|why| format!("row {i}: {name} = {v} {why}"))?;
        }
    }
    Ok(format!(
        "{} rows in {} six-method block(s) over {} target(s), all ok, paper row order respected",
        rows.len(),
        rows.len() / Method::ALL.len(),
        targets_seen.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_json_reader_reads_this_modules_writer() {
        // The reader lives in `rgf2m_serve::json`; it must keep reading
        // what `rows_to_json`'s writer idiom emits.
        let doc = format!("{{\"s\": {}}}", json_string("a \"b\"\n"));
        let parsed = rgf2m_serve::json::parse_json(&doc).unwrap();
        assert_eq!(
            parsed.get("s").and_then(JsonValue::as_str),
            Some("a \"b\"\n")
        );
    }

    /// One ok row with non-round floats (including a slack that prints
    /// as `-0.0000`) and one failed row whose message needs quoting.
    fn golden_rows() -> Vec<BatchRow> {
        vec![
            BatchRow {
                job: crate::batch::Job::on(8, 2, Method::ProposedFlat, Target::Virtex5),
                result: Ok(rgf2m_fpga::ImplReport {
                    name: "gf256_proposed".into(),
                    luts: 33,
                    slices: 11,
                    depth: 3,
                    time_ns: 9.876_543_21,
                    dup_gates: 2,
                    dead_nodes: 1,
                    worst_slack_ns: -0.000_012_5,
                    and_depth: 1,
                    xor_depth: 5,
                    and_gates: 64,
                    xor_gates: 84,
                    dedup_saved: 7,
                }),
            },
            BatchRow {
                job: crate::batch::Job::new(16, 2, Method::MastrovitoPaar),
                result: Err(rgf2m_fpga::FlowError::InvalidOptions(
                    "bad \"field\", see\nline two".into(),
                )),
            },
        ]
    }

    #[test]
    fn rows_to_json_golden_bytes() {
        let expected = concat!(
            "{\n",
            "  \"schema\": \"rgf2m-table5/5\",\n",
            "  \"base_seed\": 2018,\n",
            "  \"rows\": [\n",
            "    {\"m\": 8, \"n\": 2, \"method\": \"proposed\", \"citation\": \"This work\", ",
            "\"target\": \"virtex5\", \"seed\": 2018, \"ok\": true, ",
            "\"luts\": 33, \"slices\": 11, \"depth\": 3, \"time_ns\": 9.8765, ",
            "\"area_time\": 325.9259, \"dup_gates\": 2, \"dead_nodes\": 1, ",
            "\"and_depth\": 1, \"xor_depth\": 5, \"and_gates\": 64, \"xor_gates\": 84, ",
            "\"dedup_saved\": 7, \"worst_slack_ns\": -0.0000},\n",
            "    {\"m\": 16, \"n\": 2, \"method\": \"mastrovito\", \"citation\": \"[2]\", ",
            "\"target\": \"artix7\", \"seed\": 2018, \"ok\": false, ",
            "\"error\": \"invalid flow options: bad \\\"field\\\", see\\nline two\"}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(rows_to_json(&golden_rows()), expected);
    }

    #[test]
    fn rows_to_csv_golden_bytes() {
        let expected = concat!(
            "m,n,method,citation,target,seed,ok,luts,slices,depth,time_ns,area_time,",
            "dup_gates,dead_nodes,and_depth,xor_depth,and_gates,xor_gates,dedup_saved,",
            "worst_slack_ns,error\n",
            "8,2,proposed,This work,virtex5,2018,true,33,11,3,9.8765,",
            "325.9259,2,1,1,5,64,84,7,-0.0000,\n",
            "16,2,mastrovito,[2],artix7,2018,false,,,,,,,,,,,,,,",
            "\"invalid flow options: bad \"\"field\"\", see\nline two\"\n",
        );
        assert_eq!(rows_to_csv(&golden_rows()), expected);
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_table5_json("{}").is_err());
        assert!(validate_table5_json(r#"{"schema": "other", "rows": []}"#).is_err());
        // Previous schema revisions are rejected by tag.
        assert!(validate_table5_json(r#"{"schema": "rgf2m-table5/1", "rows": []}"#).is_err());
        assert!(validate_table5_json(r#"{"schema": "rgf2m-table5/2", "rows": []}"#).is_err());
        assert!(validate_table5_json(r#"{"schema": "rgf2m-table5/3", "rows": []}"#).is_err());
        assert!(validate_table5_json(r#"{"schema": "rgf2m-table5/4", "rows": []}"#).is_err());
        let empty = format!(r#"{{"schema": "{TABLE5_SCHEMA}", "rows": []}}"#);
        assert!(validate_table5_json(&empty).is_err());
        // `/3` requires the hygiene counters on every ok row.
        let no_hygiene =
            block_doc(|_| "artix7").replace(", \"dup_gates\": 0, \"dead_nodes\": 0", "");
        assert!(validate_table5_json(&no_hygiene)
            .unwrap_err()
            .contains("dup_gates"));
        // `/4` requires the gate-depth pair and the worst slack.
        let no_depth = block_doc(|_| "artix7").replace(", \"and_depth\": 1", "");
        assert!(validate_table5_json(&no_depth)
            .unwrap_err()
            .contains("and_depth"));
        let no_slack = block_doc(|_| "artix7").replace(", \"worst_slack_ns\": 0.0000", "");
        assert!(validate_table5_json(&no_slack)
            .unwrap_err()
            .contains("worst_slack_ns"));
        // `/5` requires the gate-count pair and the strash dividend.
        let no_area = block_doc(|_| "artix7").replace(", \"and_gates\": 64", "");
        assert!(validate_table5_json(&no_area)
            .unwrap_err()
            .contains("and_gates"));
        let no_saved = block_doc(|_| "artix7").replace(", \"dedup_saved\": 0", "");
        assert!(validate_table5_json(&no_saved)
            .unwrap_err()
            .contains("dedup_saved"));
        let zero_area = block_doc(|_| "artix7").replace("\"xor_gates\": 84", "\"xor_gates\": 0");
        assert!(validate_table5_json(&zero_area)
            .unwrap_err()
            .contains("not positive"));
        // A meaningfully negative slack means the STA is inconsistent.
        let bad_slack = block_doc(|_| "artix7")
            .replace("\"worst_slack_ns\": 0.0000", "\"worst_slack_ns\": -0.5");
        assert!(validate_table5_json(&bad_slack)
            .unwrap_err()
            .contains("negative"));
        // Float-noise-level negatives are tolerated.
        let noise_slack = block_doc(|_| "artix7").replace(
            "\"worst_slack_ns\": 0.0000",
            "\"worst_slack_ns\": -0.0000001",
        );
        assert!(validate_table5_json(&noise_slack).is_ok());
        // A time past `f64::MAX` would pass `Positive` as infinity.
        let overflow =
            block_doc(|_| "artix7").replacen("\"time_ns\": 9.7", "\"time_ns\": 1e999", 1);
        assert!(validate_table5_json(&overflow)
            .unwrap_err()
            .contains("out of range"));
    }

    /// A minimal valid six-row block with a per-row target override.
    fn block_doc(target_of: impl Fn(usize) -> &'static str) -> String {
        let rows: Vec<String> = Method::ALL
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "    {{\"m\": 8, \"n\": 2, \"method\": {}, \"citation\": {}, \
                     \"target\": {}, \"seed\": 1, \"ok\": true, \"luts\": 33, \
                     \"slices\": 11, \"depth\": 3, \"time_ns\": 9.7, \"area_time\": 320.1, \
                     \"dup_gates\": 0, \"dead_nodes\": 0, \"and_depth\": 1, \
                     \"xor_depth\": 5, \"and_gates\": 64, \"xor_gates\": 84, \
                     \"dedup_saved\": 0, \"worst_slack_ns\": 0.0000}}",
                    json_string(m.name()),
                    json_string(m.citation()),
                    json_string(target_of(i)),
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{TABLE5_SCHEMA}\",\n  \"base_seed\": 2018,\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn validator_enforces_known_uniform_block_targets() {
        let ok = block_doc(|_| "virtex5");
        let summary = validate_table5_json(&ok).unwrap();
        assert!(summary.contains("1 target(s)"), "{summary}");
        // An unregistered fabric name is rejected...
        let unknown = block_doc(|_| "ise_14_7");
        assert!(validate_table5_json(&unknown)
            .unwrap_err()
            .contains("unknown target"));
        // ...and so is a block whose rows disagree on the fabric.
        let mixed = block_doc(|i| if i == 3 { "spartan3" } else { "artix7" });
        assert!(validate_table5_json(&mixed)
            .unwrap_err()
            .contains("differs from its block's"));
        // A row with no target at all fails too.
        let stripped = block_doc(|_| "artix7").replace("\"target\": \"artix7\", ", "");
        assert!(validate_table5_json(&stripped)
            .unwrap_err()
            .contains("missing \"target\""));
    }
}
