//! The one [`ImplReport`] codec: a field table, [`REPORT_FIELDS`], that
//! every report format walks — the Table V JSON and CSV exports, the
//! artifact store's documents, the daemon's synth responses and the
//! Table V validator.
//!
//! Each entry names one report column, its kind (which also carries its
//! accessor) and the bound a validator holds it to. The entries follow
//! the column order of the `rgf2m-table5/5` export. Adding a column is
//! one `ImplReport` field plus one row here.

use std::fmt::Write as _;

use rgf2m_fpga::ImplReport;

use crate::json::{json_string, JsonValue};

/// The key of the design name, which every JSON report object carries
/// ahead of the numeric columns. It is not a Table V column: the
/// exports name a row by its job instead.
const NAME: &str = "name";

/// The most negative `worst_slack_ns` a validator still accepts: the
/// STA's default target is the critical delay itself, so the slack is
/// zero up to float noise.
const SLACK_TOLERANCE: f64 = 1e-6;

/// The largest count a reader (and the line protocol's `id` and `seed`)
/// accepts, 2^53 − 1: every integer up to it has its own `f64`, so a
/// JSON number there reads back exactly.
pub(crate) const MAX_EXACT_COUNT: f64 = ((1u64 << 53) - 1) as f64;

/// How a column is typed, read and written.
#[derive(Debug, Clone, Copy)]
pub enum FieldKind {
    /// A `usize` counter, written as a JSON integer.
    Count(fn(&ImplReport) -> usize, fn(&mut ImplReport, usize)),
    /// A `u32` level count, written as a JSON integer.
    U32(fn(&ImplReport) -> u32, fn(&mut ImplReport, u32)),
    /// A time in nanoseconds.
    Ns(fn(&ImplReport) -> f64, fn(&mut ImplReport, f64)),
    /// A float computed from other columns: written, never read back.
    Derived(fn(&ImplReport) -> f64),
}

/// What a validator demands of a column's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Strictly above zero.
    Positive,
    /// Zero or above.
    NonNegative,
    /// Not below −1e-6: zero up to float noise.
    Slack,
}

impl Bound {
    /// The reason `v` breaks this bound, if it does.
    pub fn check(self, v: f64) -> Result<(), &'static str> {
        match self {
            Bound::Positive if v <= 0.0 => Err("is not positive"),
            Bound::NonNegative if v < 0.0 => Err("is negative"),
            Bound::Slack if v < -SLACK_TOLERANCE => Err("is negative"),
            _ => Ok(()),
        }
    }
}

/// How a writer spells the floats of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floats {
    /// Rust's shortest round-trip `Display`, so a decoded report is
    /// bit-identical: the artifact store and the wire. JSON has no
    /// infinities or NaN, so a non-finite value is written as `null`.
    Exact,
    /// Four decimals: the Table V JSON and CSV exports.
    FourPlaces,
}

/// One report column.
#[derive(Debug, Clone, Copy)]
pub struct ReportField {
    /// The JSON key and CSV header.
    pub name: &'static str,
    /// Type and accessor.
    pub kind: FieldKind,
    /// The validator's bound on the value.
    pub bound: Bound,
}

const fn field(name: &'static str, kind: FieldKind, bound: Bound) -> ReportField {
    ReportField { name, kind, bound }
}

/// Every column of a report, in the `rgf2m-table5/5` export's order.
#[rustfmt::skip]
pub const REPORT_FIELDS: [ReportField; 13] = {
    use Bound::*;
    use FieldKind::*;
    [
        field("luts",           Count(|r| r.luts, |r, v| r.luts = v),                     Positive),
        field("slices",         Count(|r| r.slices, |r, v| r.slices = v),                 Positive),
        field("depth",          U32(|r| r.depth, |r, v| r.depth = v),                     Positive),
        field("time_ns",        Ns(|r| r.time_ns, |r, v| r.time_ns = v),                  Positive),
        field("area_time",      Derived(ImplReport::area_time),                           Positive),
        // Lint hygiene counters: legitimately (and usually) zero.
        field("dup_gates",      Count(|r| r.dup_gates, |r, v| r.dup_gates = v),           NonNegative),
        field("dead_nodes",     Count(|r| r.dead_nodes, |r, v| r.dead_nodes = v),         NonNegative),
        // The source netlist's gate-depth pair: a bit-parallel
        // multiplier is one AND level feeding XOR trees.
        field("and_depth",      U32(|r| r.and_depth, |r, v| r.and_depth = v),             Positive),
        field("xor_depth",      U32(|r| r.xor_depth, |r, v| r.xor_depth = v),             Positive),
        // The source netlist's gate-count pair, and the strash dividend
        // (0 for every hash-consed generator).
        field("and_gates",      Count(|r| r.and_gates, |r, v| r.and_gates = v),           Positive),
        field("xor_gates",      Count(|r| r.xor_gates, |r, v| r.xor_gates = v),           Positive),
        field("dedup_saved",    Count(|r| r.dedup_saved, |r, v| r.dedup_saved = v),       NonNegative),
        field("worst_slack_ns", Ns(|r| r.worst_slack_ns, |r, v| r.worst_slack_ns = v),    Slack),
    ]
};

impl ReportField {
    /// Appends this column's value in `r`.
    pub fn write_value(&self, r: &ImplReport, floats: Floats, out: &mut String) {
        let v = match self.kind {
            FieldKind::Count(get, _) => {
                let _ = write!(out, "{}", get(r));
                return;
            }
            FieldKind::U32(get, _) => {
                let _ = write!(out, "{}", get(r));
                return;
            }
            FieldKind::Ns(get, _) | FieldKind::Derived(get) => get(r),
        };
        let _ = match floats {
            Floats::Exact if !v.is_finite() => write!(out, "null"),
            Floats::Exact => write!(out, "{v}"),
            Floats::FourPlaces => write!(out, "{v:.4}"),
        };
    }

    /// Reads this column from `obj` into `r`; derived columns are
    /// skipped. Errors name the key after the `ctx` prefix.
    fn read(&self, obj: &JsonValue, ctx: &str, r: &mut ImplReport) -> Result<(), String> {
        if let FieldKind::Derived(_) = self.kind {
            return Ok(());
        }
        let name = self.name;
        let v = obj
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{ctx}: missing numeric \"{name}\""))?;
        let count = |max: f64| {
            if v < 0.0 || v.fract() != 0.0 || v > max {
                Err(format!("{ctx}: \"{name}\" = {v} is not a count"))
            } else {
                Ok(v)
            }
        };
        match self.kind {
            // Past 2^53 − 1 a JSON number no longer names one integer.
            FieldKind::Count(_, set) => set(r, count(MAX_EXACT_COUNT)? as usize),
            FieldKind::U32(_, set) => set(r, count(u32::MAX as f64)? as u32),
            FieldKind::Ns(_, set) => set(r, v),
            FieldKind::Derived(_) => {}
        }
        Ok(())
    }
}

/// Appends `, "key": value` for every column of `r`.
pub fn write_json_fields(r: &ImplReport, floats: Floats, out: &mut String) {
    for f in &REPORT_FIELDS {
        let _ = write!(out, ", \"{}\": ", f.name);
        f.write_value(r, floats, out);
    }
}

/// Appends the members of `r`'s JSON object — its name, then every
/// column with exact floats — without the braces, so a caller can
/// embed them after its own members.
pub fn write_report_members(r: &ImplReport, out: &mut String) {
    let _ = write!(out, "\"{NAME}\": {}", json_string(&r.name));
    write_json_fields(r, Floats::Exact, out);
}

/// Reads a report from the members of `obj`, by key, so member order
/// does not matter. Errors start with `ctx`.
pub fn read_report(obj: &JsonValue, ctx: &str) -> Result<ImplReport, String> {
    let name = obj
        .get(NAME)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{ctx}: missing \"{NAME}\""))?;
    let mut r = ImplReport {
        name: name.to_string(),
        ..ImplReport::default()
    };
    for f in &REPORT_FIELDS {
        f.read(obj, ctx, &mut r)?;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn reader_names_the_bad_column() {
        let doc = parse_json(r#"{"name": "x", "luts": 1.5}"#).unwrap();
        assert_eq!(
            read_report(&doc, "t").unwrap_err(),
            "t: \"luts\" = 1.5 is not a count"
        );
        let doc = parse_json(r#"{"name": "x"}"#).unwrap();
        assert_eq!(
            read_report(&doc, "t").unwrap_err(),
            "t: missing numeric \"luts\""
        );
        let doc = parse_json(r#"{"luts": 1}"#).unwrap();
        assert_eq!(read_report(&doc, "t").unwrap_err(), "t: missing \"name\"");
        // A u32 column refuses what would wrap.
        let mut s = String::from("{");
        write_report_members(&ImplReport::default(), &mut s);
        s.push('}');
        let wide = s.replace("\"depth\": 0", "\"depth\": 4294967296");
        assert!(read_report(&parse_json(&wide).unwrap(), "t")
            .unwrap_err()
            .contains("\"depth\" = 4294967296 is not a count"));
        // A count column refuses what an f64 cannot hold exactly.
        let exact = s.replace("\"luts\": 0", "\"luts\": 9007199254740991");
        assert_eq!(
            read_report(&parse_json(&exact).unwrap(), "t").unwrap().luts,
            (1 << 53) - 1
        );
        let inexact = s.replace("\"luts\": 0", "\"luts\": 9007199254740992");
        assert!(read_report(&parse_json(&inexact).unwrap(), "t")
            .unwrap_err()
            .contains("is not a count"));
    }
}
