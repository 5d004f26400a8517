//! The unified static-analysis pass: every certificate the workspace
//! can state about a generated multiplier — structural lint, complete
//! formal verification, the Table V depth certificate, the Table V
//! area certificate, the structural-hashing (strash) sharing
//! certificate and the mapped-netlist formal check — run over a
//! Method × Target grid and folded into one machine-checkable
//! `rgf2m-audit/1` verdict.
//!
//! This is the single static-analysis gate CI runs: one `audit`
//! invocation replaces separate lint and STA-certificate smoke steps,
//! and any violated certificate anywhere in the grid turns into a
//! nonzero exit. The [`Fault`] hooks exist so the gate can prove its
//! own teeth: injecting one redundant gate or one flipped LUT truth
//! table must break at least one certificate.

use std::fmt;

use netlist::{Gate, Netlist};
use rgf2m_core::{area_spec, delay_spec, gen::generate, multiplier_spec, Method};
use rgf2m_fpga::{Pipeline, Target};
use rgf2m_serve::json::{json_string, parse_json, JsonValue};

use crate::{field_for, harness_pipeline};

/// Schema tag stamped into every audit JSON export.
pub const AUDIT_SCHEMA: &str = "rgf2m-audit/1";

/// A deliberately introduced defect, for proving the audit's teeth.
///
/// The audit is a gate: CI needs evidence it would actually fail if a
/// generator or the mapper regressed. Each fault models one realistic
/// regression and must break at least one certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Appends a raw duplicate of the netlist's last gate (bypassing
    /// hash-consing via `Netlist::push_raw`) — a transcription-style
    /// area regression. Caught by the area certificate (one gate over
    /// the exact formula) and the strash certificate (`saved != 0`).
    RedundantGate,
    /// Inverts the truth table of the first mapped LUT — a silent
    /// functional regression after technology mapping. Caught by the
    /// mapped formal check.
    TruthFault,
}

impl Fault {
    /// CLI name of the fault.
    pub fn name(self) -> &'static str {
        match self {
            Fault::RedundantGate => "redundant-gate",
            Fault::TruthFault => "truth-fault",
        }
    }

    /// Parses a CLI fault name.
    pub fn from_name(name: &str) -> Option<Fault> {
        match name {
            "redundant-gate" => Some(Fault::RedundantGate),
            "truth-fault" => Some(Fault::TruthFault),
            _ => None,
        }
    }
}

/// What to audit: one Table V field, a method set, a target set, and
/// optionally a [`Fault`] to inject first.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Field degree `m`.
    pub m: usize,
    /// Pentanomial parameter `n`.
    pub n: usize,
    /// Methods to audit (paper row order by default).
    pub methods: Vec<Method>,
    /// Target fabrics to audit each method on.
    pub targets: Vec<Target>,
    /// A defect to inject before checking — `None` for the real gate.
    pub fault: Option<Fault>,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions {
            m: 8,
            n: 2,
            methods: Method::ALL.to_vec(),
            targets: vec![Target::Artix7],
            fault: None,
        }
    }
}

/// One certificate's verdict within a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCheck {
    /// Stable check name (`lint`, `formal`, `depth`, `area`, `strash`,
    /// `mapped`).
    pub check: &'static str,
    /// Whether the certificate held.
    pub ok: bool,
    /// Deterministic one-line evidence (bound met, or the failure).
    pub detail: String,
}

impl AuditCheck {
    /// The verdict of `check`: held with the `Ok` evidence, or violated
    /// with the error's text.
    fn of<E: fmt::Display>(check: &'static str, result: Result<String, E>) -> AuditCheck {
        let ok = result.is_ok();
        let detail = result.unwrap_or_else(|e| e.to_string());
        AuditCheck { check, ok, detail }
    }
}

/// All certificate verdicts for one Method × Target grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCell {
    /// The audited method.
    pub method: Method,
    /// The audited fabric.
    pub target: Target,
    /// The certificate verdicts, in canonical check order.
    pub checks: Vec<AuditCheck>,
}

impl AuditCell {
    /// Number of violated certificates in this cell.
    pub fn violations(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }
}

/// The whole audit verdict over the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Field degree `m`.
    pub m: usize,
    /// Pentanomial parameter `n`.
    pub n: usize,
    /// One cell per Method × Target pair, methods outer, targets inner.
    pub cells: Vec<AuditCell>,
}

impl AuditReport {
    /// Total violated certificates across the grid.
    pub fn violations(&self) -> usize {
        self.cells.iter().map(AuditCell::violations).sum()
    }

    /// Whether every certificate in every cell held.
    pub fn is_clean(&self) -> bool {
        self.violations() == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit of GF(2^{}) (n = {}): {} cell(s), {} violation(s)",
            self.m,
            self.n,
            self.cells.len(),
            self.violations()
        )?;
        for cell in &self.cells {
            let verdict = if cell.violations() == 0 {
                "ok"
            } else {
                "FAILED"
            };
            writeln!(
                f,
                "  {:<14} [{:<9}] {}",
                cell.method.name(),
                cell.target.name(),
                verdict
            )?;
            for check in &cell.checks {
                writeln!(
                    f,
                    "    {:<7} {} — {}",
                    check.check,
                    if check.ok { "ok    " } else { "FAILED" },
                    check.detail
                )?;
            }
        }
        Ok(())
    }
}

/// Appends a raw duplicate of the last 2-input gate — the
/// [`Fault::RedundantGate`] injection.
fn inject_redundant_gate(net: &mut Netlist) {
    let dup = net
        .node_ids()
        .filter(|&id| matches!(net.gate(id), Gate::And(_, _) | Gate::Xor(_, _)))
        .last()
        .expect("a multiplier netlist has gates");
    net.push_raw(net.gate(dup));
}

/// Runs every static certificate over the configured grid.
///
/// Gate-level checks (lint, formal, depth, area, strash) are
/// target-independent, so they run once per method and every target's
/// cell carries a copy, keeping each cell a self-contained verdict; the
/// mapped check re-maps per fabric. No placement or timing runs — the
/// audit is purely static, so its output (and the JSON export) is
/// deterministic byte for byte.
pub fn run_audit(opts: &AuditOptions) -> AuditReport {
    let field = field_for(opts.m, opts.n);
    let spec = multiplier_spec(&field);
    let mut report = AuditReport {
        m: opts.m,
        n: opts.n,
        cells: Vec::with_capacity(opts.methods.len() * opts.targets.len()),
    };
    for &method in &opts.methods {
        let mut net = generate(&field, method);
        if opts.fault == Some(Fault::RedundantGate) {
            inject_redundant_gate(&mut net);
        }
        let depth_spec = delay_spec(&field, method);
        let area = area_spec(&field, method);
        let pipeline = harness_pipeline();

        // Structural hygiene. Errors break the certificate; warnings
        // ride along in the summary.
        let lint = netlist::lint_netlist(&net);
        let lint = if lint.has_errors() {
            Err(lint.summary())
        } else {
            Ok(lint.summary())
        };

        // Structural hashing: the proof-carrying dedup rewrite must find
        // nothing to merge (the hash-consing builder already shares
        // every repeated cone) and its output must still verify
        // formally.
        let (deduped, saved) = netlist::strash_dedup(&net);
        let strash = match pipeline.verify_formal(&spec, &deduped) {
            Ok(()) => {
                let detail =
                    format!("dedup rewrite saved {saved} gate(s), output verifies formally");
                if saved == 0 {
                    Ok(detail)
                } else {
                    Err(detail)
                }
            }
            Err(_) => Err(format!(
                "dedup rewrite saved {saved} gate(s) but broke verification"
            )),
        };

        let gate_checks = [
            AuditCheck::of("lint", lint),
            // Complete algebraic verification of every output cone.
            AuditCheck::of(
                "formal",
                pipeline
                    .verify_formal(&spec, &net)
                    .map(|()| format!("all {} output cones match the spec", opts.m)),
            ),
            // The Table V delay formula, as a structural depth bound.
            AuditCheck::of(
                "depth",
                pipeline
                    .verify_depth(&depth_spec, &net)
                    .map(|()| format!("within {}", depth_spec.worst())),
            ),
            // The Table V gate-count formula, exact per kind.
            AuditCheck::of(
                "area",
                pipeline
                    .verify_area(&area, &net)
                    .map(|()| format!("exactly {area}")),
            ),
            AuditCheck::of("strash", strash),
        ];

        for &target in &opts.targets {
            let pipeline: Pipeline = harness_pipeline().with_target(target);
            let mut checks = gate_checks.to_vec();

            // Mapped level: re-map for this fabric (no placement) and
            // verify the LUT netlist formally; `verify_formal_mapped`
            // lints it first, so mapped structural errors surface here.
            let mapped = pipeline
                .resynth(&net)
                .and_then(|synth| pipeline.map(&synth))
                .and_then(|mut mapped| {
                    if opts.fault == Some(Fault::TruthFault) {
                        let truth = mapped.luts()[0].truth;
                        mapped.set_truth(0, !truth);
                    }
                    pipeline.verify_formal_mapped(&spec, &mapped)?;
                    Ok(format!(
                        "{} LUTs match the spec on {}",
                        mapped.num_luts(),
                        target.name()
                    ))
                });
            checks.push(AuditCheck::of("mapped", mapped));

            report.cells.push(AuditCell {
                method,
                target,
                checks,
            });
        }
    }
    report
}

/// Serializes an audit verdict as the `rgf2m-audit/1` JSON document.
/// Byte-deterministic: fixed field order, no floats, no timestamps.
pub fn audit_to_json(report: &AuditReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{AUDIT_SCHEMA}\",\n"));
    s.push_str(&format!("  \"m\": {}, \"n\": {},\n", report.m, report.n));
    s.push_str(&format!("  \"violations\": {},\n", report.violations()));
    s.push_str("  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!(
            "\"method\": {}, \"citation\": {}, \"target\": {}, \"ok\": {}, \"checks\": [",
            json_string(cell.method.name()),
            json_string(cell.method.citation()),
            json_string(cell.target.name()),
            cell.violations() == 0
        ));
        for (j, check) in cell.checks.iter().enumerate() {
            s.push_str(&format!(
                "\n      {{\"check\": {}, \"ok\": {}, \"detail\": {}}}",
                json_string(check.check),
                check.ok,
                json_string(&check.detail)
            ));
            if j + 1 < cell.checks.len() {
                s.push(',');
            }
        }
        s.push_str("\n    ]}");
        if i + 1 < report.cells.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// The canonical check set every audit cell must carry.
const CHECK_NAMES: [&str; 6] = ["lint", "formal", "depth", "area", "strash", "mapped"];

/// Validates a `rgf2m-audit/1` JSON document: schema tag, positive
/// field shape, a non-empty cell grid where every cell names a
/// registered method (with its paper citation) and target, carries the
/// full canonical check set in order, and has `ok` consistent with its
/// checks; the top-level `violations` count must equal the number of
/// failed checks. Returns a short human-readable summary on success.
pub fn validate_audit_json(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != AUDIT_SCHEMA {
        return Err(format!("schema {schema:?}, expected {AUDIT_SCHEMA:?}"));
    }
    for key in ["m", "n"] {
        let v = doc
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric \"{key}\""))?;
        if v <= 0.0 || v.fract() != 0.0 {
            return Err(format!("{key} = {v} is not a positive integer"));
        }
    }
    let cells = doc
        .get("cells")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"cells\" array")?;
    if cells.is_empty() {
        return Err("empty \"cells\"".into());
    }
    let mut failed_checks = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let ctx = |what: &str| format!("cell {i}: {what}");
        let name = cell
            .get("method")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing \"method\""))?;
        let method =
            Method::from_name(name).ok_or_else(|| format!("cell {i}: unknown method {name:?}"))?;
        let citation = cell
            .get("citation")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing \"citation\""))?;
        if citation != method.citation() {
            return Err(format!(
                "cell {i}: citation {citation:?}, expected {:?}",
                method.citation()
            ));
        }
        let target = cell
            .get("target")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing \"target\""))?;
        if Target::from_name(target).is_none() {
            return Err(format!("cell {i}: unknown target {target:?}"));
        }
        let cell_ok = cell
            .get("ok")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| ctx("missing boolean \"ok\""))?;
        let checks = cell
            .get("checks")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ctx("missing \"checks\" array"))?;
        if checks.len() != CHECK_NAMES.len() {
            return Err(format!(
                "cell {i}: {} check(s), expected the canonical {}",
                checks.len(),
                CHECK_NAMES.len()
            ));
        }
        let mut cell_failures = 0usize;
        for (j, (check, expected)) in checks.iter().zip(CHECK_NAMES).enumerate() {
            let cctx = |what: &str| format!("cell {i} check {j}: {what}");
            let got = check
                .get("check")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| cctx("missing \"check\""))?;
            if got != expected {
                return Err(format!(
                    "cell {i} check {j}: {got:?} out of canonical order (expected {expected:?})"
                ));
            }
            let ok = check
                .get("ok")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| cctx("missing boolean \"ok\""))?;
            check
                .get("detail")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| cctx("missing \"detail\""))?;
            if !ok {
                cell_failures += 1;
            }
        }
        if cell_ok != (cell_failures == 0) {
            return Err(format!(
                "cell {i}: ok = {cell_ok} contradicts its {cell_failures} failed check(s)"
            ));
        }
        failed_checks += cell_failures;
    }
    let violations = doc
        .get("violations")
        .and_then(JsonValue::as_f64)
        .ok_or("missing numeric \"violations\"")?;
    if violations != failed_checks as f64 {
        return Err(format!(
            "violations = {violations} but the cells carry {failed_checks} failed check(s)"
        ));
    }
    Ok(format!(
        "{} cell(s), {} check(s) each, {} violation(s)",
        cells.len(),
        CHECK_NAMES.len(),
        failed_checks
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> AuditOptions {
        // One method keeps the unit tests fast; the full grid runs in
        // the audit bin (and CI).
        AuditOptions {
            methods: vec![Method::ProposedFlat],
            ..AuditOptions::default()
        }
    }

    #[test]
    fn clean_generator_passes_every_certificate() {
        let report = run_audit(&AuditOptions {
            methods: vec![Method::ProposedFlat, Method::ReyhaniHasan],
            targets: vec![Target::Artix7, Target::Spartan3],
            ..AuditOptions::default()
        });
        assert_eq!(report.cells.len(), 4);
        assert!(report.is_clean(), "{report}");
        for cell in &report.cells {
            assert_eq!(
                cell.checks.iter().map(|c| c.check).collect::<Vec<_>>(),
                CHECK_NAMES
            );
        }
    }

    #[test]
    fn injected_redundant_gate_breaks_certificates() {
        let report = run_audit(&AuditOptions {
            fault: Some(Fault::RedundantGate),
            ..quick_opts()
        });
        assert!(!report.is_clean());
        let cell = &report.cells[0];
        let failed: Vec<&str> = cell
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.check)
            .collect();
        // The duplicate is one gate over the exact area formula and
        // exactly what strash reclaims; behaviour is unchanged, so the
        // functional certificates still hold.
        assert!(failed.contains(&"area"), "{report}");
        assert!(failed.contains(&"strash"), "{report}");
        assert!(!failed.contains(&"formal"), "{report}");
        let strash = cell.checks.iter().find(|c| c.check == "strash").unwrap();
        assert!(
            strash.detail.contains("saved 1 gate(s)"),
            "{}",
            strash.detail
        );
    }

    #[test]
    fn injected_truth_fault_breaks_the_mapped_certificate() {
        let report = run_audit(&AuditOptions {
            fault: Some(Fault::TruthFault),
            ..quick_opts()
        });
        assert!(!report.is_clean());
        let cell = &report.cells[0];
        let mapped = cell.checks.iter().find(|c| c.check == "mapped").unwrap();
        assert!(!mapped.ok);
        assert!(
            mapped.detail.contains("formal verification"),
            "{}",
            mapped.detail
        );
        // Gate-level certificates are untouched by a mapped-level fault.
        for name in ["lint", "formal", "depth", "area", "strash"] {
            assert!(cell.checks.iter().find(|c| c.check == name).unwrap().ok);
        }
    }

    #[test]
    fn json_export_roundtrips_through_the_validator() {
        let clean = run_audit(&quick_opts());
        let doc = audit_to_json(&clean);
        let summary = validate_audit_json(&doc).unwrap();
        assert!(summary.contains("0 violation(s)"), "{summary}");
        // Deterministic writer: same grid, same bytes.
        assert_eq!(audit_to_json(&run_audit(&quick_opts())), doc);

        // A faulted report still validates (the document is honest
        // about its violations) — failing is the *bin*'s job.
        let faulted = run_audit(&AuditOptions {
            fault: Some(Fault::RedundantGate),
            ..quick_opts()
        });
        let fdoc = audit_to_json(&faulted);
        let fsummary = validate_audit_json(&fdoc).unwrap();
        assert!(!fsummary.contains(" 0 violation(s)"), "{fsummary}");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let doc = audit_to_json(&run_audit(&quick_opts()));
        assert!(validate_audit_json("{}").is_err());
        assert!(validate_audit_json(&doc.replace(AUDIT_SCHEMA, "rgf2m-audit/0")).is_err());
        // A violation count contradicting the checks is caught...
        let lied = doc.replace("\"violations\": 0", "\"violations\": 3");
        assert!(validate_audit_json(&lied)
            .unwrap_err()
            .contains("violations"));
        // ...and so are a tampered cell verdict, method and check set.
        let flipped = doc.replace("\"ok\": true, \"checks\"", "\"ok\": false, \"checks\"");
        assert!(validate_audit_json(&flipped)
            .unwrap_err()
            .contains("contradicts"));
        let unknown = doc.replace("\"method\": \"proposed\"", "\"method\": \"magic\"");
        assert!(validate_audit_json(&unknown)
            .unwrap_err()
            .contains("unknown method"));
        let misordered = doc.replace("\"check\": \"lint\"", "\"check\": \"area\"");
        assert!(validate_audit_json(&misordered)
            .unwrap_err()
            .contains("canonical"));
    }

    #[test]
    fn fault_names_roundtrip() {
        for fault in [Fault::RedundantGate, Fault::TruthFault] {
            assert_eq!(Fault::from_name(fault.name()), Some(fault));
        }
        assert_eq!(Fault::from_name("meteor"), None);
    }
}
