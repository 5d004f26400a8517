//! The daemon's newline-delimited JSON line protocol: request parsing
//! (server side), request/response encoding, and response parsing
//! (client side).
//!
//! One request per line, one response line per request. Requests name
//! an `op`:
//!
//! ```text
//! {"op": "synth", "id": 1, "m": 8, "n": 2, "method": "proposed", "target": "artix7", "seed": 2018}
//! {"op": "synth", "id": 2, "poly": [8, 4, 3, 2, 0], "method": "mastrovito"}
//! {"op": "stats", "id": 3}
//! {"op": "shutdown", "id": 4}
//! ```
//!
//! `method` must name a [`Method`] registry entry and `target` a
//! [`Target`] registry entry (`target` defaults to `artix7`, the
//! paper's fabric; `seed` defaults to [`DEFAULT_SEED`]). Responses
//! echo the request `id` — the daemon may answer out of submission
//! order, clients reorder by id. Floats travel in Rust's shortest
//! round-trip `Display`, so a reconstructed [`ImplReport`] is
//! bit-identical to the daemon's.
//!
//! Seeds are full-width `u64` (the bench runner's splitmix64 per-job
//! seeds use all 64 bits) but JSON numbers are `f64`, whose 53-bit
//! mantissa would silently round them — and a rounded seed anneals a
//! *different* placement. Encoders therefore write `seed` as a decimal
//! **string** (`"seed": "11657511268527099060"`); the parser accepts
//! either spelling and refuses a numeric seed or id above 2^53 − 1,
//! the largest integer every smaller one of which `f64` carries
//! exactly.

use gf2m::Field;
use gf2poly::{Gf2Poly, TypeIiPentanomial};
use rgf2m_core::Method;
use rgf2m_fpga::{place::DEFAULT_SEED, ImplReport, Target};

use crate::codec::{read_report, write_report_members, MAX_EXACT_COUNT};
use crate::json::{json_string, parse_json, JsonValue};

/// The largest field degree a synth request may name, as `m` or as a
/// `poly` exponent: the NIST B-571 field, the largest Table V covers.
/// [`parse_request`] refuses anything above it before a field is built,
/// so no request can make the daemon allocate a polynomial (or generate
/// a multiplier) of unbounded degree.
pub const MAX_FIELD_DEGREE: usize = 571;

/// The field a synth request names: a Table V `(m, n)` pair or an
/// explicit modulus by exponents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldSpec {
    /// The type II pentanomial `y^m + y^(n+2) + y^(n+1) + y^n + 1`.
    Pair {
        /// Extension degree `m`.
        m: usize,
        /// Pentanomial offset `n`.
        n: usize,
    },
    /// An arbitrary irreducible modulus, by term exponents.
    Poly(Vec<usize>),
}

impl FieldSpec {
    /// Builds the field, or a one-line reason why not. The pair
    /// message mirrors the `BatchRunner`'s wording (minus its job
    /// index, which only the client knows).
    pub fn build_field(&self) -> Result<Field, String> {
        match self {
            FieldSpec::Pair { m, n } => {
                let penta = TypeIiPentanomial::new(*m, *n)
                    .map_err(|e| format!("({m}, {n}) is not a valid type II pentanomial: {e}"))?;
                Ok(Field::from_pentanomial(&penta))
            }
            FieldSpec::Poly(exps) => Field::new(Gf2Poly::from_exponents(exps))
                .map_err(|e| format!("poly {exps:?} is not a valid modulus: {e}")),
        }
    }

    /// The request members naming this field, without braces.
    fn json_members(&self) -> String {
        match self {
            FieldSpec::Pair { m, n } => format!("\"m\": {m}, \"n\": {n}"),
            FieldSpec::Poly(exps) => format!(
                "\"poly\": [{}]",
                exps.iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

/// One validated synth job as it travels the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SynthRequest {
    /// Client-chosen response-matching id.
    pub id: u64,
    /// The field to build the multiplier over.
    pub field: FieldSpec,
    /// The Table V construction to run.
    pub method: Method,
    /// The fabric to implement on.
    pub target: Target,
    /// The placement seed.
    pub seed: u64,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one synthesis job.
    Synth(SynthRequest),
    /// Report daemon/store/cache counters.
    Stats {
        /// Response-matching id.
        id: u64,
    },
    /// Drain in-flight work, then exit.
    Shutdown {
        /// Response-matching id.
        id: u64,
    },
}

/// Parses one request line. Every failure is a one-line reason the
/// server relays back verbatim.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse_json(line)?;
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"op\"")?;
    let id = match doc.get("id") {
        None => 0,
        Some(v) => as_u64(v).ok_or("\"id\" must be a non-negative integer up to 2^53 − 1")?,
    };
    match op {
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "synth" => {
            let field = match (doc.get("m"), doc.get("n"), doc.get("poly")) {
                (Some(m), Some(n), None) => FieldSpec::Pair {
                    m: as_u64(m).ok_or("\"m\" must be a non-negative integer")? as usize,
                    n: as_u64(n).ok_or("\"n\" must be a non-negative integer")? as usize,
                },
                (None, None, Some(poly)) => {
                    let exps = poly.as_array().ok_or("\"poly\" must be an array")?;
                    let exps: Option<Vec<usize>> =
                        exps.iter().map(|e| as_u64(e).map(|v| v as usize)).collect();
                    FieldSpec::Poly(exps.ok_or("\"poly\" entries must be non-negative integers")?)
                }
                _ => return Err("give either \"m\" and \"n\", or \"poly\"".into()),
            };
            let degree = match &field {
                FieldSpec::Pair { m, .. } => *m,
                FieldSpec::Poly(exps) => exps.iter().copied().max().unwrap_or(0),
            };
            if degree > MAX_FIELD_DEGREE {
                return Err(format!(
                    "field degree {degree} exceeds the largest supported, {MAX_FIELD_DEGREE}"
                ));
            }
            let method_name = doc
                .get("method")
                .and_then(JsonValue::as_str)
                .ok_or("missing \"method\"")?;
            let method = Method::from_name(method_name).ok_or_else(|| {
                format!(
                    "unknown method {method_name:?}; registered: {}",
                    Method::ALL.map(|m| m.name()).join(", ")
                )
            })?;
            let target = match doc.get("target") {
                None => Target::Artix7,
                Some(v) => {
                    let name = v.as_str().ok_or("\"target\" must be a string")?;
                    Target::from_name(name).ok_or_else(|| {
                        format!(
                            "unknown target {name:?}; registered: {}",
                            Target::ALL.map(|t| t.name()).join(", ")
                        )
                    })?
                }
            };
            let seed = match doc.get("seed") {
                None => DEFAULT_SEED,
                Some(v) => seed_u64(v).ok_or(
                    "\"seed\" must be a non-negative integer (as a decimal string for \
                     values above 2^53 − 1, which JSON numbers cannot carry exactly)",
                )?,
            };
            Ok(Request::Synth(SynthRequest {
                id,
                field,
                method,
                target,
                seed,
            }))
        }
        other => Err(format!(
            "unknown op {other:?}; expected synth, stats or shutdown"
        )),
    }
}

/// Encodes a request as its wire line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Stats { id } => format!("{{\"op\": \"stats\", \"id\": {id}}}"),
        Request::Shutdown { id } => format!("{{\"op\": \"shutdown\", \"id\": {id}}}"),
        Request::Synth(s) => {
            let field = s.field.json_members();
            format!(
                "{{\"op\": \"synth\", \"id\": {}, {field}, \"method\": {}, \"target\": {}, \"seed\": \"{}\"}}",
                s.id,
                json_string(s.method.name()),
                json_string(s.target.name()),
                s.seed
            )
        }
    }
}

/// Encodes a successful synth response (no trailing newline). Echoes
/// the job identity; floats use shortest round-trip `Display`.
pub fn encode_synth_ok(req: &SynthRequest, report: &ImplReport, source: &str) -> String {
    let field = req.field.json_members();
    let mut s = format!(
        "{{\"id\": {}, \"ok\": true, \"source\": {}, {field}, \"method\": {}, \"target\": {}, \"seed\": \"{}\", ",
        req.id,
        json_string(source),
        json_string(req.method.name()),
        json_string(req.target.name()),
        req.seed,
    );
    write_report_members(report, &mut s);
    s.push('}');
    s
}

/// Encodes a failure response (no trailing newline).
pub fn encode_error(id: u64, message: &str) -> String {
    format!(
        "{{\"id\": {id}, \"ok\": false, \"error\": {}}}",
        json_string(message)
    )
}

/// Encodes the shutdown acknowledgement (no trailing newline).
pub fn encode_shutdown_ack(id: u64) -> String {
    format!("{{\"id\": {id}, \"ok\": true, \"shutting_down\": true}}")
}

/// One parsed response line, with typed access to the synth payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The echoed request id.
    pub id: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The whole response document (for `stats` payloads and
    /// diagnostics).
    pub doc: JsonValue,
}

impl Response {
    /// The failure message of a `"ok": false` response.
    pub fn error(&self) -> Option<&str> {
        self.doc.get("error").and_then(JsonValue::as_str)
    }

    /// The cache provenance tag of a synth response
    /// (`memory` / `store` / `computed`).
    pub fn source(&self) -> Option<&str> {
        self.doc.get("source").and_then(JsonValue::as_str)
    }

    /// Reconstructs the [`ImplReport`] of a successful synth response,
    /// bit-identical to the daemon's in-process report.
    pub fn report(&self) -> Result<ImplReport, String> {
        if !self.ok {
            return Err(self.error().unwrap_or("<no error recorded>").to_string());
        }
        read_report(&self.doc, "response")
    }
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = parse_json(line)?;
    let id = doc
        .get("id")
        .and_then(as_u64)
        .ok_or("response: missing \"id\"")?;
    let ok = doc
        .get("ok")
        .and_then(JsonValue::as_bool)
        .ok_or("response: missing \"ok\"")?;
    Ok(Response { id, ok, doc })
}

/// A JSON number that names one non-negative integer: at most
/// 2^53 − 1, past which `f64` has already rounded it in transit.
fn as_u64(v: &JsonValue) -> Option<u64> {
    let f = v.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= MAX_EXACT_COUNT).then_some(f as u64)
}

/// A seed: a decimal string (exact up to `u64::MAX`), or a JSON number
/// [`as_u64`] reads exactly.
fn seed_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Str(s) => s.parse().ok(),
        _ => as_u64(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> SynthRequest {
        SynthRequest {
            id: 7,
            field: FieldSpec::Pair { m: 8, n: 2 },
            method: Method::ProposedFlat,
            target: Target::Virtex5,
            seed: 42,
        }
    }

    #[test]
    fn requests_roundtrip_through_the_wire_format() {
        for r in [
            Request::Synth(req()),
            Request::Synth(SynthRequest {
                field: FieldSpec::Poly(vec![8, 4, 3, 2, 0]),
                ..req()
            }),
            Request::Stats { id: 3 },
            Request::Shutdown { id: 4 },
        ] {
            let line = encode_request(&r);
            assert_eq!(parse_request(&line), Ok(r.clone()), "{line}");
        }
    }

    #[test]
    fn full_width_seeds_survive_the_wire_exactly() {
        // A splitmix64 per-job seed uses all 64 bits — far above f64's
        // 53-bit mantissa. It must round-trip bit-exactly (it travels
        // as a decimal string), and a bare JSON number that wide must
        // be rejected rather than silently rounded.
        let wide = SynthRequest {
            seed: 11_657_511_268_527_099_060,
            ..req()
        };
        let line = encode_request(&Request::Synth(wide.clone()));
        let Ok(Request::Synth(back)) = parse_request(&line) else {
            panic!("did not parse: {line}");
        };
        assert_eq!(back.seed, wide.seed);
        let numeric = line.replace("\"11657511268527099060\"", "11657511268527099060");
        assert!(parse_request(&numeric).unwrap_err().contains("2^53"));
        // Small numeric seeds (hand-written requests) still work.
        let r =
            parse_request(r#"{"op": "synth", "m": 8, "n": 2, "method": "proposed", "seed": 2018}"#)
                .unwrap();
        let Request::Synth(s) = r else {
            panic!("not synth")
        };
        assert_eq!(s.seed, 2018);
    }

    #[test]
    fn integers_past_f64_exactness_are_refused() {
        // Each of these reads back as a different integer once `f64`
        // has rounded it: 2^53 + 1 as 2^53, 2^64 as `u64::MAX`.
        let synth = |members: &str| {
            parse_request(&format!(
                r#"{{"op": "synth", "m": 8, "n": 2, "method": "proposed", {members}}}"#
            ))
        };
        for id in ["9007199254740993", "18446744073709551616"] {
            let err = synth(&format!(r#""id": {id}"#)).unwrap_err();
            assert!(err.contains("\"id\""), "{id}: {err}");
            let err = parse_request(&format!(r#"{{"op": "stats", "id": {id}}}"#)).unwrap_err();
            assert!(err.contains("\"id\""), "{id}: {err}");
        }
        let err = synth(r#""seed": 9007199254740993"#).unwrap_err();
        assert!(err.contains("above 2^53 − 1"), "{err}");
        // 2^53 − 1 is the largest exact number; a decimal string stays
        // exact to u64::MAX.
        let Ok(Request::Synth(s)) = synth(r#""id": 9007199254740991, "seed": 9007199254740991"#)
        else {
            panic!("2^53 - 1 refused")
        };
        assert_eq!((s.id, s.seed), ((1 << 53) - 1, (1 << 53) - 1));
        let Ok(Request::Synth(s)) = synth(r#""seed": "18446744073709551615""#) else {
            panic!("u64::MAX as a string refused")
        };
        assert_eq!(s.seed, u64::MAX);
    }

    #[test]
    fn request_defaults_and_registry_validation() {
        let r = parse_request(r#"{"op": "synth", "m": 8, "n": 2, "method": "proposed"}"#).unwrap();
        let Request::Synth(s) = r else {
            panic!("not synth")
        };
        assert_eq!(s.id, 0);
        assert_eq!(s.target, Target::Artix7);
        assert_eq!(s.seed, DEFAULT_SEED);
        // Unknown names fail against the registries, listing them.
        let bad = parse_request(r#"{"op": "synth", "m": 8, "n": 2, "method": "magic"}"#);
        assert!(bad.unwrap_err().contains("mastrovito"));
        let bad = parse_request(
            r#"{"op": "synth", "m": 8, "n": 2, "method": "proposed", "target": "ise_14_7"}"#,
        );
        assert!(bad.unwrap_err().contains("artix7"));
        // Both field spellings at once is ambiguous; neither is empty.
        assert!(parse_request(
            r#"{"op": "synth", "m": 8, "n": 2, "poly": [1], "method": "proposed"}"#
        )
        .is_err());
        assert!(parse_request(r#"{"op": "synth", "method": "proposed"}"#).is_err());
        assert!(parse_request(r#"{"op": "fly"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn field_degrees_above_the_cap_are_refused() {
        let synth = |field: &str| {
            parse_request(&format!(
                r#"{{"op": "synth", {field}, "method": "proposed"}}"#
            ))
        };
        for field in [
            r#""poly": [1000000000000, 1, 0]"#,
            r#""poly": [0, 572]"#,
            r#""m": 572, "n": 2"#,
            r#""m": 1000000000000, "n": 2"#,
        ] {
            let err = synth(field).unwrap_err();
            assert!(
                err.contains("exceeds the largest supported, 571"),
                "{field}: {err}"
            );
        }
        // The cap itself is a valid request (NIST B-571).
        assert!(synth(r#""poly": [571, 10, 5, 2, 0]"#).is_ok());
        assert!(synth(r#""m": 571, "n": 103"#).is_ok());
    }

    fn golden_report() -> ImplReport {
        ImplReport {
            name: "gf256_\"proposed\"".into(),
            luts: 33,
            slices: 11,
            depth: 3,
            time_ns: 9.876_543_210_123,
            dup_gates: 2,
            dead_nodes: 1,
            worst_slack_ns: -1.25e-7,
            and_depth: 1,
            xor_depth: 5,
            and_gates: 64,
            xor_gates: 84,
            dedup_saved: 7,
        }
    }

    #[test]
    fn encode_synth_ok_golden_bytes_for_a_pair_field() {
        let line = encode_synth_ok(&req(), &golden_report(), "store");
        assert_eq!(
            line,
            concat!(
                "{\"id\": 7, \"ok\": true, \"source\": \"store\", \"m\": 8, \"n\": 2, ",
                "\"method\": \"proposed\", \"target\": \"virtex5\", \"seed\": \"42\", ",
                "\"name\": \"gf256_\\\"proposed\\\"\", \"luts\": 33, \"slices\": 11, ",
                "\"depth\": 3, \"time_ns\": 9.876543210123, \"area_time\": 325.92592593405897, ",
                "\"dup_gates\": 2, \"dead_nodes\": 1, \"and_depth\": 1, \"xor_depth\": 5, ",
                "\"and_gates\": 64, \"xor_gates\": 84, \"dedup_saved\": 7, ",
                "\"worst_slack_ns\": -0.000000125}",
            )
        );
        let resp = parse_response(&line).unwrap();
        assert_eq!((resp.id, resp.ok), (7, true));
        assert_eq!(resp.source(), Some("store"));
        assert_eq!(resp.report().unwrap(), golden_report());
    }

    #[test]
    fn encode_synth_ok_golden_bytes_for_a_poly_field() {
        let poly = SynthRequest {
            field: FieldSpec::Poly(vec![8, 4, 3, 2, 0]),
            method: Method::MastrovitoPaar,
            target: Target::Artix7,
            seed: 11_657_511_268_527_099_060,
            ..req()
        };
        let line = encode_synth_ok(&poly, &golden_report(), "computed");
        assert_eq!(
            line,
            concat!(
                "{\"id\": 7, \"ok\": true, \"source\": \"computed\", \"poly\": [8, 4, 3, 2, 0], ",
                "\"method\": \"mastrovito\", \"target\": \"artix7\", ",
                "\"seed\": \"11657511268527099060\", ",
                "\"name\": \"gf256_\\\"proposed\\\"\", \"luts\": 33, \"slices\": 11, ",
                "\"depth\": 3, \"time_ns\": 9.876543210123, \"area_time\": 325.92592593405897, ",
                "\"dup_gates\": 2, \"dead_nodes\": 1, \"and_depth\": 1, \"xor_depth\": 5, ",
                "\"and_gates\": 64, \"xor_gates\": 84, \"dedup_saved\": 7, ",
                "\"worst_slack_ns\": -0.000000125}",
            )
        );
    }

    #[test]
    fn synth_response_reconstructs_the_exact_report() {
        let report = ImplReport {
            name: "gf256_proposed".into(),
            time_ns: 9.876_543_210_123,
            dup_gates: 0,
            dead_nodes: 0,
            worst_slack_ns: 0.0,
            dedup_saved: 0,
            ..golden_report()
        };
        let line = encode_synth_ok(&req(), &report, "computed");
        let resp = parse_response(&line).unwrap();
        assert_eq!(resp.id, 7);
        assert!(resp.ok);
        assert_eq!(resp.source(), Some("computed"));
        let back = resp.report().unwrap();
        assert_eq!(back, report);
        assert_eq!(back.time_ns.to_bits(), report.time_ns.to_bits());
    }

    #[test]
    fn error_responses_relay_the_message_verbatim() {
        let msg = "job 3: (16, 2) is not a valid type II pentanomial: reducible";
        let resp = parse_response(&encode_error(9, msg)).unwrap();
        assert_eq!(resp.id, 9);
        assert!(!resp.ok);
        assert_eq!(resp.error(), Some(msg));
        assert_eq!(resp.report().unwrap_err(), msg);
    }

    #[test]
    fn field_specs_build_fields_or_explain_why_not() {
        assert!(FieldSpec::Pair { m: 8, n: 2 }.build_field().is_ok());
        let err = FieldSpec::Pair { m: 16, n: 2 }.build_field().unwrap_err();
        assert!(err.contains("(16, 2) is not a valid type II pentanomial"));
        // The paper's GF(2^8) modulus, spelled as exponents.
        assert!(FieldSpec::Poly(vec![8, 4, 3, 2, 0]).build_field().is_ok());
        assert!(FieldSpec::Poly(vec![4, 2, 0]).build_field().is_err());
    }
}
