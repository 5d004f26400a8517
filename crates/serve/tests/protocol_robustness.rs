//! Nothing a client sends may crash the daemon: `parse_request` must
//! answer every line — random bytes, truncated valid requests, deep
//! nesting, huge numbers and exponents — with `Ok` or a typed `Err`,
//! and a field a parsed request names must build or explain why not
//! (the daemon's next step), never panic.

use proptest::prelude::*;
use rgf2m_core::Method;
use rgf2m_fpga::Target;
use rgf2m_serve::json::parse_json;
use rgf2m_serve::protocol::{encode_request, parse_request};
use rgf2m_serve::{FieldSpec, Request, SynthRequest};

/// Parses `line` and, for a synth request, builds its field.
fn survives(line: &str) -> Result<(), TestCaseError> {
    if let Ok(Request::Synth(req)) = parse_request(line) {
        let _ = req.field.build_field();
    }
    Ok(())
}

/// Numbers that stress the reader's `f64` path and the integer
/// conversions behind it.
const NASTY_NUMBERS: [&str; 18] = [
    "0",
    "-0",
    "-1",
    "0.5",
    "1e999999999",
    "-1e999999999",
    "1e-400",
    "1E+19",
    "4.2e1",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "1.7976931348623157e308",
    "--1",
    "1e",
    ".",
    "+5",
];

fn arb_number() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..NASTY_NUMBERS.len()).prop_map(|i| NASTY_NUMBERS[i].to_string()),
        any::<u64>().prop_map(|v| v.to_string()),
        (1usize..400).prop_map(|n| "9".repeat(n)),
        (0u32..640).prop_map(|v| v.to_string()),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    let field = prop_oneof![
        (0usize..700, 0usize..400).prop_map(|(m, n)| FieldSpec::Pair { m, n }),
        proptest::collection::vec(0usize..700, 0..6).prop_map(FieldSpec::Poly),
    ];
    // Ids above 2^53 do not survive a JSON number exactly.
    let id = prop_oneof![0u64..1 << 53, any::<u64>()];
    (
        id,
        field,
        0usize..Method::ALL.len(),
        0usize..Target::ALL.len(),
        any::<u64>(),
        0u8..3,
    )
        .prop_map(|(id, field, method, target, seed, op)| match op {
            0 => Request::Stats { id },
            1 => Request::Shutdown { id },
            _ => Request::Synth(SynthRequest {
                id,
                field,
                method: Method::ALL[method],
                target: Target::ALL[target],
                seed,
            }),
        })
}

/// Characters a JSON reader branches on, so random lines reach deep.
const JSONISH: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \\/u\"opsynthidmpolyseedtarget";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        survives(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn jsonish_noise_never_panics(picks in proptest::collection::vec(0usize..JSONISH.len(), 0..120)) {
        let line: String = picks.iter().map(|&i| JSONISH[i] as char).collect();
        survives(&line)?;
    }

    #[test]
    fn truncated_requests_never_panic(req in arb_request(), cut in any::<usize>()) {
        let line = encode_request(&req);
        // The whole line parses back to the request it encodes, when
        // that is valid and its id fits a JSON number exactly.
        if let Request::Synth(SynthRequest { id, field: FieldSpec::Pair { m, .. }, .. }) = &req {
            if *m <= 571 && *id <= 1 << 53 {
                prop_assert_eq!(parse_request(&line), Ok(req.clone()));
            }
        }
        let mut end = cut % (line.len() + 1);
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        survives(&line[..end])?;
    }

    #[test]
    fn huge_numbers_never_panic(
        values in proptest::collection::vec(arb_number(), 6),
        method in 0usize..Method::ALL.len(),
    ) {
        let [id, m, n, seed, e0, e1] = <[String; 6]>::try_from(values).unwrap();
        let method = Method::ALL[method].name();
        for line in [
            format!(r#"{{"op": "synth", "id": {id}, "m": {m}, "n": {n}, "method": "{method}", "seed": {seed}}}"#),
            format!(r#"{{"op": "synth", "id": {id}, "poly": [{e0}, {e1}, 0], "method": "{method}"}}"#),
            format!(r#"{{"op": "synth", "m": {m}, "n": {n}, "method": "{method}", "seed": "{seed}"}}"#),
            format!(r#"{{"op": "stats", "id": {id}}}"#),
        ] {
            survives(&line)?;
        }
    }

    #[test]
    fn deep_nesting_never_panics(depth in 0usize..4000, kind in 0u8..4, closed in any::<bool>()) {
        let (open, close) = match kind {
            0 => ("[", "]"),
            1 => ("{\"op\": ", "}"),
            2 => ("{\"poly\": [", "]}"),
            _ => ("[{\"a\": ", "}]"),
        };
        let mut line = open.repeat(depth);
        line.push('1');
        if closed {
            line.push_str(&close.repeat(depth));
        }
        survives(&line)?;
    }
}

#[test]
fn out_of_range_pentanomial_offsets_are_errors() {
    // `n` far past `m / 2`, up to the widest integer a JSON number
    // converts to: a typed refusal, not an overflow.
    for n in ["300", "9007199254740992", "18446744073709551615", "1e300"] {
        let line = format!(r#"{{"op": "synth", "m": 163, "n": {n}, "method": "proposed"}}"#);
        match parse_request(&line) {
            Ok(Request::Synth(req)) => assert!(req.field.build_field().is_err(), "{line}"),
            other => assert!(other.is_err(), "{line}: {other:?}"),
        }
    }
}

#[test]
fn numbers_and_escapes_outside_rfc_8259_are_refused() {
    // The reader once passed these to `f64::from_str` and
    // `u32::from_str_radix`, which accept a sign, bare dots and short
    // forms that no JSON writer emits.
    assert_eq!(parse_json("+1").ok(), None);
    assert_eq!(parse_json(r#""\u+041""#).ok(), None);
    let valid = r#"{"op": "synth", "id": 1, "m": 8, "n": 2, "method": "\u0070roposed"}"#;
    assert!(matches!(parse_request(valid), Ok(Request::Synth(_))));
    for (member, bad) in [
        ("\"id\": 1", "\"id\": +1"),
        ("\"m\": 8", "\"m\": 08"),
        ("\"m\": 8", "\"m\": 8."),
        ("\"m\": 8", "\"m\": 8e"),
        ("\"n\": 2", "\"n\": .2e1"),
        ("\"n\": 2", "\"n\": 2.e0"),
        ("\\u0070", "\\u+070"),
        ("\\u0070", "\\u070"),
        ("\\u0070", "\\u 070"),
    ] {
        let line = valid.replace(member, bad);
        assert_ne!(line, valid);
        assert!(parse_request(&line).is_err(), "{line} parsed");
    }
}
