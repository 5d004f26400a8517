//! Control/CI client for `rgf2m-served`: one-shot synth jobs, stats
//! with built-in assertions, and graceful shutdown.
//!
//! Usage:
//!
//! ```text
//! serve_ctl ENDPOINT synth M N METHOD [TARGET] [--seed S]
//! serve_ctl ENDPOINT stats [--min-jobs N] [--min-store-hits N]
//!                          [--max-computed N] [--max-generated N]
//!                          [--min-dedup-waits N]
//! serve_ctl ENDPOINT shutdown
//! ```
//!
//! `ENDPOINT` is `unix:PATH` or `HOST:PORT`. `stats` prints the raw
//! stats JSON line; each assertion flag checks one counter and exits 1
//! with a message when violated — the CI smoke job's teeth.

use rgf2m_core::Method;
use rgf2m_fpga::Target;
use rgf2m_serve::client::{Client, ClientJob};
use rgf2m_serve::json::JsonValue;
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::protocol::{FieldSpec, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (endpoint, cmd) = match args.as_slice() {
        [endpoint, cmd, ..] => (endpoint.clone(), cmd.clone()),
        _ => die("usage: serve_ctl ENDPOINT synth|stats|shutdown ..."),
    };
    let endpoint = Endpoint::parse(&endpoint).unwrap_or_else(|e| die(&e));
    let mut client =
        Client::connect(&endpoint).unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
    let rest = &args[2..];
    let arg_value = |key: &str| {
        rest.iter()
            .position(|a| a == key)
            .and_then(|i| rest.get(i + 1).cloned())
    };
    match cmd.as_str() {
        "synth" => {
            let [m, n, method, ..] = rest else {
                die("usage: serve_ctl ENDPOINT synth M N METHOD [TARGET] [--seed S]")
            };
            let m: usize = m.parse().unwrap_or_else(|_| die("M wants an integer"));
            let n: usize = n.parse().unwrap_or_else(|_| die("N wants an integer"));
            let method = Method::from_name(method)
                .unwrap_or_else(|| die(&format!("unknown method {method:?}")));
            let target = match rest.get(3).filter(|t| !t.starts_with("--")) {
                None => Target::Artix7,
                Some(t) => {
                    Target::from_name(t).unwrap_or_else(|| die(&format!("unknown target {t:?}")))
                }
            };
            let seed = match arg_value("--seed") {
                None => DEFAULT_SEED,
                Some(s) => s.parse().unwrap_or_else(|_| die("--seed wants an integer")),
            };
            let job = ClientJob {
                field: FieldSpec::Pair { m, n },
                method,
                target,
                seed,
            };
            match client.synth(&job).unwrap_or_else(|e| die(&format!("{e}"))) {
                Ok((report, source)) => println!("[{source}] {report}"),
                Err(message) => die(&message),
            }
        }
        "stats" => {
            let doc = client
                .stats()
                .unwrap_or_else(|e| die(&format!("stats failed: {e}")));
            println!("{}", render(&doc));
            let counter = |path: &[&str]| -> f64 {
                let mut v = &doc;
                for key in path {
                    v = v.get(key).unwrap_or_else(|| {
                        die(&format!("stats response lacks \"{}\"", path.join(".")))
                    });
                }
                v.as_f64()
                    .unwrap_or_else(|| die(&format!("\"{}\" is not a number", path.join("."))))
            };
            type Check = (
                &'static str,
                &'static [&'static str],
                fn(f64, f64) -> bool,
                &'static str,
            );
            let checks: [Check; 5] = [
                ("--min-jobs", &["jobs_ok"], |v, n| v >= n, ">="),
                ("--min-store-hits", &["store", "hits"], |v, n| v >= n, ">="),
                ("--max-computed", &["computed"], |v, n| v <= n, "<="),
                (
                    "--max-generated",
                    &["timings", "generate", "count"],
                    |v, n| v <= n,
                    "<=",
                ),
                ("--min-dedup-waits", &["dedup_waits"], |v, n| v >= n, ">="),
            ];
            for (flag, path, check, op) in checks {
                if let Some(bound) = arg_value(flag) {
                    let bound: f64 = bound
                        .parse()
                        .unwrap_or_else(|_| die(&format!("{flag} wants a number")));
                    let v = counter(path);
                    if !check(v, bound) {
                        die(&format!(
                            "assertion failed: {} = {v} is not {op} {bound}",
                            path.join(".")
                        ));
                    }
                }
            }
        }
        "shutdown" => {
            client
                .shutdown()
                .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
            println!("shutdown acknowledged");
        }
        other => die(&format!("unknown command {other:?}")),
    }
}

/// Re-renders a parsed JSON value compactly (stats echo).
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => n.to_string(),
        JsonValue::Str(s) => rgf2m_serve::json::json_string(s),
        JsonValue::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(", ")
        ),
        JsonValue::Obj(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", rgf2m_serve::json::json_string(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("serve_ctl: {msg}");
    std::process::exit(1);
}
