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
//! with a message when violated — the CI smoke job's teeth. Each
//! subcommand accepts only its own flags, each with a non-negative
//! integer value: anything else exits 1 with the usage before the
//! daemon is contacted, so a misspelled assertion cannot pass silently.

use rgf2m_core::Method;
use rgf2m_fpga::{place::DEFAULT_SEED, Target};
use rgf2m_serve::client::{Client, ClientJob};
use rgf2m_serve::json::JsonValue;
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::protocol::FieldSpec;

const USAGE: &str = "usage: serve_ctl ENDPOINT synth|stats|shutdown ...";
const SYNTH_USAGE: &str = "usage: serve_ctl ENDPOINT synth M N METHOD [TARGET] [--seed S]";
const STATS_USAGE: &str = "usage: serve_ctl ENDPOINT stats [--min-jobs N] [--min-store-hits N] \
                           [--max-computed N] [--max-generated N] [--min-dedup-waits N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [endpoint, cmd, rest @ ..] = args.as_slice() else {
        die(USAGE)
    };
    let endpoint = Endpoint::parse(endpoint).unwrap_or_else(|e| die(&e));
    // Each subcommand checks its whole command line before connecting.
    let connect =
        || Client::connect(&endpoint).unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
    match cmd.as_str() {
        "synth" => {
            let (positional, flags) = split_flags(rest, &["--seed"], SYNTH_USAGE);
            let (m, n, method, target) = match positional.as_slice() {
                [m, n, method] => (m, n, method, None),
                [m, n, method, target] => (m, n, method, Some(target)),
                _ => die(SYNTH_USAGE),
            };
            let m: usize = m.parse().unwrap_or_else(|_| die("M wants an integer"));
            let n: usize = n.parse().unwrap_or_else(|_| die("N wants an integer"));
            let method = Method::from_name(method)
                .unwrap_or_else(|| die(&format!("unknown method {method:?}")));
            let target = match target {
                None => Target::Artix7,
                Some(t) => {
                    Target::from_name(t).unwrap_or_else(|| die(&format!("unknown target {t:?}")))
                }
            };
            let job = ClientJob {
                field: FieldSpec::Pair { m, n },
                method,
                target,
                seed: flags.last().map_or(DEFAULT_SEED, |&(_, seed)| seed),
            };
            match connect()
                .synth(&job)
                .unwrap_or_else(|e| die(&format!("{e}")))
            {
                Ok((report, source)) => println!("[{source}] {report}"),
                Err(message) => die(&message),
            }
        }
        "stats" => {
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
            let (positional, flags) =
                split_flags(rest, &checks.map(|(flag, ..)| flag), STATS_USAGE);
            if !positional.is_empty() {
                die(STATS_USAGE);
            }
            let doc = connect()
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
            for (i, bound) in flags {
                let (_, path, check, op) = checks[i];
                let v = counter(path);
                if !check(v, bound as f64) {
                    die(&format!(
                        "assertion failed: {} = {v} is not {op} {bound}",
                        path.join(".")
                    ));
                }
            }
        }
        "shutdown" => {
            if !rest.is_empty() {
                die("usage: serve_ctl ENDPOINT shutdown");
            }
            connect()
                .shutdown()
                .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
            println!("shutdown acknowledged");
        }
        other => die(&format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Splits `args` into positionals and `--flag N` pairs, each flag given
/// by its index in `allowed`. Any other flag, or a value that is missing
/// or not a non-negative integer, exits 1 with `usage`.
fn split_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
    usage: &str,
) -> (Vec<&'a str>, Vec<(usize, u64)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        let Some(i) = allowed.iter().position(|f| f == arg) else {
            die(&format!("unknown flag {arg:?}\n{usage}"))
        };
        let Some(value) = args.next().and_then(|v| v.parse().ok()) else {
            die(&format!("{arg} wants a non-negative integer\n{usage}"))
        };
        flags.push((i, value));
    }
    (positional, flags)
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
