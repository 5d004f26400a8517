//! The synthesis daemon: a long-lived server turning (field, method,
//! target, seed) requests into Table V-grade implementation reports,
//! backed by the in-memory pipeline cache and (optionally) the
//! persistent artifact store.
//!
//! Usage:
//!   rgf2m-served [--tcp HOST:PORT | --unix PATH] [--store DIR] [--workers N]
//!
//!   --tcp HOST:PORT   listen on localhost TCP (default 127.0.0.1:7208;
//!                     port 0 picks a free port, printed on stdout)
//!   --unix PATH       listen on a Unix-domain socket instead
//!   --store DIR       persist reports under DIR (content-addressed
//!                     rgf2m-artifact/2 documents; survives restarts)
//!   --workers N       computation threads (default: one per CPU)
//!
//! Each flag takes one value and may be given once; an unknown flag, a
//! missing value, a repeated flag, a stray argument, or both `--tcp`
//! and `--unix` exits 1 with the usage before anything is bound.
//!
//! The daemon prints one readiness line (`rgf2m-served listening on
//! ...`) once accepting, then serves until a `shutdown` request drains
//! it. Protocol: one JSON object per line — see the `rgf2m_serve`
//! crate docs or README "Serving".

use std::io::Write as _;

use rgf2m_serve::net::Endpoint;
use rgf2m_serve::server::{self, ServerConfig};

const USAGE: &str =
    "usage: rgf2m-served [--tcp HOST:PORT | --unix PATH] [--store DIR] [--workers N]";

fn main() {
    let mut endpoint = None;
    let mut store = None;
    let mut workers = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if !["--tcp", "--unix", "--store", "--workers"].contains(&flag.as_str()) {
            usage_error(&format!("unknown argument {flag:?}"));
        }
        let Some(value) = args.next().filter(|v| !v.starts_with("--")) else {
            usage_error(&format!("{flag} wants a value"))
        };
        let repeated = match flag.as_str() {
            "--tcp" => endpoint.replace(Endpoint::Tcp(value)).is_some(),
            "--unix" => endpoint.replace(Endpoint::Unix(value.into())).is_some(),
            "--store" => store.replace(value).is_some(),
            _ => {
                let n: usize = value
                    .parse()
                    .unwrap_or_else(|_| usage_error("--workers wants an integer"));
                workers.replace(n).is_some()
            }
        };
        if repeated {
            usage_error(&format!(
                "{flag} repeats an earlier flag (give each once, and --tcp or --unix, not both)"
            ));
        }
    }
    let mut config =
        ServerConfig::new(endpoint.unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:7208".into())));
    if let Some(dir) = store {
        config = config.with_store_root(dir);
    }
    if let Some(n) = workers {
        config = config.with_workers(n);
    }

    let handle = server::spawn(config).unwrap_or_else(|e| die(&format!("cannot bind: {e}")));
    println!("rgf2m-served listening on {}", handle.endpoint());
    let _ = std::io::stdout().flush();
    match handle.join() {
        Ok(()) => println!("rgf2m-served: drained, bye"),
        Err(e) => die(&format!("server error: {e}")),
    }
}

fn usage_error(msg: &str) -> ! {
    die(&format!("{msg}\n{USAGE}"))
}

fn die(msg: &str) -> ! {
    eprintln!("rgf2m-served: {msg}");
    std::process::exit(1);
}
