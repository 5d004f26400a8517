//! The `serve_ctl` binary against an in-process daemon: each subcommand
//! takes only its own flags, each with an integer value, and everything
//! else exits 1 with a usage message instead of being ignored.

use std::process::{Command, Output};

use rgf2m_serve::net::Endpoint;
use rgf2m_serve::server::{self, ServerConfig};

fn serve_ctl(endpoint: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve_ctl"))
        .arg(endpoint)
        .args(args)
        .output()
        .expect("serve_ctl runs")
}

/// Asserts that `args` exit 1 and that stderr names the problem.
fn refused(endpoint: &str, args: &[&str], why: &str) {
    let out = serve_ctl(endpoint, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: serve_ctl"), "{args:?}: {stderr}");
}

/// Command lines `serve_ctl` must refuse, each with what its message
/// names.
const REFUSED: &[(&[&str], &str)] = &[
    (&["stats", "--max-generatd", "0"], "unknown flag"),
    (
        &["stats", "--max-generatd", "0", "--min-jobs"],
        "unknown flag",
    ),
    (&["stats", "--min-jobs"], "--min-jobs wants"),
    (
        &["stats", "--min-jobs", "--max-computed", "0"],
        "--min-jobs wants",
    ),
    (&["stats", "--max-computed", "x"], "--max-computed wants"),
    (&["stats", "--max-computed", "-1"], "--max-computed wants"),
    (&["stats", "--seed", "1"], "unknown flag"),
    (&["stats", "extra"], "usage"),
    (
        &["synth", "8", "2", "proposed", "--sed", "3"],
        "unknown flag",
    ),
    (&["synth", "8", "2", "proposed", "--seed"], "--seed wants"),
    (
        &["synth", "8", "2", "proposed", "--min-jobs", "1"],
        "unknown flag",
    ),
    (&["synth", "8", "2", "proposed", "artix7", "x"], "usage"),
    (
        &["synth", "8", "2", "bogus"],
        "unknown method \"bogus\"; registered: mastrovito, rashidi, reyhani_hasan, \
         imana2012, imana2016, proposed",
    ),
    (
        &["synth", "8", "2", "proposed", "artix8"],
        "unknown target \"artix8\"; registered: artix7, spartan3, virtex5, stratix_alm",
    ),
    (&["shutdown", "--now"], "usage"),
    (&["restart"], "unknown command"),
];

#[test]
fn bad_flags_exit_1_and_good_ones_still_check() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let endpoint = &handle.endpoint().to_string();

    for &(args, why) in REFUSED {
        refused(endpoint, args, why);
    }

    // The daemon is still up, and the valid flags still check.
    let out = serve_ctl(
        endpoint,
        &["synth", "8", "2", "proposed", "artix7", "--seed", "5"],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("[computed]"));
    let ok = serve_ctl(
        endpoint,
        &["stats", "--min-jobs", "1", "--max-generated", "1"],
    );
    assert!(ok.status.success(), "{ok:?}");
    let violated = serve_ctl(endpoint, &["stats", "--max-generated", "0"]);
    assert_eq!(violated.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&violated.stderr).contains("assertion failed"));

    assert!(serve_ctl(endpoint, &["shutdown"]).status.success());
    handle.join().unwrap();
}
