//! The `rgf2m-served` binary refuses a command line it does not fully
//! understand: it exits 1 with the usage before binding, instead of
//! serving with a flag silently ignored. Each run is killed after a
//! deadline, so a daemon that starts serving fails the test rather
//! than hanging it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rgf2m_serve::client::Client;
use rgf2m_serve::net::Endpoint;

fn served(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_rgf2m-served"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rgf2m-served starts")
}

/// Asserts that `args` exit 1 within 10 s, naming `why` and the usage.
fn refused(args: &[&str], why: &str) {
    let mut child = served(args);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} was accepted: still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: rgf2m-served"), "{args:?}: {stderr}");
}

#[test]
fn bad_command_lines_exit_1_before_binding() {
    let store = std::env::temp_dir().join(format!("rgf2m-served-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store = store.to_str().unwrap();
    let tcp = "127.0.0.1:0";
    let cases: &[(&[&str], &str)] = &[
        (&["--stroe", store], "unknown argument \"--stroe\""),
        (&["--tcp", tcp, "--stroe", store], "unknown argument"),
        (&["--workers"], "--workers wants a value"),
        (&["--workers", "--store", store], "--workers wants a value"),
        (&["--workers", "x"], "--workers wants an integer"),
        (&["--store", store, "--store", store], "--store repeats"),
        (&["--tcp", tcp, "--tcp", tcp], "--tcp repeats"),
        (
            &["--tcp", tcp, "--unix", "/tmp/unused.sock"],
            "--unix repeats",
        ),
        (&["serve"], "unknown argument \"serve\""),
        (&["--tcp", tcp, "extra"], "unknown argument \"extra\""),
    ];
    for &(args, why) in cases {
        refused(args, why);
    }
    assert!(
        !std::path::Path::new(store).exists(),
        "a refused command line created its store"
    );
}

#[test]
fn a_full_command_line_still_serves() {
    let store = std::env::temp_dir().join(format!("rgf2m-served-ok-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut child = served(&[
        "--workers",
        "1",
        "--store",
        store.to_str().unwrap(),
        "--tcp",
        "127.0.0.1:0",
    ]);
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    let Some(addr) = ready.trim().strip_prefix("rgf2m-served listening on ") else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("no readiness line: {ready:?}");
    };
    let endpoint = Endpoint::parse(addr).unwrap();
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    assert!(child.wait().unwrap().success());
    assert!(store.is_dir());
    let _ = std::fs::remove_dir_all(&store);
}
