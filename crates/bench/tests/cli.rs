//! The bench binaries refuse malformed command lines before any work:
//! `--help` prints the usage and exits 0; an unknown flag, a flag
//! without its value, a value that is another flag or a stray argument
//! exits 1 with the usage on stderr and nothing on stdout. A failure
//! after the command line was accepted exits 1 with one `error:` line,
//! never a panic. The validator takes exactly one path and exits 1 on
//! anything else.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const BINS: [(&str, &str); 5] = [
    ("table5", env!("CARGO_BIN_EXE_table5")),
    ("audit", env!("CARGO_BIN_EXE_audit")),
    ("sta", env!("CARGO_BIN_EXE_sta")),
    ("reveng", env!("CARGO_BIN_EXE_reveng")),
    ("export_blif", env!("CARGO_BIN_EXE_export_blif")),
];

/// The binaries that print a table or an ablation and take no flags.
const NO_FLAG_BINS: [(&str, &str); 7] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
    ("paper", env!("CARGO_BIN_EXE_paper")),
    ("ablation_freedom", env!("CARGO_BIN_EXE_ablation_freedom")),
    ("ablation_sharing", env!("CARGO_BIN_EXE_ablation_sharing")),
];

/// A fresh empty directory of its own for each call, even when tests
/// running in parallel pass the same arguments.
fn fresh_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rgf2m-cli-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe` with `args` in a fresh empty directory, which is returned
/// so a test can check that nothing was written there.
fn run(exe: &str, args: &[&str]) -> (Output, std::path::PathBuf) {
    let dir = fresh_dir();
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (out, dir)
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_usage_and_exits_0() {
    for (name, exe) in BINS {
        let (out, dir) = run(exe, &["--help"]);
        let stdout = text(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        assert!(stdout.starts_with("Usage:\n"), "{name}: {stdout}");
        assert!(stdout.contains(&format!("  {name} --only M,N")), "{name}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn bad_command_lines_exit_1_with_usage_before_any_work() {
    let cases: [(&[&str], &str); 7] = [
        (&["--onyl", "8,2"], "unknown flag --onyl"),
        (&["--format", "vhd"], "unknown flag --format"),
        (&["--only"], "--only needs a value"),
        (&["--only", "--json", "x"], "--only needs a value"),
        (&["--only", "8,2", "extra"], "unexpected argument \"extra\""),
        (&["--only", "8;2"], "--only wants M,N"),
        (&["--only", "8,4"], "--only 8,4 names no"),
    ];
    for (name, exe) in BINS {
        for (args, error) in cases {
            let (out, dir) = run(exe, args);
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} did work");
            assert!(stderr.contains(error), "{name} {args:?}: {stderr}");
            assert!(stderr.contains("Usage:\n"), "{name} {args:?}: {stderr}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

/// Values that pass the flag check but cannot be used: each exits 1
/// with the usage before any work, without a panic.
#[test]
fn unusable_values_exit_1_with_usage_before_any_work() {
    let unknown_target =
        "unknown target \"artix8\"; registered: artix7, spartan3, virtex5, stratix_alm";
    let unknown_method = "unknown method \"bogus\"; registered: mastrovito, rashidi, \
                          reyhani_hasan, imana2012, imana2016, proposed";
    let reducible = "--only 16,2 names no type II pentanomial";
    let cases: [(&str, &[&str], &str); 14] = [
        (
            "table5",
            &["--only", "8,2", "--daemon", "bogus"],
            "--daemon: ",
        ),
        (
            "table5",
            &["--only", "8,2", "--quick"],
            "--only and --quick each choose the fields",
        ),
        ("table5", &["--target", "artix8"], unknown_target),
        ("audit", &["--targets", "artix7,artix8"], unknown_target),
        ("sta", &["--target", "artix8"], unknown_target),
        ("audit", &["--method", "bogus"], unknown_method),
        ("sta", &["--method", "bogus"], unknown_method),
        ("audit", &["--only", "16,2"], reducible),
        ("sta", &["--only", "16,2"], reducible),
        ("export_blif", &["--only", "16,2"], reducible),
        (
            "sta",
            &["--method", "proposed", "--target-ns", "nan"],
            "--target-ns",
        ),
        (
            "sta",
            &["--method", "proposed", "--target-ns", "inf"],
            "--target-ns",
        ),
        (
            "sta",
            &["--method", "proposed", "--target-ns", "-inf"],
            "--target-ns",
        ),
        (
            "export_blif",
            &["--method", "bogus"],
            "unknown method \"bogus\"",
        ),
    ];
    for (name, args, error) in cases {
        let exe = BINS.iter().find(|(n, _)| *n == name).unwrap().1;
        let (out, dir) = run(exe, args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?} did work");
        assert!(stderr.starts_with("error: "), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(error), "{name} {args:?}: {stderr}");
        assert!(stderr.contains("Usage:\n"), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// An accepted command line that cannot be carried out (an unreachable
/// daemon, a report path in a missing directory) exits 1 with exactly
/// one `error:` line, not a panic, and prints nothing on stdout: a
/// report path is checked before the first job runs.
#[test]
fn failures_after_parsing_exit_1_with_one_error_line() {
    let (table5, audit) = (BINS[0].1, BINS[1].1);
    let cases: [(&str, &[&str], &str); 5] = [
        (
            table5,
            &["--only", "8,2", "--daemon", "unix:missing.sock"],
            "error: daemon run via unix:missing.sock failed: ",
        ),
        (
            table5,
            &[
                "--only",
                "8,2",
                "--daemon",
                "unix:missing.sock",
                "--json",
                "out.json",
                "--csv",
                "out.csv",
            ],
            "error: daemon run via unix:missing.sock failed: ",
        ),
        (
            table5,
            &["--only", "8,2", "--json", "missing/out.json"],
            "error: cannot write missing/out.json: ",
        ),
        (
            table5,
            &["--only", "8,2", "--csv", "missing/out.csv"],
            "error: cannot write missing/out.csv: ",
        ),
        (
            audit,
            &["--only", "8,2", "--json", "missing/out.json"],
            "error: cannot write missing/out.json: ",
        ),
    ];
    for (exe, args, error) in cases {
        let (out, dir) = run(exe, args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].starts_with(error), "{args:?}: {stderr}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{args:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn no_flag_bins_print_usage_on_help_and_refuse_everything_else() {
    for (name, exe) in NO_FLAG_BINS {
        let (out, dir) = run(exe, &["--help"]);
        let stdout = text(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        assert!(stdout.starts_with("Usage:\n"), "{name}: {stdout}");
        assert!(stdout.contains(name), "{name}: {stdout}");
        std::fs::remove_dir_all(dir).unwrap();
        for args in [&["--bogus"][..], &["extra"]] {
            let (out, dir) = run(exe, args);
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} did work");
            assert!(stderr.contains("Usage:\n"), "{name} {args:?}: {stderr}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

#[test]
fn validators_take_exactly_one_path() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let exe = env!("CARGO_BIN_EXE_validate");
    for sample in ["TABLE5_sample.json", "AUDIT_sample.json"] {
        let sample = format!("{root}/{sample}");
        let (out, dir) = run(exe, &[&sample]);
        assert_eq!(out.status.code(), Some(0), "validate {sample}");
        assert!(text(&out.stdout).contains(": OK — "), "validate {sample}");
        std::fs::remove_dir_all(dir).unwrap();
        for args in [&[][..], &[&sample, "extra"]] {
            let (out, dir) = run(exe, args);
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "validate {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "validate {args:?}");
            assert!(stderr.contains("usage: validate PATH"), "{stderr}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
    // A document of any other schema is refused, naming the two it takes.
    let docs = fresh_dir();
    let other = docs.join("other.json");
    std::fs::write(&other, r#"{"schema": "rgf2m-table5/4", "rows": []}"#).unwrap();
    let (out, dir) = run(exe, &[other.to_str().unwrap()]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "validate accepted {stderr}");
    assert!(
        stderr.contains("INVALID — schema \"rgf2m-table5/4\", expected"),
        "{stderr}"
    );
    std::fs::remove_dir_all(dir).unwrap();
    std::fs::remove_dir_all(docs).unwrap();
}

/// The misuses CI guards against: a report flag followed by another
/// flag writes no file named after it, and a misspelled field filter
/// does not run the whole grid.
#[test]
fn report_flags_never_swallow_another_flag() {
    let table5 = BINS[0].1;
    for args in [
        &["--only", "8,2", "--json", "--csv", "out.csv"][..],
        &["--onyl", "8,2"],
        &["--only", "8,2", "--target", "--all-targets"],
    ] {
        let (out, dir) = run(table5, args);
        assert_eq!(out.status.code(), Some(1), "table5 {args:?}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{args:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }
    let (out, dir) = run(BINS[1].1, &["--only", "8,2", "--json"]);
    assert_eq!(out.status.code(), Some(1), "audit --json with no path");
    std::fs::remove_dir_all(dir).unwrap();
    let (out, dir) = run(table5, &["--target", "artix8"]);
    assert_eq!(out.status.code(), Some(1), "table5 --target artix8");
    assert!(text(&out.stderr).contains("unknown target \"artix8\""));
    std::fs::remove_dir_all(dir).unwrap();
}

/// A reader that stops early (`sta | head -1`) ends the run quietly:
/// no panic on the closed stdout, and the status a shell gives a tool
/// killed by SIGPIPE.
#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let dir = fresh_dir();
    let mut child = Command::new(BINS[2].1)
        .args(["--only", "64,23", "--all-targets"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.starts_with("STA over GF(2^64)"), "{line}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert_eq!(
        status.code(),
        Some(rgf2m_bench::cli::CLOSED_STDOUT_STATUS),
        "{stderr}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn paper_exits_nonzero_naming_each_table_it_could_not_run() {
    // A copy of `paper` without its sibling table binaries: every table
    // fails to start, and no table runs.
    let dir = fresh_dir();
    let exe = dir.join("paper");
    std::fs::copy(env!("CARGO_BIN_EXE_paper"), &exe).unwrap();
    // A child another test forks while the copy is being written holds
    // it open until its own exec, which makes ours fail with "text file
    // busy": retry until that child lets go.
    let out = (0..100)
        .find_map(|_| match Command::new(&exe).current_dir(&dir).output() {
            Err(e) if e.kind() == std::io::ErrorKind::ExecutableFileBusy => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                None
            }
            out => Some(out.unwrap()),
        })
        .expect("the copied binary stays busy");
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("failed table(s): table1, table2, table3, table4, table5"),
        "{stderr}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}
