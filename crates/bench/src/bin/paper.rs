//! Prints every table of the paper in sequence (Tables I–IV symbolic,
//! Table V measured in `--quick` mode, via the registry-driven batch
//! runner). The one-stop harness binary. For machine-readable Table V
//! output, run `table5 --json PATH` directly. Exits 1, naming each
//! failed table, if any table binary fails or cannot be started.

use std::process::Command;

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()));
    let Some(dir) = exe_dir else {
        eprintln!("cannot locate sibling table binaries");
        std::process::exit(1);
    };
    let mut failed = Vec::new();
    for (bin, args) in [
        ("table1", vec![]),
        ("table2", vec![]),
        ("table3", vec![]),
        ("table4", vec![]),
        ("table5", vec!["--quick"]),
    ] {
        let path = dir.join(bin);
        println!("\n════════════════════════════════════════════════════════");
        match Command::new(&path).args(&args).status() {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!(
                "failed to run {}: {e} (build all bins first)",
                path.display()
            ),
        }
        failed.push(bin);
    }
    if !failed.is_empty() {
        eprintln!("failed table(s): {}", failed.join(", "));
        std::process::exit(1);
    }
}
