//! Cross-target Table V: the same six multiplier methods implemented on
//! every fabric of the `Target` registry, printed as one grid per field
//! — the "how does each construction fare as k changes" scenario the
//! paper's LUT-decomposition section invites.
//!
//! Run `crosstarget --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag exits 1 before
//! any work.
//!
//! Jobs run target-major over the parallel `BatchRunner` with
//! deterministic per-job seeds, so exports are byte-identical run over
//! run and thread count over thread count. The grid prints, per field
//! and method, `LUTs @ ns` for every target plus each fabric's A×T
//! winner.

use rgf2m_bench::paper_data::PAPER_TABLE_V;
use rgf2m_bench::{cli, cross_target_jobs, rows_to_csv, rows_to_json, BatchRow, BatchRunner};
use rgf2m_core::Method;
use rgf2m_fpga::Target;

fn main() {
    let args = cli::CROSSTARGET.parse();
    let full = args.has("--full");
    let only = args.pair("--only");
    let threads: usize = args.parsed("--threads").unwrap_or(1);

    let fields: Vec<(usize, usize)> = PAPER_TABLE_V
        .iter()
        .map(|b| (b.m, b.n))
        .filter(|&(m, n)| match only {
            Some(pair) => (m, n) == pair,
            None => full || matches!((m, n), (8, 2) | (64, 23)),
        })
        .collect();
    assert!(!fields.is_empty(), "no Table V field matches the filters");

    let jobs = cross_target_jobs(&fields);
    let runner = BatchRunner::new().with_threads(threads);
    eprintln!(
        "running {} jobs: {} field(s) x {} method(s) x {} target(s) ...",
        jobs.len(),
        fields.len(),
        Method::ALL.len(),
        Target::ALL.len()
    );
    let rows = runner.run_rows(&jobs);

    // rows are target-major: rows[t * per_target + f * 6 + m].
    let per_target = fields.len() * Method::ALL.len();
    let row_of = |t: usize, f: usize, m: usize| &rows[t * per_target + f * Method::ALL.len() + m];

    println!("CROSS-TARGET TABLE V — every method on every registered fabric");
    println!("(cells are LUTs @ ns; per-target A×T winner marked below)");
    println!();
    for target in Target::ALL {
        println!(
            "  target {:<12} k={} {:>2} LUTs/slice — {}",
            target.name(),
            target.lut_inputs(),
            target.luts_per_slice(),
            target.description()
        );
    }
    println!();

    let mut failures = 0usize;
    for (f, &(m, n)) in fields.iter().enumerate() {
        println!("  ({m},{n})");
        print!("  {:<12}", "method");
        for target in Target::ALL {
            print!(" {:>18}", target.name());
        }
        println!();
        for (mi, method) in Method::ALL.iter().enumerate() {
            print!("  {:<12}", method.citation());
            for (t, _) in Target::ALL.iter().enumerate() {
                let row = row_of(t, f, mi);
                match &row.result {
                    Ok(r) => print!(" {:>10} @ {:>5.2}", r.luts, r.time_ns),
                    Err(_) => {
                        failures += 1;
                        print!(" {:>18}", "FAILED");
                    }
                }
            }
            println!();
        }
        print!("  {:<12}", "A×T winner");
        for (t, _) in Target::ALL.iter().enumerate() {
            let winner = (0..Method::ALL.len())
                .filter_map(|mi| {
                    row_of(t, f, mi)
                        .result
                        .as_ref()
                        .ok()
                        .map(|r| (Method::ALL[mi].citation(), r.area_time()))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(c, _)| c)
                .unwrap_or("?");
            print!(" {:>18}", winner);
        }
        println!();
        println!();
    }
    report_failures(&rows);

    if let Some(path) = args.value("--json") {
        std::fs::write(path, rows_to_json(&rows, runner.base_seed()))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote JSON report to {path}");
    }
    if let Some(path) = args.value("--csv") {
        std::fs::write(path, rows_to_csv(&rows))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote CSV report to {path}");
    }
    if failures > 0 {
        eprintln!("{failures} job cell(s) failed");
        std::process::exit(1);
    }
}

fn report_failures(rows: &[BatchRow]) {
    for row in rows {
        if let Err(e) = &row.result {
            eprintln!(
                "[{}] ({},{}) {}: {e}",
                row.job.target.name(),
                row.job.m,
                row.job.n,
                row.job.method.name()
            );
        }
    }
}
