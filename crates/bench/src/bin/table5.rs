//! Regenerates Table V of the paper: post-"place-and-route" comparison
//! of six GF(2^m) multiplier methods over nine type II pentanomial
//! fields, through the `rgf2m-fpga` flow (our stand-in for ISE/XST —
//! see the README's "Targets", "Placement" and "Timing" sections), on
//! any registered target fabric.
//!
//! Run `table5 --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag exits 1 before
//! any work.
//!
//! The run fans (field × method × target) jobs over the parallel
//! `BatchRunner` with deterministic per-job seeds: the printed numbers
//! — and the exported JSON bytes — are identical run over run for a
//! fixed base seed, whatever `--threads` says. `--daemon` preserves
//! that byte-for-byte (same per-job seeds, same pipeline defaults)
//! while letting the daemon's memory and artifact store absorb repeat
//! work. For every field the
//! measured block is printed next to the paper's published numbers
//! (artix7 only — the paper measured on that fabric), followed by shape
//! checks (who wins A×T, proposed vs \[7\]).

use std::fs::File;
use std::io::Write as _;

use rgf2m_bench::paper_data::PAPER_TABLE_V;
use rgf2m_bench::{
    cli, format_field_block, rows_to_csv, rows_to_json, run_rows_via_daemon, table_v_jobs_on,
    BatchRunner, MeasuredRow,
};
use rgf2m_core::Method;
use rgf2m_fpga::Target;
use rgf2m_serve::net::Endpoint;

fn main() {
    let args = cli::TABLE5.parse();
    let quick = args.has("--quick");
    let only = args.pair("--only");
    let threads: usize = args.parsed("--threads").unwrap_or(1);
    let targets: Vec<Target> = if args.has("--all-targets") {
        Target::ALL.to_vec()
    } else {
        let name = args.value("--target").unwrap_or("artix7");
        vec![Target::from_name(name).unwrap_or_else(|| {
            args.fail(&format!(
                "unknown target {name:?}; registered: {}",
                Target::ALL.map(|t| t.name()).join(", ")
            ))
        })]
    };

    let fields: Vec<(usize, usize)> = PAPER_TABLE_V
        .iter()
        .map(|b| (b.m, b.n))
        .filter(|&(m, n)| match only {
            Some(pair) => (m, n) == pair,
            None => !quick || matches!((m, n), (8, 2) | (64, 23)),
        })
        .collect();
    if let Some((m, n)) = only.filter(|_| fields.is_empty()) {
        args.fail(&format!("--only {m},{n} names no Table V field"));
    }
    let daemon = args
        .value("--daemon")
        .map(|ep| Endpoint::parse(ep).unwrap_or_else(|e| args.fail(&format!("--daemon: {e}"))));

    // Report paths are opened before the first job, so one that cannot
    // be written fails the run before it spends any time.
    let create = |path: &str| {
        File::create(path).unwrap_or_else(|e| cli::die(&format!("cannot write {path}: {e}")))
    };
    let json = args.value("--json").map(|path| (path, create(path)));
    let csv = args.value("--csv").map(|path| (path, create(path)));

    let runner = BatchRunner::new().with_threads(threads);
    let jobs: Vec<_> = targets
        .iter()
        .flat_map(|&t| table_v_jobs_on(&fields, t))
        .collect();
    eprintln!(
        "running {} jobs over {} field(s) on {} target(s) ...",
        jobs.len(),
        fields.len(),
        targets.len()
    );
    let rows = match daemon {
        None => runner.run_rows(&jobs),
        Some(endpoint) => {
            run_rows_via_daemon(&endpoint, &jobs, runner.base_seed()).unwrap_or_else(|e| {
                // No report comes of this run: drop the files opened for it.
                for (path, _) in json.iter().chain(&csv) {
                    let _ = std::fs::remove_file(path);
                }
                cli::die(&format!("daemon run via {endpoint} failed: {e}"))
            })
        }
    };

    println!("TABLE V — COMPARISON OF GF(2^m) MULTIPLIERS");
    println!("(measured by the rgf2m-fpga flow; paper values from ISE 14.7 / Artix-7)");
    println!();
    let mut failures = 0usize;
    let rows_per_target = fields.len() * Method::ALL.len();
    for (target_rows, &target) in rows.chunks(rows_per_target).zip(&targets) {
        println!("#### target: {} — {}", target.name(), target.description());
        println!();
        let mut our_axt_wins_for_this_work = 0usize;
        let mut proposed_beats_paren = 0usize;
        for (block_rows, &(m, n)) in target_rows.chunks(Method::ALL.len()).zip(&fields) {
            let measured: Vec<MeasuredRow> =
                block_rows.iter().filter_map(MeasuredRow::of).collect();
            for row in block_rows {
                if let Err(e) = &row.result {
                    failures += 1;
                    eprintln!(
                        "[{}] ({m},{n}) {}: {e}",
                        target.name(),
                        row.job.method.name()
                    );
                }
            }
            println!("== measured ==");
            print!("{}", format_field_block(m, n, &measured));
            if target == Target::Artix7 {
                if let Some(paper) = PAPER_TABLE_V.iter().find(|b| (b.m, b.n) == (m, n)) {
                    println!("== paper ==");
                    for p in &paper.rows {
                        println!(
                            "  {:<10} {:>6} {:>7} {:>9.2} {:>11.2}",
                            p.citation,
                            p.luts,
                            p.slices,
                            p.time_ns,
                            p.area_time()
                        );
                    }
                }
            }
            let winner = axt_winner(&measured);
            println!("  measured A×T winner: {winner}");
            if winner == "This work" {
                our_axt_wins_for_this_work += 1;
            }
            let paren = measured.iter().find(|r| r.citation == "[7]");
            let tw = measured.iter().find(|r| r.citation == "This work");
            if let (Some(paren), Some(tw)) = (paren, tw) {
                if tw.area_time() < paren.area_time() {
                    proposed_beats_paren += 1;
                }
            }
            println!();
        }
        let fields_run = fields.len();
        println!(
            "shape summary for {} over {fields_run} fields:",
            target.name()
        );
        println!(
            "  'This work' A×T wins: {our_axt_wins_for_this_work}/{fields_run} (paper, artix7: 7/9)"
        );
        println!(
            "  proposed beats [7] (parenthesised) on A×T: {proposed_beats_paren}/{fields_run} (paper, artix7: 9/9)"
        );
        println!();
    }

    if let Some((path, mut file)) = json {
        file.write_all(rows_to_json(&rows, runner.base_seed()).as_bytes())
            .unwrap_or_else(|e| cli::die(&format!("cannot write {path}: {e}")));
        println!("wrote JSON report to {path}");
    }
    if let Some((path, mut file)) = csv {
        file.write_all(rows_to_csv(&rows).as_bytes())
            .unwrap_or_else(|e| cli::die(&format!("cannot write {path}: {e}")));
        println!("wrote CSV report to {path}");
    }
    if failures > 0 {
        eprintln!("{failures} job(s) failed");
        std::process::exit(1);
    }
}

fn axt_winner(rows: &[MeasuredRow]) -> &'static str {
    rows.iter()
        .min_by(|a, b| a.area_time().partial_cmp(&b.area_time()).unwrap())
        .map(|r| r.citation)
        .unwrap_or("?")
}
