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
//! `BatchRunner`, which places every cell with the one default seed
//! that `sta` uses too: a cell's printed numbers — and its exported
//! JSON row — are the same run over run, whatever `--threads` says and
//! whichever fields `--only` or `--quick` chose. `--daemon` preserves
//! that byte-for-byte (same seed, same pipeline defaults) while letting
//! the daemon's memory and artifact store absorb repeat work. For every
//! field the
//! measured block is printed next to the paper's published numbers
//! (artix7 only — the paper measured on that fabric), and each target
//! ends with a shape summary: how often 'This work' wins A×T and beats
//! \[7\], next to the paper's counts over the same fields, all by the
//! one rule `paper_data::axt_verdict`.

use rgf2m_bench::paper_data::{axt_verdict, AxtVerdict, PaperBlock, PaperRow, PAPER_TABLE_V};
use rgf2m_bench::{
    cli, format_field_block, rows_to_csv, rows_to_json, run_rows_via_daemon, table_v_jobs_on,
    BatchRow, BatchRunner,
};
use rgf2m_core::Method;
use rgf2m_fpga::Target;
use rgf2m_serve::net::Endpoint;

fn main() {
    let args = cli::TABLE5.parse();
    let fields = if args.has("--quick") {
        if args.value("--only").is_some() {
            args.fail("--only and --quick each choose the fields; give one");
        }
        vec![(8, 2), (64, 23)]
    } else {
        args.table_v_fields()
    };
    let threads: usize = args.parsed("--threads").unwrap_or(1);
    let targets = args.targets();

    let blocks: Vec<&PaperBlock> = fields
        .iter()
        .map(|&field| {
            PAPER_TABLE_V
                .iter()
                .find(|b| (b.m, b.n) == field)
                .expect("PAPER_TABLE_V has a block for every Table V field")
        })
        .collect();
    let daemon = args
        .value("--daemon")
        .map(|ep| Endpoint::parse(ep).unwrap_or_else(|e| args.fail(&format!("--daemon: {e}"))));
    let json = args.report("--json");
    let csv = args.report("--csv");

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
        None => BatchRunner::new().with_threads(threads).run_rows(&jobs),
        Some(endpoint) => run_rows_via_daemon(&endpoint, &jobs).unwrap_or_else(|e| {
            // No report comes of this run: drop the files opened for it.
            for report in json.iter().chain(&csv) {
                let _ = std::fs::remove_file(report.path);
            }
            cli::die(&format!("daemon run via {endpoint} failed: {e}"))
        }),
    };

    println!("TABLE V — COMPARISON OF GF(2^m) MULTIPLIERS");
    println!("(measured by the rgf2m-fpga flow; paper values from ISE 14.7 / Artix-7)");
    println!();
    let fields_run = blocks.len();
    // 'This work' A×T wins and wins over [7], out of the fields run.
    let tally = |verdicts: &[AxtVerdict]| {
        (
            verdicts.iter().filter(|v| v.this_work_wins()).count(),
            verdicts.iter().filter(|v| v.beats_paren).count(),
        )
    };
    let (paper_wins, paper_beats) = tally(
        &blocks
            .iter()
            .map(|b| axt_verdict(&b.rows))
            .collect::<Vec<_>>(),
    );
    let mut failures = 0usize;
    for (target_rows, &target) in rows.chunks(fields_run * Method::ALL.len()).zip(&targets) {
        println!("#### target: {} — {}", target.name(), target.description());
        println!();
        let mut measured_verdicts = Vec::with_capacity(fields_run);
        for (block_rows, block) in target_rows.chunks(Method::ALL.len()).zip(&blocks) {
            let (m, n) = (block.m, block.n);
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
            let measured: Vec<PaperRow> = block_rows
                .iter()
                .filter_map(BatchRow::table_v_row)
                .collect();
            println!("== measured ==");
            print!("{}", format_field_block(m, n, &measured));
            if target == Target::Artix7 {
                println!("== paper ==");
                print!("{}", format_field_block(m, n, &block.rows));
            }
            let verdict = axt_verdict(&measured);
            println!("  measured A×T winner: {}", verdict.winner.unwrap_or("?"));
            measured_verdicts.push(verdict);
            println!();
        }
        let (wins, beats) = tally(&measured_verdicts);
        println!(
            "shape summary for {} over {fields_run} fields:",
            target.name()
        );
        println!("  'This work' A×T wins: {wins}/{fields_run} (paper, artix7: {paper_wins}/{fields_run})");
        println!(
            "  proposed beats [7] (parenthesised) on A×T: {beats}/{fields_run} (paper, artix7: {paper_beats}/{fields_run})"
        );
        println!();
    }

    if let Some(report) = json {
        let path = report.path;
        report.write(&rows_to_json(&rows));
        println!("wrote JSON report to {path}");
    }
    if let Some(report) = csv {
        let path = report.path;
        report.write(&rows_to_csv(&rows));
        println!("wrote CSV report to {path}");
    }
    if failures > 0 {
        eprintln!("{failures} job(s) failed");
        std::process::exit(1);
    }
}
