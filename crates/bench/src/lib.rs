//! The library behind the table-regeneration and audit binaries.
//!
//! The Table V method set comes from the unified registry
//! ([`rgf2m_core::Method::ALL`], paper row order) and the fabric set
//! from the target registry ([`rgf2m_fpga::Target::ALL`]); this crate
//! adds the paper's published numbers and the A×T rule that judges
//! them and ours alike ([`paper_data`]), the parallel
//! [`BatchRunner`] ([`batch`]), the structured JSON/CSV report writers
//! ([`report`]), daemon-backed execution against a running
//! `rgf2m-served` ([`daemon`]), the
//! unified static-analysis gate ([`audit`]) and the strict command
//! lines of the binaries ([`cli`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod cli;
pub mod daemon;
pub mod paper_data;
pub mod report;

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use paper_data::PaperRow;
use rgf2m_fpga::Pipeline;

pub use audit::{
    audit_to_json, run_audit, validate_audit_json, AuditCell, AuditCheck, AuditOptions,
    AuditReport, Fault, AUDIT_SCHEMA,
};
pub use batch::{job_seed_from, table_v_jobs, table_v_jobs_on, BatchRow, BatchRunner, Job};
pub use daemon::run_rows_via_daemon;
pub use report::{rows_to_csv, rows_to_json, validate_table5_json, TABLE5_SCHEMA};

/// Builds the field for a Table V `(m, n)` pair.
///
/// # Panics
///
/// Panics if the pair is not a valid type II pentanomial. (The
/// [`BatchRunner`] path reports invalid pairs as
/// `Err(FlowError::InvalidOptions)` instead.)
pub fn field_for(m: usize, n: usize) -> Field {
    Field::from_pentanomial(
        &TypeIiPentanomial::new(m, n)
            .unwrap_or_else(|e| panic!("invalid Table V pair ({m},{n}): {e}")),
    )
}

/// Formats a field block, measured or published, in the paper's
/// Table V layout.
pub fn format_field_block(m: usize, n: usize, rows: &[PaperRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "  ({m},{n})");
    let _ = writeln!(
        s,
        "  {:<10} {:>6} {:>7} {:>9} {:>11}",
        "method", "LUTs", "Slices", "Time(ns)", "AxT"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<10} {:>6} {:>7} {:>9.2} {:>11.2}",
            r.citation,
            r.luts,
            r.slices,
            r.time_ns,
            r.area_time()
        );
    }
    s
}

/// The pipeline every harness run starts from: [`Pipeline::new`], on
/// the paper's Artix-7 fabric with the default placement seed
/// ([`rgf2m_fpga::place::DEFAULT_SEED`]) and its exact, bounded
/// annealing budget. Retarget
/// with `Pipeline::with_target` (the [`BatchRunner`] does this per
/// job).
pub fn harness_pipeline() -> Pipeline {
    Pipeline::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_table_v_smallest_field() {
        let rows: Vec<PaperRow> = BatchRunner::new()
            .run_rows(&table_v_jobs(&[(8, 2)]))
            .iter()
            .filter_map(BatchRow::table_v_row)
            .collect();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.luts > 0 && r.time_ns > 0.0, "{r:?}");
        }
        let block = format_field_block(8, 2, &rows);
        assert!(block.contains("This work"));
        assert!(block.contains("AxT"));
    }

    #[test]
    fn harness_pipeline_is_pinned_to_the_documented_budget() {
        // The doc contract: deterministic, with an exact bounded
        // annealing budget. Pin the actual options so the doc can't
        // silently rot again.
        let opts = harness_pipeline().place_options().clone();
        assert_eq!(opts.seed, rgf2m_fpga::place::DEFAULT_SEED);
        assert_eq!(rgf2m_fpga::place::MAX_TOTAL_MOVES, 1_200_000);
        // And the harness pipeline targets the paper's fabric.
        assert_eq!(harness_pipeline().target(), rgf2m_fpga::Target::Artix7);
    }

    #[test]
    fn paper_data_is_complete() {
        assert_eq!(paper_data::PAPER_TABLE_V.len(), 9);
        for block in paper_data::PAPER_TABLE_V {
            assert_eq!(block.rows.len(), 6);
        }
    }

    #[test]
    fn paper_axt_winner_is_mostly_this_work() {
        // The paper's claim: the proposed method wins A×T on 7 of the 9
        // fields (exceptions: (113,34) and (163,68), where [3] wins).
        let mut wins = 0;
        let mut exceptions = Vec::new();
        for block in paper_data::PAPER_TABLE_V {
            let verdict = paper_data::axt_verdict(&block.rows);
            if verdict.this_work_wins() {
                wins += 1;
            } else {
                exceptions.push((block.m, block.n, verdict.winner.unwrap()));
            }
        }
        assert_eq!(wins, 7, "exceptions: {exceptions:?}");
        assert!(exceptions.contains(&(113, 34, "[3]")));
        assert!(exceptions.contains(&(163, 68, "[3]")));
    }
}
