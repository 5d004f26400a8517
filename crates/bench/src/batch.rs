//! The parallel batch runner: fan a list of (m, n, method, target)
//! jobs over worker threads, each through its own fallible
//! [`Pipeline`](rgf2m_fpga::Pipeline).
//!
//! This is the scale-out entry point the ROADMAP's north star asks for:
//! one call runs an arbitrary set of field × method × fabric scenarios
//! and returns machine-readable rows ([`BatchRow`], serializable via
//! [`crate::report`]). Every job is placed with
//! [`DEFAULT_SEED`](rgf2m_fpga::place::DEFAULT_SEED), the seed `sta` and
//! a seedless daemon request use, so a row depends on its job alone:
//! not on the thread count, the scheduling or the other jobs in the
//! list. The rows come back in job order.
//!
//! # Examples
//!
//! ```
//! use rgf2m_bench::{BatchRunner, Job};
//! use rgf2m_core::Method;
//! use rgf2m_fpga::Target;
//!
//! let jobs = vec![
//!     Job::new(8, 2, Method::ProposedFlat),          // default artix7
//!     Job::on(8, 2, Method::ProposedFlat, Target::Spartan3),
//!     Job::new(16, 2, Method::ProposedFlat),         // invalid: reducible
//! ];
//! let rows = BatchRunner::new().run_rows(&jobs);
//! assert!(rows[0].result.is_ok());
//! assert!(rows[1].result.is_ok());
//! assert!(rows[2].result.is_err()); // reported, not panicked
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::{FlowError, ImplReport, Target};

use crate::paper_data::PaperRow;

/// One batch scenario: implement `method` for GF(2^m) with the type II
/// pentanomial `(m, n)` on the fabric `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Extension degree `m`.
    pub m: usize,
    /// Type II pentanomial offset `n`.
    pub n: usize,
    /// The multiplier construction to run.
    pub method: Method,
    /// The fabric to implement on.
    pub target: Target,
}

impl Job {
    /// Creates a job on the default [`Target::Artix7`] fabric (the
    /// paper's). Validity of `(m, n)` is checked when the job runs — an
    /// invalid pair yields `Err(FlowError::InvalidOptions)` in that
    /// job's slot, never a panic.
    pub fn new(m: usize, n: usize, method: Method) -> Self {
        Job::on(m, n, method, Target::Artix7)
    }

    /// Creates a job on an explicit target fabric.
    pub fn on(m: usize, n: usize, method: Method, target: Target) -> Self {
        Job {
            m,
            n,
            method,
            target,
        }
    }

    /// The job's pentanomial, or the error every execution path
    /// ([`BatchRunner`] and [`crate::daemon`]) reports for job `index`.
    pub(crate) fn pentanomial(&self, index: usize) -> Result<TypeIiPentanomial, FlowError> {
        TypeIiPentanomial::new(self.m, self.n).map_err(|e| {
            FlowError::InvalidOptions(format!(
                "job {index}: ({}, {}) is not a valid type II pentanomial: {e}",
                self.m, self.n
            ))
        })
    }
}

/// All six Table V methods for each listed field on one fabric, in the
/// paper's row order.
pub fn table_v_jobs_on(fields: &[(usize, usize)], target: Target) -> Vec<Job> {
    fields
        .iter()
        .flat_map(|&(m, n)| {
            Method::ALL
                .into_iter()
                .map(move |method| Job::on(m, n, method, target))
        })
        .collect()
}

/// Fans jobs over `std::thread::scope` workers, one
/// [`Pipeline`](rgf2m_fpga::Pipeline) run per job.
#[derive(Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner over [`crate::harness_pipeline`] options, one worker
    /// thread.
    pub fn new() -> Self {
        BatchRunner { threads: 1 }
    }

    /// Sets the worker thread count (`0` = one worker per available
    /// CPU). Results do not depend on this value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs every job, returning one row per job **in job order**: the
    /// input of the [`crate::report`] writers.
    pub fn run_rows(&self, jobs: &[Job]) -> Vec<BatchRow> {
        let workers = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        };
        let workers = workers.min(jobs.len()).max(1);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<BatchRow>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let row = run_job(i, *job);
                    *slots[i].lock().expect("batch slot poisoned") = Some(row);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("batch slot poisoned")
                    .expect("every claimed job writes its slot")
            })
            .collect()
    }
}

/// Runs job `index` through [`crate::harness_pipeline`] on its target.
fn run_job(index: usize, job: Job) -> BatchRow {
    let result = job.pentanomial(index).and_then(|p| {
        let net = generate(&Field::from_pentanomial(&p), job.method);
        crate::harness_pipeline()
            .with_target(job.target)
            .run_report(&net)
    });
    BatchRow { job, result }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

/// One finished batch job: its identity and its outcome.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// The job as submitted.
    pub job: Job,
    /// The flow outcome.
    pub result: Result<ImplReport, FlowError>,
}

impl BatchRow {
    /// The Table V row of a successful job, `None` for a failed one.
    pub fn table_v_row(&self) -> Option<PaperRow> {
        self.result.as_ref().ok().map(|r| PaperRow {
            citation: self.job.method.citation(),
            luts: r.luts,
            slices: r.slices,
            time_ns: r.time_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_to_csv, rows_to_json, validate_table5_json};

    #[test]
    fn gf256_block_runs_all_six_methods() {
        let jobs = table_v_jobs_on(&[(8, 2)], Target::Artix7);
        assert_eq!(jobs.len(), 6);
        let rows = BatchRunner::new().run_rows(&jobs);
        for (row, method) in rows.iter().zip(Method::ALL) {
            assert_eq!(row.job.method, method);
            assert_eq!(row.job.target, Target::Artix7);
            let r = row.result.as_ref().unwrap();
            assert!(r.luts > 0 && r.time_ns > 0.0, "{method:?}: {r:?}");
        }
    }

    #[test]
    fn jobs_on_different_targets_yield_different_numbers() {
        let job = |t| Job::on(8, 2, Method::ProposedFlat, t);
        let rows = BatchRunner::new().run_rows(&[job(Target::Artix7), job(Target::Spartan3)]);
        let a = rows[0].result.as_ref().unwrap();
        let s = rows[1].result.as_ref().unwrap();
        // The narrow fabric pays area; the slower 90 nm constants and
        // extra levels cost time.
        assert!(s.luts > a.luts, "spartan3 {} <= artix7 {}", s.luts, a.luts);
        assert!(s.time_ns > a.time_ns);
    }

    #[test]
    fn output_is_in_job_order_and_thread_count_invariant() {
        let jobs = vec![
            Job::new(8, 2, Method::ProposedFlat),
            Job::on(8, 3, Method::Rashidi, Target::Virtex5),
            Job::on(8, 2, Method::Imana2016, Target::StratixAlm),
            Job::new(13, 5, Method::ReyhaniHasan),
        ];
        let seq = BatchRunner::new().run_rows(&jobs);
        let par = BatchRunner::new().with_threads(4).run_rows(&jobs);
        for ((s, p), job) in seq.iter().zip(&par).zip(&jobs) {
            assert_eq!(s.job, *job);
            assert_eq!(p.job, *job);
            let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(sr, pr, "{job:?}");
        }
    }

    /// A cell's row is the same whatever jobs share its list and
    /// wherever it stands in it: `table5 --only M,N` prints the numbers
    /// of the full grid.
    #[test]
    fn a_cells_row_does_not_depend_on_its_job_list() {
        let runner = BatchRunner::new().with_threads(2);
        for target in Target::ALL {
            let alone = table_v_jobs_on(&[(8, 2)], target);
            let mut reversed = alone.clone();
            reversed.reverse();
            let prefixed = table_v_jobs_on(&[(13, 5), (8, 2)], target);
            let rows_of = |jobs: &[Job]| -> Vec<(Job, ImplReport)> {
                let mut rows: Vec<_> = runner
                    .run_rows(jobs)
                    .into_iter()
                    .filter(|row| alone.contains(&row.job))
                    .map(|row| (row.job, row.result.unwrap()))
                    .collect();
                rows.sort_by_key(|(job, _)| alone.iter().position(|j| j == job));
                rows
            };
            let expected = rows_of(&alone);
            assert_eq!(expected.len(), alone.len());
            assert_eq!(rows_of(&reversed), expected, "{target:?} reversed");
            assert_eq!(rows_of(&prefixed), expected, "{target:?} after (13, 5)");
        }
    }

    /// `sta` and `table5` time a cell on the same placement, so the
    /// critical delay `sta` prints is the row's `time_ns`.
    #[test]
    fn sta_critical_path_is_the_rows_time() {
        let jobs: Vec<Job> = Target::ALL
            .into_iter()
            .flat_map(|t| table_v_jobs_on(&[(8, 2)], t))
            .collect();
        let field = crate::field_for(8, 2);
        for row in BatchRunner::new().with_threads(2).run_rows(&jobs) {
            let job = row.job;
            let pipeline = crate::harness_pipeline().with_target(job.target);
            let a = pipeline.run(&generate(&field, job.method)).unwrap();
            let sta = rgf2m_fpga::analyze_sta(
                &a.mapped,
                &a.packing,
                &a.placement,
                pipeline.device(),
                &rgf2m_fpga::StaOptions::default(),
            );
            assert_eq!(sta.critical_ns, row.result.unwrap().time_ns, "{job:?}");
        }
    }

    #[test]
    fn json_export_is_byte_identical_across_runs_and_thread_counts() {
        let jobs = table_v_jobs_on(&[(8, 2)], Target::Artix7);
        let runner = BatchRunner::new();
        let a = rows_to_json(&runner.run_rows(&jobs));
        let b = rows_to_json(&runner.run_rows(&jobs));
        let c = rows_to_json(&BatchRunner::new().with_threads(3).run_rows(&jobs));
        assert_eq!(a, b);
        assert_eq!(a, c);
        // And the artifact passes its own schema validation.
        let summary = validate_table5_json(&a).unwrap();
        assert!(summary.contains("6 rows"), "{summary}");
    }

    #[test]
    fn cross_target_export_is_byte_identical_across_thread_counts() {
        // The `table5 --all-targets` grid, one job list per target in
        // registry order, serializes to the same bytes whatever the
        // worker count, and passes schema validation.
        let jobs: Vec<Job> = Target::ALL
            .into_iter()
            .flat_map(|t| table_v_jobs_on(&[(8, 2)], t))
            .collect();
        let a = rows_to_json(&BatchRunner::new().run_rows(&jobs));
        let b = rows_to_json(&BatchRunner::new().with_threads(4).run_rows(&jobs));
        assert_eq!(a, b);
        let summary = validate_table5_json(&a).unwrap();
        assert!(summary.contains("4 target(s)"), "{summary}");
    }

    #[test]
    fn invalid_pentanomial_jobs_error_instead_of_panicking() {
        // (8, 4) fails the shape bound (n + 1 > m/2); (16, 2) has the
        // right shape but y^16+y^4+y^3+y^2+1 is reducible.
        let jobs = vec![
            Job::new(8, 4, Method::ProposedFlat),
            Job::new(16, 2, Method::ProposedFlat),
            Job::new(8, 2, Method::ProposedFlat),
        ];
        let rows = BatchRunner::new().run_rows(&jobs);
        for (i, row) in rows[..2].iter().enumerate() {
            match &row.result {
                Err(FlowError::InvalidOptions(msg)) => {
                    assert!(msg.contains("pentanomial"), "job {i}: {msg}")
                }
                other => panic!("job {i}: expected InvalidOptions, got {other:?}"),
            }
        }
        assert!(rows[2].result.is_ok(), "valid job must still succeed");
    }

    #[test]
    fn failed_rows_serialize_into_both_report_formats() {
        let jobs = vec![
            Job::new(8, 2, Method::ProposedFlat),
            Job::new(16, 2, Method::ProposedFlat), // reducible pentanomial
        ];
        let rows = BatchRunner::new().run_rows(&jobs);
        let json = rows_to_json(&rows);
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("pentanomial"));
        // A document with a failed row fails validation loudly.
        assert!(validate_table5_json(&json).is_err());
        let csv = rows_to_csv(&rows);
        assert_eq!(csv.lines().count(), 3); // header + 2 rows
        assert!(csv.lines().nth(2).unwrap().contains("false"));
    }
}
