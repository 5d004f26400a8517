//! The parallel batch runner: fan a list of (m, n, method, target)
//! jobs over worker threads, each through its own fallible
//! [`Pipeline`](rgf2m_fpga::Pipeline), with deterministic per-job seeds.
//!
//! This is the scale-out entry point the ROADMAP's north star asks for:
//! one call runs an arbitrary set of field × method × fabric scenarios
//! and returns machine-readable results (`Vec<Result<ImplReport,
//! FlowError>>`, serializable via [`crate::report`]). Results are
//! **independent of the thread count and of scheduling**: job `i`
//! always anneals with the seed derived from `(base_seed, i)`, and the
//! output vector is in job order.
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
//! let results = BatchRunner::new().run(&jobs);
//! assert!(results[0].is_ok());
//! assert!(results[1].is_ok());
//! assert!(results[2].is_err()); // reported, not panicked
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::{FlowError, ImplReport, Target};

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

    /// The same job on another fabric.
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }
}

/// All six Table V methods for each listed field on the default
/// Artix-7 fabric, in the paper's row order — the canonical job list
/// for regenerating Table V blocks.
pub fn table_v_jobs(fields: &[(usize, usize)]) -> Vec<Job> {
    table_v_jobs_on(fields, Target::Artix7)
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

/// The deterministic placement seed of job `index` under `base_seed`
/// (a splitmix64-style finalizer — decorrelated across indices,
/// independent of thread count or scheduling). This is the seed
/// discipline shared by every execution path: [`BatchRunner::job_seed`]
/// delegates here, and the daemon path ([`crate::daemon`]) derives the
/// same seeds client-side so served rows are byte-identical to local
/// ones.
pub fn job_seed_from(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fans jobs over `std::thread::scope` workers, one
/// [`Pipeline`](rgf2m_fpga::Pipeline) run per job, with deterministic
/// per-job placement seeds.
#[derive(Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner over [`crate::harness_pipeline`] options, base seed
    /// [`crate::HARNESS_SEED`], one worker thread.
    pub fn new() -> Self {
        BatchRunner { threads: 1 }
    }

    /// Sets the worker thread count (`0` = one worker per available
    /// CPU). Results do not depend on this value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The deterministic placement seed of job `index` (see
    /// [`job_seed_from`], which this delegates to).
    pub fn job_seed(&self, index: usize) -> u64 {
        job_seed_from(self.base_seed(), index)
    }

    /// The base seed every per-job seed derives from:
    /// [`crate::HARNESS_SEED`].
    pub fn base_seed(&self) -> u64 {
        crate::HARNESS_SEED
    }

    /// Runs every job, returning one `Result` per job **in job order**.
    pub fn run(&self, jobs: &[Job]) -> Vec<Result<ImplReport, FlowError>> {
        self.run_rows(jobs).into_iter().map(|r| r.result).collect()
    }

    /// Like [`BatchRunner::run`], additionally returning each job's
    /// identity and seed — the input of the [`crate::report`] writers.
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
                    let row = self.run_job(i, *job);
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

    fn run_job(&self, index: usize, job: Job) -> BatchRow {
        let seed = self.job_seed(index);
        let result = (|| {
            let penta = TypeIiPentanomial::new(job.m, job.n).map_err(|e| {
                FlowError::InvalidOptions(format!(
                    "job {index}: ({}, {}) is not a valid type II pentanomial: {e}",
                    job.m, job.n
                ))
            })?;
            let field = Field::from_pentanomial(&penta);
            let net = generate(&field, job.method);
            crate::harness_pipeline()
                .with_target(job.target)
                .with_place_seed(seed)
                .run_report(&net)
        })();
        BatchRow { job, seed, result }
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

/// One finished batch job: its identity, the seed it annealed with and
/// its outcome.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// The job as submitted.
    pub job: Job,
    /// The placement seed the job ran with.
    pub seed: u64,
    /// The flow outcome.
    pub result: Result<ImplReport, FlowError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_to_csv, rows_to_json, validate_table5_json};

    #[test]
    fn gf256_block_runs_all_six_methods() {
        let jobs = table_v_jobs(&[(8, 2)]);
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
            assert_eq!(s.seed, p.seed);
            let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(sr, pr, "{job:?}");
        }
    }

    #[test]
    fn json_export_is_byte_identical_across_runs_and_thread_counts() {
        let jobs = table_v_jobs(&[(8, 2)]);
        let runner = BatchRunner::new();
        let a = rows_to_json(&runner.run_rows(&jobs), runner.base_seed());
        let b = rows_to_json(&runner.run_rows(&jobs), runner.base_seed());
        let c = rows_to_json(
            &BatchRunner::new().with_threads(3).run_rows(&jobs),
            runner.base_seed(),
        );
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
        let runner = BatchRunner::new();
        let a = rows_to_json(&runner.run_rows(&jobs), runner.base_seed());
        let b = rows_to_json(
            &BatchRunner::new().with_threads(4).run_rows(&jobs),
            runner.base_seed(),
        );
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
        let results = BatchRunner::new().run(&jobs);
        for (i, r) in results[..2].iter().enumerate() {
            match r {
                Err(FlowError::InvalidOptions(msg)) => {
                    assert!(msg.contains("pentanomial"), "job {i}: {msg}")
                }
                other => panic!("job {i}: expected InvalidOptions, got {other:?}"),
            }
        }
        assert!(results[2].is_ok(), "valid job must still succeed");
    }

    #[test]
    fn failed_rows_serialize_into_both_report_formats() {
        let jobs = vec![
            Job::new(8, 2, Method::ProposedFlat),
            Job::new(16, 2, Method::ProposedFlat), // reducible pentanomial
        ];
        let rows = BatchRunner::new().run_rows(&jobs);
        let json = rows_to_json(&rows, 2018);
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("pentanomial"));
        // A document with a failed row fails validation loudly.
        assert!(validate_table5_json(&json).is_err());
        let csv = rows_to_csv(&rows);
        assert_eq!(csv.lines().count(), 3); // header + 2 rows
        assert!(csv.lines().nth(2).unwrap().contains("false"));
    }

    #[test]
    fn per_job_seeds_are_decorrelated_and_deterministic() {
        let runner = BatchRunner::new();
        let seeds: Vec<u64> = (0..32).map(|i| runner.job_seed(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(
            seeds,
            (0..32).map(|i| runner.job_seed(i)).collect::<Vec<_>>()
        );
        // A different base seed produces a different schedule.
        assert_ne!(seeds[0], job_seed_from(1, 0));
    }
}
