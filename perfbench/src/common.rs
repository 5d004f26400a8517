//! What every workload shares: the run configuration, the seeded input
//! generator, the measurement window and the outcome a run reports.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{fastest, median};
use crate::trace::Span;

/// One run's command-line configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Where scratch state (the daemon's store) and spans go.
    pub out_dir: PathBuf,
}

/// splitmix64: a small, fast, seedable generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of the workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The measurement window: a run starts a new pass only while the
/// previous pass's duration still fits in the time left.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether work expected to take `estimate_s` still fits.
    pub fn fits(&self, estimate_s: f64) -> bool {
        self.elapsed() + estimate_s <= self.seconds
    }

    /// Whether the window has closed.
    pub fn closed(&self) -> bool {
        self.elapsed() >= self.seconds
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Seconds of untimed work before set-up: see [`warm_up`].
pub const WARM_UP_S: f64 = 3.0;

/// Keeps every core busy with `work` for `seconds` before anything is
/// timed. On the 2-core box this benchmark was tuned on, a core that was
/// idle runs the same loop about 40% slower for its first two seconds of
/// work, which otherwise lands in set-up and the first pass.
pub fn warm_up(seconds: f64, work: impl Fn() + Sync) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Window::open(seconds);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while !window.closed() {
                    work();
                }
            });
        }
    });
}

/// Runs the set-up `reps` times and returns the last result with each
/// set-up time in seconds. The untraced runs repeat the set-up through
/// the run as well and report the fastest (see [`JobStats`] for why).
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs run in the measured window.
    pub attempted: usize,
    /// Jobs that failed or returned a wrong output.
    pub failed: usize,
    /// One line per failure, for the log.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records one failed job.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// Latency statistics of a job set that repeats over the run, with each
/// job counted once at its fastest repeat, so the statistics do not
/// depend on how often the fast jobs repeat. On the shared 2-core host
/// this was tuned on, busy neighbours slow the same code by up to 1.6x
/// for seconds to minutes at a time, and a run's median moved with
/// them by 30% from run to run. A job's repeats are spread over the
/// run, so its fastest one is the one such a spell missed; a change
/// that slows the job slows every repeat, the fastest included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStats {
    /// The median job.
    pub p50: f64,
    /// The highest whole percentile with ten jobs beyond it.
    pub tail_p: u32,
    /// The job at that percentile.
    pub tail: f64,
    /// One pass at typical speed: the sum over the jobs.
    pub pass: f64,
    /// Jobs with at least one sample.
    pub jobs: usize,
}

/// [`JobStats`] of `per_job`, one latency list per job.
pub fn job_stats(per_job: &[Vec<f64>]) -> JobStats {
    let typical: Vec<f64> = per_job.iter().filter_map(|t| fastest(t)).collect();
    let (tail_p, tail) =
        crate::stats::tail(&typical).unwrap_or((100, typical.iter().copied().fold(0.0, f64::max)));
    JobStats {
        p50: median(&typical).unwrap_or(0.0),
        tail_p,
        tail,
        pass: typical.iter().sum(),
        jobs: typical.len(),
    }
}

/// "median X ms (q1 A, q3 B)" for a run's pass times, for the log.
pub fn spread_ms(xs: &[f64]) -> String {
    let m = median(xs).unwrap_or(0.0);
    match crate::stats::quartiles(xs) {
        Some((q1, q3)) => format!("median {m:.2} ms (q1 {q1:.2}, q3 {q3:.2})"),
        None => format!("median {m:.2} ms"),
    }
}

/// Seconds as milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_jobs_count_once() {
        // A fast job repeated ten times per pass would own the median
        // if every repetition counted; at one value each it does not.
        let mut per_job = vec![vec![1.0; 10]];
        per_job
            .extend((2..=29).map(|j| vec![f64::from(j) + 0.5, f64::from(j), f64::from(j) + 9.0]));
        let st = job_stats(&per_job);
        assert_eq!(st.jobs, 29);
        assert_eq!(st.p50, 15.0);
        // 29 jobs: p65 is the highest whole percentile with ten beyond.
        assert_eq!((st.tail_p, st.tail), (65, 19.0));
        assert_eq!(st.pass, (1..=29).sum::<i32>() as f64);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let order = |seed| {
            let mut xs: Vec<u32> = (0..24).collect();
            Rng::new(seed, 1).shuffle(&mut xs);
            xs
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }
}
