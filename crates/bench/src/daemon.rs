//! Daemon-backed batch execution: run a [`Job`] list against a running
//! `rgf2m-served` instance instead of in-process pipelines.
//!
//! The contract is **byte-equivalence** with
//! [`BatchRunner::run_rows`](crate::BatchRunner::run_rows):
//! the same jobs under the same base seed yield the same
//! [`BatchRow`]s — the same splitmix64 per-job seeds (via
//! [`job_seed_from`]), the same deterministic reports (the daemon's
//! default template mirrors [`crate::harness_pipeline`]), and the same
//! error strings for invalid pentanomials (validated client-side, so a
//! bad `(m, n)` never even reaches the wire). `table5 --daemon
//! ENDPOINT` rides on this to produce byte-identical JSON/CSV exports,
//! with the daemon's memory + artifact store turning warm reruns into
//! pure cache reads.

use std::io;

use rgf2m_fpga::FlowError;
use rgf2m_serve::client::{Client, ClientJob};
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::protocol::FieldSpec;

use crate::batch::{job_seed_from, BatchRow, Job};

/// Runs every job against the daemon at `endpoint`, returning one
/// [`BatchRow`] per job **in job order**, exactly as
/// [`BatchRunner::run_rows`](crate::BatchRunner::run_rows) would.
///
/// Per-job flow failures (invalid pentanomial, remote pipeline errors)
/// land in that row's `result`; only transport-level failures (cannot
/// connect, daemon died mid-batch, malformed response) surface as
/// `Err`.
pub fn run_rows_via_daemon(
    endpoint: &Endpoint,
    jobs: &[Job],
    base_seed: u64,
) -> io::Result<Vec<BatchRow>> {
    // Validate pentanomials locally: the rows for invalid pairs must
    // carry the exact BatchRunner error bytes, and skipping them keeps
    // the daemon's registry validation out of the equivalence surface.
    let mut rows: Vec<BatchRow> = Vec::with_capacity(jobs.len());
    let (mut wire, mut batch) = (Vec::new(), Vec::new());
    for (index, &job) in jobs.iter().enumerate() {
        let seed = job_seed_from(base_seed, index);
        let result = job.pentanomial(index).and_then(|_| {
            wire.push(index);
            batch.push(ClientJob {
                field: FieldSpec::Pair { m: job.m, n: job.n },
                method: job.method,
                target: job.target,
                seed,
            });
            // Placeholder; overwritten from the daemon's answer.
            Err(FlowError::Remote {
                message: "daemon response missing".into(),
            })
        });
        rows.push(BatchRow { job, seed, result });
    }
    if !batch.is_empty() {
        let outcomes = Client::connect(endpoint)?.synth_batch(&batch)?;
        for (index, outcome) in wire.into_iter().zip(outcomes) {
            rows[index].result = match outcome {
                Ok((report, _source)) => Ok(report),
                Err(message) => Err(FlowError::Remote { message }),
            };
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use crate::report::rows_to_json;
    use rgf2m_core::Method;
    use rgf2m_fpga::Target;
    use rgf2m_serve::server::{self, default_template, ServerConfig};

    /// The daemon's pipeline defaults are pinned to the harness's (the
    /// seed is one constant, `place::DEFAULT_SEED`): this is what makes
    /// daemon-served rows byte-identical to `BatchRunner` rows without
    /// any client-side configuration.
    #[test]
    fn daemon_defaults_mirror_the_harness() {
        assert_eq!(
            default_template().options_fingerprint(),
            crate::harness_pipeline().options_fingerprint()
        );
        assert_eq!(default_template().target(), Target::Artix7);
    }

    /// The equivalence contract end-to-end: a mixed batch (two fabrics,
    /// one invalid pentanomial) through a live daemon serializes to the
    /// very same `rows_to_json` bytes as the in-process BatchRunner.
    #[test]
    fn daemon_rows_serialize_byte_identically_to_the_batch_runner() {
        let jobs = vec![
            Job::new(8, 2, Method::ProposedFlat),
            Job::on(8, 2, Method::MastrovitoPaar, Target::Spartan3),
            Job::new(16, 2, Method::ProposedFlat), // reducible: fails
            Job::new(8, 2, Method::Imana2016),
        ];
        let runner = BatchRunner::new();
        let local = rows_to_json(&runner.run_rows(&jobs), runner.base_seed());

        let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
        let rows = run_rows_via_daemon(handle.endpoint(), &jobs, runner.base_seed()).unwrap();
        let served = rows_to_json(&rows, runner.base_seed());
        assert_eq!(served, local);

        let mut client = Client::connect(handle.endpoint()).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn transport_failures_are_errors_not_rows() {
        let gone = Endpoint::Tcp("127.0.0.1:1".into());
        let jobs = vec![Job::new(8, 2, Method::ProposedFlat)];
        assert!(run_rows_via_daemon(&gone, &jobs, 2018).is_err());
    }
}
