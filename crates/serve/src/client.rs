//! A blocking client for the `rgf2m-served` line protocol: submit
//! synth jobs (singly or pipelined as a batch), read stats, request
//! shutdown.

use std::io::{self, BufRead, BufReader, Write};

use rgf2m_core::Method;
use rgf2m_fpga::{ImplReport, Target};

use crate::json::JsonValue;
use crate::net::{Conn, Endpoint};
use crate::protocol::{encode_request, parse_response, FieldSpec, Request, Response, SynthRequest};

/// One job as a client submits it (the id is assigned internally).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClientJob {
    /// The field to build the multiplier over.
    pub field: FieldSpec,
    /// The Table V construction to run.
    pub method: Method,
    /// The fabric to implement on.
    pub target: Target,
    /// The placement seed.
    pub seed: u64,
}

/// A successful synth answer: the report plus its cache provenance
/// (`"memory"` / `"store"` / `"computed"`).
pub type SynthOutcome = Result<(ImplReport, String), String>;

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    writer: Conn,
    reader: BufReader<Conn>,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let conn = endpoint.connect()?;
        let writer = conn.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(conn),
            next_id: 1,
        })
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        // One write per line (see the daemon's `write_line`: a split
        // newline stalls TCP round trips on Nagle + delayed ACK).
        let line = encode_request(req) + "\n";
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        parse_response(line.trim_end()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Runs one synth job, blocking until its response line.
    pub fn synth(&mut self, job: &ClientJob) -> io::Result<SynthOutcome> {
        Ok(self
            .synth_batch(std::slice::from_ref(job))?
            .pop()
            .expect("synth_batch returns one outcome per job"))
    }

    /// Pipelines a whole batch: writes every request line up front so
    /// the daemon's workers overlap the jobs, then collects the
    /// responses and reorders them **into job order** by id (the
    /// daemon answers in completion order).
    pub fn synth_batch(&mut self, jobs: &[ClientJob]) -> io::Result<Vec<SynthOutcome>> {
        let base = self.next_id;
        self.next_id += jobs.len() as u64;
        for (i, job) in jobs.iter().enumerate() {
            self.send(&Request::Synth(SynthRequest {
                id: base + i as u64,
                field: job.field.clone(),
                method: job.method,
                target: job.target,
                seed: job.seed,
            }))?;
        }
        let mut outcomes: Vec<Option<SynthOutcome>> = vec![None; jobs.len()];
        for _ in 0..jobs.len() {
            let resp = self.read_response()?;
            let index = resp
                .id
                .checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < jobs.len() && outcomes[i].is_none())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected response id {}", resp.id),
                    )
                })?;
            let outcome = match resp.report() {
                Ok(report) => Ok((report, resp.source().unwrap_or("computed").to_string())),
                Err(message) => Err(message),
            };
            outcomes[index] = Some(outcome);
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every index filled exactly once"))
            .collect())
    }

    /// Fetches the daemon's stats document.
    pub fn stats(&mut self) -> io::Result<JsonValue> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::Stats { id })?;
        let resp = self.read_response()?;
        if !resp.ok {
            return Err(io::Error::other(
                resp.error().unwrap_or("stats request failed").to_string(),
            ));
        }
        Ok(resp.doc)
    }

    /// Asks the daemon to drain and exit; returns once acknowledged.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::Shutdown { id })?;
        let resp = self.read_response()?;
        if !resp.ok {
            return Err(io::Error::other(
                resp.error().unwrap_or("shutdown refused").to_string(),
            ));
        }
        Ok(())
    }
}
