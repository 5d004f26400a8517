//! The `rgf2m-served` daemon core: a long-lived server accepting
//! newline-delimited JSON synth jobs, deduplicating identical
//! in-flight requests (singleflight), fanning distinct jobs over a
//! bounded worker pool with the `BatchRunner`'s scoped-thread +
//! deterministic-seed discipline, and serving results out of a
//! three-level cache (per-pipeline memory → disk [`ArtifactStore`] →
//! compute).
//!
//! Concurrency model:
//!
//! * one acceptor (the [`serve`] caller's thread) + one reader thread
//!   per connection + `workers` computation threads, all inside one
//!   `std::thread::scope`;
//! * a request for a job key already in flight **joins** that flight
//!   instead of queueing a duplicate — when the flight lands, every
//!   waiter gets its own response line (each with its own id);
//! * determinism lives in the key: jobs run through one shared
//!   [`Pipeline`] per `(target, seed)`, so a given key always anneals
//!   with its requested seed and repeat traffic hits that pipeline's
//!   memory cache;
//! * the generators are deterministic, so the daemon remembers which
//!   netlist (name and content hash) each `(field, method)` produced
//!   and a warm request goes straight to the memory and store tiers
//!   ([`Pipeline::lookup`]): only a request no tier can answer builds
//!   the field and generates its netlist, so the `generate` stage
//!   timing counts the netlists actually generated;
//! * graceful shutdown (the `shutdown` op) stops accepting, lets the
//!   workers drain every queued and in-flight job, answers every
//!   waiter, then closes the remaining connections and returns.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rgf2m_core::{generate, Method};
use rgf2m_fpga::{CacheStats, ImplReport, Pipeline, ReportSource, Target};

use crate::net::{AnyListener, Conn, Endpoint};
use crate::protocol::{
    encode_error, encode_shutdown_ack, encode_synth_ok, parse_request, FieldSpec, Request,
    SynthRequest,
};
use crate::store::ArtifactStore;

/// The longest request line the daemon buffers, newline included. Real
/// requests are under 200 bytes; a longer line gets one `bad request`
/// reply and its connection is closed, so no client can grow the
/// daemon's memory by streaming bytes without a newline.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The pipeline every daemon job starts from: [`Pipeline::new`], whose
/// placement seed is [`crate::DEFAULT_SEED`] — the same options
/// fingerprint as the bench harness, so one store serves both worlds.
/// Per job, the request's target and seed are applied on top.
pub fn default_template() -> Pipeline {
    Pipeline::new()
}

/// How a daemon should run.
#[derive(Debug)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Disk store root (`None` = memory-only).
    pub store_root: Option<PathBuf>,
    /// Worker threads (`0` = one per available CPU).
    pub workers: usize,
}

impl ServerConfig {
    /// A config with the store off and auto workers.
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            store_root: None,
            workers: 0,
        }
    }

    /// Enables the disk store under `root`.
    pub fn with_store_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.store_root = Some(root.into());
        self
    }

    /// Sets the worker thread count (`0` = one per available CPU).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// A spawned daemon: its resolved endpoint plus the join handle.
#[derive(Debug)]
pub struct ServerHandle {
    endpoint: Endpoint,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The resolved endpoint (for TCP `:0` binds, the real port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Waits for the daemon to exit (it exits on a `shutdown`
    /// request).
    pub fn join(self) -> std::io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    }
}

/// Binds the endpoint and runs the daemon on a background thread.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let (listener, resolved) = AnyListener::bind(&config.endpoint)?;
    let endpoint = resolved.clone();
    let thread = std::thread::spawn(move || serve(listener, resolved, config));
    Ok(ServerHandle { endpoint, thread })
}

/// Runs the daemon on the calling thread until a `shutdown` request
/// drains it. `resolved` must be the endpoint `listener` is bound to
/// (the shutdown path connects to it to unblock the acceptor).
pub fn serve(
    listener: AnyListener,
    resolved: Endpoint,
    config: ServerConfig,
) -> std::io::Result<()> {
    let store = match &config.store_root {
        Some(root) => Some(Arc::new(ArtifactStore::open(root)?)),
        None => None,
    };
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        config.workers
    };
    let shared = Shared {
        endpoint: resolved.clone(),
        store,
        pipelines: Mutex::new(HashMap::new()),
        designs: Mutex::new(HashMap::new()),
        board: Mutex::new(Board::default()),
        work_cv: Condvar::new(),
        drain_cv: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        counters: Counters::default(),
        timings: Mutex::new([StageTime::default(), StageTime::default()]),
    };
    let result = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| shared.worker_loop());
        }
        for conn_id in 0usize.. {
            let conn = match listener.accept() {
                Ok(conn) => conn,
                Err(_) if shared.shutting_down.load(Ordering::SeqCst) => break,
                Err(e) => {
                    // Acceptor failure: initiate the same drain a
                    // shutdown request would, then report the error.
                    shared.begin_shutdown();
                    shared.drain_and_close();
                    return Err(e);
                }
            };
            if shared.shutting_down.load(Ordering::SeqCst) {
                break; // the shutdown self-wake (or a late client)
            }
            if let Ok(clone) = conn.try_clone() {
                shared
                    .conns
                    .lock()
                    .expect("conns poisoned")
                    .insert(conn_id, clone);
            }
            let shared = &shared;
            scope.spawn(move || {
                shared.handle_conn(conn);
                // Its reader is done, so the drain need not shut it.
                shared
                    .conns
                    .lock()
                    .expect("conns poisoned")
                    .remove(&conn_id);
            });
        }
        shared.drain_and_close();
        Ok(())
    });
    if let Endpoint::Unix(path) = &resolved {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// One singleflight job identity: everything that changes the answer.
type JobKey = (FieldSpec, Method, Target, u64);

/// One design: what fixes the netlist a job generates.
type Design = (FieldSpec, Method);

/// The most designs the identity memo holds. Clients choose the field,
/// so the memo is bounded; when full it starts over, which costs only
/// a regeneration per design still in use.
const MAX_DESIGNS: usize = 1024;

/// A response destination: the request to echo plus the connection's
/// shared write half.
struct Waiter {
    req: SynthRequest,
    out: Arc<Mutex<Conn>>,
}

#[derive(Default)]
struct Board {
    /// Keys awaiting a worker, FIFO.
    queue: VecDeque<JobKey>,
    /// Every in-flight key → everyone waiting on it.
    flights: HashMap<JobKey, Vec<Waiter>>,
    /// Workers currently writing responses for a landed flight (the
    /// drain must not close connections under them).
    writing: usize,
}

#[derive(Default)]
struct Counters {
    jobs_received: AtomicUsize,
    jobs_ok: AtomicUsize,
    jobs_failed: AtomicUsize,
    dedup_waits: AtomicUsize,
    computed: AtomicUsize,
    from_memory: AtomicUsize,
    from_store: AtomicUsize,
    stats_served: AtomicUsize,
}

/// Wall-time aggregate of one daemon stage.
#[derive(Default, Clone, Copy)]
struct StageTime {
    count: usize,
    total_us: u128,
    max_us: u128,
}

const STAGE_GENERATE: usize = 0;
const STAGE_SYNTH: usize = 1;

struct Shared {
    endpoint: Endpoint,
    store: Option<Arc<ArtifactStore>>,
    /// One pipeline per `(target, seed)`: determinism per key, and a
    /// memory cache that repeat traffic actually hits.
    pipelines: Mutex<HashMap<(Target, u64), Arc<Pipeline>>>,
    /// Each generated design's netlist name and content hash, so a
    /// warm request skips generation.
    designs: Mutex<HashMap<Design, (String, u64)>>,
    board: Mutex<Board>,
    work_cv: Condvar,
    drain_cv: Condvar,
    shutting_down: AtomicBool,
    /// A handle on every open connection, by accept order, so the drain
    /// can close them; each leaves when its reader thread ends.
    conns: Mutex<HashMap<usize, Conn>>,
    counters: Counters,
    timings: Mutex<[StageTime; 2]>,
}

impl Shared {
    // ---------------- connection handling ----------------

    fn handle_conn(&self, conn: Conn) {
        let writer = match conn.try_clone() {
            Ok(w) => Arc::new(Mutex::new(w)),
            Err(_) => return,
        };
        let mut reader = BufReader::new(conn);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let read = (&mut reader)
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut buf);
            if !read.is_ok_and(|n| n > 0) {
                break;
            }
            if buf.len() == MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
                let msg = format!("bad request: line exceeds {MAX_LINE_BYTES} bytes");
                write_line(&writer, &encode_error(0, &msg));
                let writer = writer.lock().expect("connection writer poisoned");
                let _ = writer.shutdown();
                break;
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                write_line(&writer, &encode_error(0, "bad request: line is not UTF-8"));
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_request(line.trim_end_matches(['\n', '\r'])) {
                Err(e) => {
                    write_line(&writer, &encode_error(0, &format!("bad request: {e}")));
                }
                Ok(Request::Stats { id }) => {
                    self.counters.stats_served.fetch_add(1, Ordering::Relaxed);
                    write_line(&writer, &self.stats_line(id));
                }
                Ok(Request::Shutdown { id }) => {
                    write_line(&writer, &encode_shutdown_ack(id));
                    self.begin_shutdown();
                }
                Ok(Request::Synth(req)) => self.submit(req, writer.clone()),
            }
        }
    }

    fn submit(&self, req: SynthRequest, out: Arc<Mutex<Conn>>) {
        self.counters.jobs_received.fetch_add(1, Ordering::Relaxed);
        let key: JobKey = (req.field.clone(), req.method, req.target, req.seed);
        let rejected = {
            let mut board = self.board.lock().expect("board poisoned");
            // The shutdown check must happen under the board lock:
            // workers exit with (flag set, queue empty) observed under
            // this same lock, so a job enqueued here is either seen by
            // a live worker or never enqueued at all — the drain can't
            // be left waiting on a flight no worker will pick up.
            if self.shutting_down.load(Ordering::SeqCst) {
                true
            } else {
                let waiter = Waiter {
                    req: req.clone(),
                    out: out.clone(),
                };
                match board.flights.entry(key) {
                    Entry::Occupied(mut e) => {
                        // Singleflight: join the in-flight computation.
                        e.get_mut().push(waiter);
                        self.counters.dedup_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    Entry::Vacant(e) => {
                        let key = e.key().clone();
                        e.insert(vec![waiter]);
                        board.queue.push_back(key);
                        self.work_cv.notify_one();
                    }
                }
                false
            }
        };
        if rejected {
            self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
            write_line(&out, &encode_error(req.id, "daemon is shutting down"));
        }
    }

    // ---------------- workers ----------------

    fn worker_loop(&self) {
        loop {
            let key = {
                let mut board = self.board.lock().expect("board poisoned");
                loop {
                    if let Some(key) = board.queue.pop_front() {
                        break key;
                    }
                    if self.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    board = self.work_cv.wait(board).expect("board poisoned");
                }
            };
            let outcome = self.execute(&key);
            let waiters = {
                let mut board = self.board.lock().expect("board poisoned");
                board.writing += 1;
                board.flights.remove(&key).unwrap_or_default()
            };
            for waiter in waiters {
                let line = match &outcome {
                    Ok((report, source)) => {
                        self.counters.jobs_ok.fetch_add(1, Ordering::Relaxed);
                        encode_synth_ok(&waiter.req, report, source.tag())
                    }
                    Err(message) => {
                        self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                        encode_error(waiter.req.id, message)
                    }
                };
                write_line(&waiter.out, &line);
            }
            let mut board = self.board.lock().expect("board poisoned");
            board.writing -= 1;
            if board.queue.is_empty() && board.flights.is_empty() && board.writing == 0 {
                self.drain_cv.notify_all();
            }
        }
    }

    fn execute(&self, key: &JobKey) -> Result<(ImplReport, ReportSource), String> {
        let (field_spec, method, target, seed) = key;
        let design = design_of(field_spec, *method);
        let known = self
            .designs
            .lock()
            .expect("designs poisoned")
            .get(&design)
            .cloned();
        let mut synth = Duration::ZERO;
        let hit = match &known {
            Some((name, content_hash)) => {
                let pipeline = self.pipeline_for(*target, *seed);
                let t = Instant::now();
                let hit = pipeline.lookup(name, *content_hash);
                synth += t.elapsed();
                hit
            }
            None => None,
        };
        let outcome = match hit {
            Some(hit) => Ok(hit),
            None => {
                // A spec that cannot build a field is never remembered,
                // so it keeps getting its typed error.
                let field = field_spec.build_field()?;
                let t = Instant::now();
                let net = generate(&field, *method);
                self.record_stage(STAGE_GENERATE, t.elapsed());
                let pipeline = self.pipeline_for(*target, *seed);
                let t = Instant::now();
                // A known design's tiers were probed above and missed:
                // compute without probing them a second time.
                let outcome = if known.is_some() {
                    pipeline
                        .run(&net)
                        .map(|artifacts| (artifacts.report, ReportSource::Computed))
                } else {
                    let identity = (net.name().to_string(), net.content_hash());
                    remember_bounded(
                        &mut self.designs.lock().expect("designs poisoned"),
                        design,
                        identity,
                    );
                    pipeline.run_report_sourced(&net)
                };
                synth += t.elapsed();
                outcome.map_err(|e| e.to_string())
            }
        };
        self.record_stage(STAGE_SYNTH, synth);
        if let Ok((_, source)) = &outcome {
            let counter = match source {
                ReportSource::Memory => &self.counters.from_memory,
                ReportSource::Store => &self.counters.from_store,
                ReportSource::Computed => &self.counters.computed,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn pipeline_for(&self, target: Target, seed: u64) -> Arc<Pipeline> {
        let mut map = self.pipelines.lock().expect("pipelines poisoned");
        map.entry((target, seed))
            .or_insert_with(|| {
                let mut p = default_template().with_target(target).with_place_seed(seed);
                if let Some(store) = &self.store {
                    p = p.with_artifact_hook(store.clone());
                }
                Arc::new(p)
            })
            .clone()
    }

    fn record_stage(&self, stage: usize, took: Duration) {
        let us = took.as_micros();
        let mut timings = self.timings.lock().expect("timings poisoned");
        let t = &mut timings[stage];
        t.count += 1;
        t.total_us += us;
        t.max_us = t.max_us.max(us);
    }

    // ---------------- stats ----------------

    fn stats_line(&self, id: u64) -> String {
        let c = &self.counters;
        let cache = {
            let map = self.pipelines.lock().expect("pipelines poisoned");
            map.values().fold(CacheStats::default(), |acc, p| {
                let s = p.cache_stats();
                CacheStats {
                    hits: acc.hits + s.hits,
                    store_hits: acc.store_hits + s.store_hits,
                    misses: acc.misses + s.misses,
                    inserts: acc.inserts + s.inserts,
                    entries: acc.entries + s.entries,
                }
            })
        };
        let pipelines = self.pipelines.lock().expect("pipelines poisoned").len();
        let store = match &self.store {
            Some(store) => {
                let s = store.stats();
                format!(
                    "{{\"hits\": {}, \"misses\": {}, \"corrupt\": {}, \"writes\": {}, \"write_errors\": {}}}",
                    s.hits, s.misses, s.corrupt, s.writes, s.write_errors
                )
            }
            None => "null".to_string(),
        };
        let timings = {
            let t = self.timings.lock().expect("timings poisoned");
            let stage = |s: &StageTime| {
                format!(
                    "{{\"count\": {}, \"total_us\": {}, \"max_us\": {}}}",
                    s.count, s.total_us, s.max_us
                )
            };
            format!(
                "{{\"generate\": {}, \"synth\": {}}}",
                stage(&t[STAGE_GENERATE]),
                stage(&t[STAGE_SYNTH])
            )
        };
        format!(
            "{{\"id\": {id}, \"ok\": true, \"schema\": \"rgf2m-stats/1\", \
             \"jobs_received\": {}, \"jobs_ok\": {}, \"jobs_failed\": {}, \
             \"dedup_waits\": {}, \"computed\": {}, \"from_memory\": {}, \"from_store\": {}, \
             \"pipelines\": {pipelines}, \
             \"cache\": {{\"hits\": {}, \"store_hits\": {}, \"misses\": {}, \"inserts\": {}, \"entries\": {}}}, \
             \"store\": {store}, \"timings\": {timings}}}",
            c.jobs_received.load(Ordering::Relaxed),
            c.jobs_ok.load(Ordering::Relaxed),
            c.jobs_failed.load(Ordering::Relaxed),
            c.dedup_waits.load(Ordering::Relaxed),
            c.computed.load(Ordering::Relaxed),
            c.from_memory.load(Ordering::Relaxed),
            c.from_store.load(Ordering::Relaxed),
            cache.hits,
            cache.store_hits,
            cache.misses,
            cache.inserts,
            cache.entries
        )
    }

    // ---------------- shutdown ----------------

    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        self.work_cv.notify_all();
        // Unblock the acceptor with a throwaway self-connection.
        let _ = self.endpoint.connect();
    }

    /// Waits until every accepted job has been answered, then closes
    /// the remaining connections so their reader threads exit.
    fn drain_and_close(&self) {
        let mut board = self.board.lock().expect("board poisoned");
        while !(board.queue.is_empty() && board.flights.is_empty() && board.writing == 0) {
            board = self.drain_cv.wait(board).expect("board poisoned");
        }
        drop(board);
        self.work_cv.notify_all(); // release idle workers
        for conn in self.conns.lock().expect("conns poisoned").values() {
            let _ = conn.shutdown();
        }
    }
}

/// The memo key of a job's design. A `poly` field is keyed by the set
/// of terms its exponents leave (a repeated exponent toggles its term
/// back out), so every spelling of one modulus shares an entry and no
/// key holds more than [`crate::protocol::MAX_FIELD_DEGREE`]` + 1`
/// exponents, however long the request's list.
fn design_of(field: &FieldSpec, method: Method) -> Design {
    let field = match field {
        FieldSpec::Pair { .. } => field.clone(),
        FieldSpec::Poly(exps) => {
            let mut sorted = exps.clone();
            sorted.sort_unstable();
            let mut terms: Vec<usize> = Vec::new();
            for e in sorted {
                if terms.last() == Some(&e) {
                    terms.pop();
                } else {
                    terms.push(e);
                }
            }
            FieldSpec::Poly(terms)
        }
    };
    (field, method)
}

/// Records a design's identity in a memo of at most [`MAX_DESIGNS`]
/// entries, emptying it first when a new design would pass the cap.
fn remember_bounded(
    designs: &mut HashMap<Design, (String, u64)>,
    design: Design,
    identity: (String, u64),
) {
    if designs.len() >= MAX_DESIGNS && !designs.contains_key(&design) {
        designs.clear();
    }
    designs.insert(design, identity);
}

fn write_line(out: &Arc<Mutex<Conn>>, line: &str) {
    // One write per line: on TCP, a second tiny write for the newline
    // waits out Nagle plus the peer's delayed ACK (~40-90 ms a reply).
    let framed = format!("{line}\n");
    let mut conn = out.lock().expect("connection writer poisoned");
    // A vanished client is its own problem; the daemon carries on.
    let _ = conn.write_all(framed.as_bytes());
    let _ = conn.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_designs_are_keyed_by_their_terms() {
        let poly =
            |exps: &[usize]| design_of(&FieldSpec::Poly(exps.to_vec()), Method::ProposedFlat).0;
        let canonical = FieldSpec::Poly(vec![0, 2, 3, 4, 8]);
        assert_eq!(poly(&[8, 4, 3, 2, 0]), canonical);
        assert_eq!(poly(&[0, 8, 1, 4, 1, 3, 2, 5, 5, 5, 5]), canonical);
        assert_eq!(
            poly(&[8, 4, 3, 2, 0, 7, 7, 7]),
            FieldSpec::Poly(vec![0, 2, 3, 4, 7, 8])
        );
        let padded: Vec<usize> = [8, 4, 3, 2, 0].into_iter().chain([1; 20_000]).collect();
        assert_eq!(poly(&padded), canonical);
    }

    #[test]
    fn design_memo_stays_bounded() {
        let mut designs = HashMap::new();
        let design = |m| (FieldSpec::Pair { m, n: 2 }, Method::ProposedFlat);
        for m in 0..MAX_DESIGNS {
            remember_bounded(&mut designs, design(m), (String::new(), 0));
        }
        assert_eq!(designs.len(), MAX_DESIGNS);
        // Re-recording a known design at the cap keeps every entry.
        remember_bounded(&mut designs, design(0), (String::new(), 1));
        assert_eq!(designs.len(), MAX_DESIGNS);
        // A new one past the cap starts over.
        for m in MAX_DESIGNS..3 * MAX_DESIGNS + 7 {
            remember_bounded(&mut designs, design(m), (String::new(), 0));
            assert!(designs.len() <= MAX_DESIGNS);
        }
        assert!(designs.contains_key(&design(3 * MAX_DESIGNS + 6)));
    }
}
