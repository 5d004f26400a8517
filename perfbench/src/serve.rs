//! `serve-warm`: the daemon runs in-process through
//! `rgf2m_serve::server::spawn`, the code the `rgf2m-served` binary
//! runs, over a fresh store and one worker per core. The load is one
//! connection, a closed loop of single synth requests: with one
//! connection per core, the client and worker threads outnumbered the
//! cores, and the latencies measured the scheduler more than the daemon.
//!
//! Keys are (8, 2) × six methods × four targets plus (64, 23) × six
//! methods on stratix_alm, under two placement seeds drawn from the
//! workload seed:
//! * seed A keys are computed in set-up by in-process pipelines that
//!   write the daemon's store, so the daemon serves them from the store;
//! * seed B keys are computed by the daemon itself in set-up, so they
//!   sit in its memory;
//! * about 5% of requests are (8, 2) jobs under a seed never seen
//!   before, which the daemon always computes.
//!
//! Every reply must byte-equal the reply encoded from an in-process
//! `run_report` of the same job, tier tag included.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netlist::Netlist;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::{ImplReport, Pipeline, ReportSource, Target};
use rgf2m_serve::protocol::{encode_request, encode_synth_ok, parse_request, parse_response};
use rgf2m_serve::server::{default_template, spawn};
use rgf2m_serve::{
    ArtifactStore, Client, ClientJob, Endpoint, FieldSpec, JsonValue, Request, ServerConfig,
    SynthRequest,
};

use crate::common::{spread_ms, warm_up, Config, Outcome, Rng, Window, WARM_UP_S};
use crate::stats::{geomean, median, tail, trimmed_mean};
use crate::trace::Tracer;

/// Fresh-seed jobs per thousand requests.
const FRESH_PER_MILLE: usize = 50;

/// Warm requests per thousand that name a (64, 23) key; the rest name
/// an (8, 2) key. Past half, so the median request is a (64, 23) hit,
/// whose netlist generation dominates a warm request.
const MID_PER_MILLE: usize = 600;

/// Requests per pass: the number of warm keys.
const PASS_REQUESTS: usize = 60;

/// Client connections, each a closed loop.
const CONNECTIONS: usize = 1;

/// Seconds of run per stretch that the latency statistics average over.
const STRETCH_S: f64 = 10.0;

/// The requests the protocol micro-timings replay.
const PROTOCOL_SAMPLES: usize = 2000;

/// The tiers, in reply-tag order.
const TIERS: [ReportSource; 3] = [
    ReportSource::Memory,
    ReportSource::Store,
    ReportSource::Computed,
];

/// One synth job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    field: (usize, usize),
    method: Method,
    target: Target,
    seed: u64,
}

impl Key {
    fn request(&self, id: u64) -> SynthRequest {
        SynthRequest {
            id,
            field: FieldSpec::Pair {
                m: self.field.0,
                n: self.field.1,
            },
            method: self.method,
            target: self.target,
            seed: self.seed,
        }
    }
}

/// The per-seed key set.
fn keys(seed: u64) -> Vec<Key> {
    let small = Method::ALL.into_iter().flat_map(|method| {
        Target::ALL.into_iter().map(move |target| Key {
            field: (8, 2),
            method,
            target,
            seed,
        })
    });
    let mid = Method::ALL.into_iter().map(move |method| Key {
        field: (64, 23),
        method,
        target: Target::StratixAlm,
        seed,
    });
    small.chain(mid).collect()
}

/// The pipeline the daemon builds for `(target, seed)`, without its
/// store hook: the template, retargeted only off its own fabric, then
/// reseeded.
fn daemon_pipeline(target: Target, seed: u64) -> Pipeline {
    let mut p = default_template().clone_config();
    if target != p.target() {
        p = p.with_target(target);
    }
    p.with_place_seed(seed)
}

/// Netlists by (field, method), generated once.
struct Nets(Vec<((usize, usize), Method, Netlist)>);

impl Nets {
    fn build() -> Nets {
        let mut out = Vec::new();
        for field in [(8, 2), (64, 23)] {
            let f = rgf2m_bench::field_for(field.0, field.1);
            for method in Method::ALL {
                out.push((field, method, generate(&f, method)));
            }
        }
        Nets(out)
    }

    fn get(&self, key: &Key) -> &Netlist {
        &self
            .0
            .iter()
            .find(|(f, m, _)| *f == key.field && *m == key.method)
            .expect("every key's netlist is generated")
            .2
    }
}

/// Runs `f` over `items` on `threads` threads; results keep item order.
fn parallel<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Computes the in-process reference report of each key, optionally
/// through a store hook; each must be a fresh computation.
fn references(
    threads: usize,
    nets: &Nets,
    keys: &[Key],
    store: Option<&Arc<ArtifactStore>>,
) -> Result<Vec<ImplReport>, String> {
    parallel(threads, keys, |k| {
        let mut p = daemon_pipeline(k.target, k.seed);
        if let Some(store) = store {
            p = p.with_artifact_hook(store.clone());
        }
        match p.run_report_sourced(nets.get(k)) {
            Ok((r, ReportSource::Computed)) => Ok(r),
            Ok((_, src)) => Err(format!("{k:?}: reference came from {}", src.tag())),
            Err(e) => Err(format!("{k:?}: {e}")),
        }
    })
    .into_iter()
    .collect()
}

/// The workload's warm state, built in set-up.
struct Warm {
    nets: Nets,
    /// Seed A keys, then seed B keys.
    warm_keys: Vec<Key>,
    refs: Vec<ImplReport>,
    /// The tier each warm key must be served from.
    tiers: Vec<ReportSource>,
    store: PathBuf,
    endpoint: Endpoint,
    handle: rgf2m_serve::ServerHandle,
}

/// Computes the in-process references, filling the store with the seed
/// A ones, and starts the daemon over that store.
fn setup(cfg: &Config, threads: usize, store: &Path) -> Result<Warm, String> {
    let hook = Arc::new(
        ArtifactStore::open(store).map_err(|e| format!("store {}: {e}", store.display()))?,
    );
    let mut rng = Rng::new(cfg.seed, 3);
    let (keys_a, keys_b) = (keys(rng.next_u64()), keys(rng.next_u64()));
    let nets = Nets::build();
    let refs_a = references(threads, &nets, &keys_a, Some(&hook))?;
    let refs_b = references(threads, &nets, &keys_b, None)?;
    let socket = cfg
        .out_dir
        .join(format!("serve-{}.sock", std::process::id()));
    let handle = spawn(
        ServerConfig::new(Endpoint::Unix(socket))
            .with_store_root(store)
            .with_workers(threads),
    )
    .map_err(|e| format!("daemon: {e}"))?;
    let tiers = std::iter::repeat_n(ReportSource::Store, keys_a.len())
        .chain(std::iter::repeat_n(ReportSource::Memory, keys_b.len()))
        .collect();
    Ok(Warm {
        nets,
        warm_keys: keys_a.into_iter().chain(keys_b).collect(),
        refs: refs_a.into_iter().chain(refs_b).collect(),
        tiers,
        store: store.to_path_buf(),
        endpoint: handle.endpoint().clone(),
        handle,
    })
}

/// Has the daemon compute every seed B key once, so they sit in its
/// memory; each must come back computed and equal its reference.
fn fill_memory(w: &Warm) -> Result<(), String> {
    let memory: Vec<usize> = (0..w.warm_keys.len())
        .filter(|&i| w.tiers[i] == ReportSource::Memory)
        .collect();
    let jobs: Vec<ClientJob> = memory
        .iter()
        .map(|&i| {
            let k = &w.warm_keys[i];
            ClientJob {
                field: FieldSpec::Pair {
                    m: k.field.0,
                    n: k.field.1,
                },
                method: k.method,
                target: k.target,
                seed: k.seed,
            }
        })
        .collect();
    let mut client = Client::connect(&w.endpoint).map_err(|e| format!("connect: {e}"))?;
    let warmed = client
        .synth_batch(&jobs)
        .map_err(|e| format!("warm-up: {e}"))?;
    for (&i, got) in memory.iter().zip(warmed) {
        match got {
            Ok((report, tier)) if report == w.refs[i] && tier == "computed" => {}
            other => {
                return Err(format!(
                    "warm-up of {:?} returned {other:?}",
                    w.warm_keys[i]
                ))
            }
        }
    }
    Ok(())
}

/// One measured request.
struct Sample {
    key: Key,
    /// Index into the warm keys, or `None` for a fresh job.
    warm: Option<usize>,
    id: u64,
    latency_ns: u64,
    done_ns: u64,
    reply: String,
}

/// One connection's closed loop until the window closes.
fn client_loop(
    w: &Warm,
    window: &Window,
    epoch: Instant,
    seed: u64,
    conn_index: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Sample>, String> {
    let conn = w.endpoint.connect().map_err(|e| format!("connect: {e}"))?;
    let mut writer = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut rng = Rng::new(seed, 100 + conn_index);
    // Warm key indices: (8, 2) keys, then (64, 23) keys.
    let pools: [Vec<usize>; 2] = [(8, 2), (64, 23)].map(|field| {
        (0..w.warm_keys.len())
            .filter(|&i| w.warm_keys[i].field == field)
            .collect()
    });
    let mut out = Vec::new();
    let mut line = String::new();
    while !window.closed() {
        let (key, warm) = if rng.below(1000) < FRESH_PER_MILLE {
            let key = Key {
                field: (8, 2),
                method: Method::ALL[rng.below(Method::ALL.len())],
                target: Target::ALL[rng.below(Target::ALL.len())],
                seed: rng.next_u64(),
            };
            (key, None)
        } else {
            let pool = &pools[usize::from(rng.below(1000) < MID_PER_MILLE)];
            let i = pool[rng.below(pool.len())];
            (w.warm_keys[i], Some(i))
        };
        let id = (conn_index << 40) | out.len() as u64;
        let span = tracer.as_deref_mut().map(|t| {
            t.set_request(id);
            t.enter("serve.request")
        });
        // The work of one `Client::synth` call: encode, send, read the
        // reply line, parse it and rebuild the report.
        let t0 = Instant::now();
        let request = encode_request(&Request::Synth(key.request(id)));
        writer
            .write_all(request.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("daemon closed the connection".into());
        }
        let parsed = parse_response(line.trim_end()).and_then(|r| r.report());
        let latency_ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.exit(id);
        }
        parsed.map_err(|e| format!("{key:?}: {e}"))?;
        out.push(Sample {
            key,
            warm,
            id,
            latency_ns,
            done_ns: epoch.elapsed().as_nanos() as u64,
            reply: line.trim_end().to_string(),
        });
    }
    Ok(out)
}

/// Reads one stage's `(count, total_us)` from a `stats` document.
fn stage(doc: &JsonValue, name: &str) -> (f64, f64) {
    let t = doc.get("timings").and_then(|t| t.get(name));
    let field = |k| {
        t.and_then(|t| t.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    (field("count"), field("total_us"))
}

/// Median microseconds per call of `f` over `items`.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let store = cfg.out_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    warm_up(WARM_UP_S, || drop(Nets::build()));
    let t = Instant::now();
    let result = setup(cfg, threads, &store).and_then(|w| {
        let result =
            fill_memory(&w).and_then(|()| measure(cfg, &w, threads, t.elapsed().as_secs_f64()));
        // Stop the daemon and wait for it whatever the run did.
        let stopped = Client::connect(&w.endpoint)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))
            .and_then(|()| w.handle.join().map_err(|e| format!("daemon exit: {e}")));
        result.and_then(|out| stopped.map(|()| out))
    });
    let _ = std::fs::remove_dir_all(&store);
    result
}

fn measure(cfg: &Config, w: &Warm, threads: usize, setup_s: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut control = Client::connect(&w.endpoint).map_err(|e| format!("connect: {e}"))?;
    let before = control.stats().map_err(|e| format!("stats: {e}"))?;
    let epoch = Instant::now();
    let window = Window::open(cfg.seconds);
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS).map(|_| Tracer::new(epoch)).collect();
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let loops: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(c, t)| {
                let window = &window;
                s.spawn(move || {
                    client_loop(w, window, epoch, cfg.seed, c as u64, cfg.trace.then_some(t))
                })
            })
            .collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = window.elapsed();
    let after = control.stats().map_err(|e| format!("stats: {e}"))?;
    let samples: Vec<Sample> = per_conn
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    if samples.is_empty() {
        return Err("no request completed".into());
    }

    // Every reply must byte-equal the reply of an in-process run.
    let fresh: Vec<Key> = samples
        .iter()
        .filter(|s| s.warm.is_none())
        .map(|s| s.key)
        .collect();
    let fresh_refs = parallel(threads, &fresh, |k| {
        daemon_pipeline(k.target, k.seed).run_report(w.nets.get(k))
    });
    let mut fresh_refs = fresh_refs.into_iter();
    let mut tier_of = Vec::with_capacity(samples.len());
    for s in &samples {
        out.attempted += 1;
        let (expected, tier) = match s.warm {
            Some(i) => (Ok(w.refs[i].clone()), w.tiers[i]),
            None => (
                fresh_refs
                    .next()
                    .expect("one reference per fresh job")
                    .map_err(|e| e.to_string()),
                ReportSource::Computed,
            ),
        };
        tier_of.push(tier);
        match expected {
            Ok(r) if encode_synth_ok(&s.key.request(s.id), &r, tier.tag()) == s.reply => {}
            Ok(_) => out.fail(format!(
                "{:?}: reply differs from the in-process {} reply: {}",
                s.key,
                tier.tag(),
                s.reply
            )),
            Err(e) => out.fail(format!("{:?}: in-process reference failed: {e}", s.key)),
        }
    }

    // Latency statistics of each stretch of the run, averaged over the
    // stretches: a slow spell of the machine then moves them by the
    // share of the run it covers, where the median of the whole run
    // flips between the machine's speeds when a slow spell covers about
    // half of it.
    let mut by_done: Vec<&Sample> = samples.iter().collect();
    by_done.sort_by_key(|s| s.done_ns);
    let n = by_done.len();
    let stretches = ((wall_s / STRETCH_S).round() as usize).clamp(1, n);
    let (mut p50s, mut tails, mut tail_p) = (Vec::new(), Vec::new(), 100);
    for k in 0..stretches {
        let lat: Vec<f64> = by_done[k * n / stretches..(k + 1) * n / stretches]
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        p50s.push(median(&lat).expect("every stretch holds a request"));
        let (p, t) = tail(&lat).unwrap_or((100, lat.iter().copied().fold(0.0, f64::max)));
        tail_p = tail_p.min(p);
        tails.push(t);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let done: Vec<u64> = by_done.iter().map(|s| s.done_ns).collect();
    // Completion time of every PASS_REQUESTS-th reply; a pass is the
    // gap between two marks.
    let marks: Vec<u64> = std::iter::once(0)
        .chain(
            done.iter()
                .skip(PASS_REQUESTS - 1)
                .step_by(PASS_REQUESTS)
                .copied(),
        )
        .collect();
    let pass_s: Vec<f64> = marks
        .windows(2)
        .map(|m| (m[1] - m[0]) as f64 / 1e9)
        .collect();
    let luts: Vec<f64> = w.refs.iter().map(|r| r.luts as f64).collect();
    out.notes.push(format!(
        "serve-warm: {n} requests on {CONNECTIONS} connection(s) to {threads} workers in {wall_s:.2} s, {} fresh; pass {}; latency over {stretches} stretches of the run, tail is p{tail_p}",
        fresh.len(),
        spread_ms(&pass_s.iter().map(|s| s * 1e3).collect::<Vec<_>>())
    ));
    out.set("setup_s", setup_s);
    out.set("pass_s", trimmed_mean(&pass_s).unwrap_or(wall_s));
    out.set("job_p50_ms", mean(&p50s));
    out.set("job_tail_ms", mean(&tails));
    out.set("jobs_per_s", samples.len() as f64 / wall_s);
    out.set("luts_geomean", geomean(&luts).unwrap_or(0.0));
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);

    if cfg.trace {
        layer_metrics(&mut out, w, &samples, &tier_of, &before, &after);
        let spans: Vec<_> = tracers
            .iter()
            .flat_map(|t| t.spans().iter().cloned())
            .collect();
        out.spans = spans;
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    w: &Warm,
    samples: &[Sample],
    tier_of: &[ReportSource],
    before: &JsonValue,
    after: &JsonValue,
) {
    for tier in TIERS {
        let lat: Vec<f64> = samples
            .iter()
            .zip(tier_of)
            .filter(|(_, t)| **t == tier)
            .map(|(s, _)| s.latency_ns as f64 / 1e3)
            .collect();
        out.set(
            format!("serve.tier.{}_p50_us", tier.tag()),
            median(&lat).unwrap_or(0.0),
        );
        out.set(format!("serve.tier.{}_count", tier.tag()), lat.len() as f64);
    }
    let delta = |name| {
        let (c0, t0) = stage(before, name);
        let (c1, t1) = stage(after, name);
        if c1 > c0 {
            (t1 - t0) / (c1 - c0)
        } else {
            0.0
        }
    };
    let (generate_us, synth_us) = (delta("generate"), delta("synth"));
    out.set("serve.server.generate_us_per_job", generate_us);
    out.set("serve.server.synth_us_per_job", synth_us);

    // The store tier's disk read, called in-process on the same store.
    let store = ArtifactStore::at(&w.store);
    let stored: Vec<(usize, u64, u64)> = (0..w.warm_keys.len())
        .filter(|&i| w.tiers[i] == ReportSource::Store)
        .map(|i| {
            let k = &w.warm_keys[i];
            let fingerprint = daemon_pipeline(k.target, k.seed).options_fingerprint();
            (i, w.nets.get(k).content_hash(), fingerprint)
        })
        .collect();
    let loads: Vec<(usize, u64, u64)> = stored
        .iter()
        .cycle()
        .take(stored.len() * 10)
        .copied()
        .collect();
    out.set(
        "serve.store.load_us",
        per_call_us(&loads, |&(i, hash, fp)| {
            std::hint::black_box(store.load(&w.refs[i].name, hash, fp));
        }),
    );

    // The protocol codec on this run's own request and reply lines.
    let sample: Vec<&Sample> = samples.iter().take(PROTOCOL_SAMPLES).collect();
    let requests: Vec<String> = sample
        .iter()
        .map(|s| encode_request(&Request::Synth(s.key.request(s.id))))
        .collect();
    let reports: Vec<(SynthRequest, ImplReport, &str)> = sample
        .iter()
        .zip(tier_of)
        .filter_map(|(s, t)| {
            let report = parse_response(&s.reply).ok()?.report().ok()?;
            Some((s.key.request(s.id), report, t.tag()))
        })
        .collect();
    out.set(
        "serve.protocol.parse_request_us",
        per_call_us(&requests, |l| {
            std::hint::black_box(parse_request(l).is_ok());
        }),
    );
    out.set(
        "serve.protocol.encode_synth_ok_us",
        per_call_us(&reports, |(req, r, tag)| {
            std::hint::black_box(encode_synth_ok(req, r, tag));
        }),
    );
    out.set(
        "serve.protocol.parse_response_us",
        per_call_us(&sample, |s| {
            std::hint::black_box(parse_response(&s.reply).is_ok());
        }),
    );

    // Coverage: the daemon's own stage timings against what the client
    // saw. The rest is queueing, the wire and the codec.
    let mean_us =
        samples.iter().map(|s| s.latency_ns as f64).sum::<f64>() / samples.len() as f64 / 1e3;
    out.set("bench.trace.coverage", (generate_us + synth_us) / mean_us);
    // Overhead: what recording one span costs, per request.
    let mut probe = Tracer::new(Instant::now());
    let t = Instant::now();
    for _ in 0..10_000 {
        let id = probe.enter("probe");
        probe.exit(id);
    }
    let span_us = t.elapsed().as_secs_f64() * 1e6 / 10_000.0;
    out.set("bench.trace.overhead_pct", span_us / mean_us * 100.0);
}
