//! End-to-end daemon contract: warm-store replay of the full
//! six-method × four-target GF(2^8) grid with zero recomputations,
//! byte-identical daemon vs in-process reports, warm hits that generate
//! no netlist, singleflight dedup of concurrent identical requests,
//! graceful drain on shutdown, a bounded request line, and a typed
//! error for a line that is not UTF-8.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::{Pipeline, Target};
use rgf2m_serve::client::{Client, ClientJob};
use rgf2m_serve::json::JsonValue;
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::protocol::{
    encode_request, parse_response, FieldSpec, Request, SynthRequest, DEFAULT_SEED,
};
use rgf2m_serve::server::{self, default_template, ServerConfig};
use rgf2m_serve::store::ArtifactStore;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rgf2m-e2e-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn gf256() -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).expect("(8,2) is the paper's field"))
}

/// The daemon's per-(target, seed) pipeline, reproduced in-process.
fn pipeline_like_daemon(target: Target, seed: u64) -> Pipeline {
    default_template().with_target(target).with_place_seed(seed)
}

/// Reads one number from a `stats` document by its path.
fn stat(stats: &JsonValue, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("stats lacks {path:?}"));
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} not a number"))
}

/// How many netlists the daemon has generated.
fn generated(client: &mut Client) -> f64 {
    stat(&client.stats().unwrap(), &["timings", "generate", "count"])
}

/// Sends each request line and reads its reply, one round trip at a
/// time, returning the raw reply lines.
fn round_trips(endpoint: &Endpoint, lines: &[String]) -> Vec<String> {
    let mut conn = endpoint.connect().unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    lines
        .iter()
        .map(|line| {
            conn.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        })
        .collect()
}

/// `replies` with the tier tag `computed` swapped for `tier`.
fn retagged(replies: &[String], tier: &str) -> Vec<String> {
    replies
        .iter()
        .map(|r| {
            r.replace(
                "\"source\": \"computed\"",
                &format!("\"source\": \"{tier}\""),
            )
        })
        .collect()
}

/// A warm request generates no netlist: replaying a batch from daemon
/// memory, and from the store in a fresh daemon, leaves the `generate`
/// stage count where the first pass put it, while every reply stays
/// byte-identical to the cold one apart from its tier tag.
#[test]
fn warm_replays_generate_nothing_and_reply_byte_identically() {
    let sock = scratch("memo.sockdir").join("d.sock");
    fs::create_dir_all(sock.parent().unwrap()).unwrap();
    let store_root = scratch("memo-store");
    let lines: Vec<String> = Method::ALL
        .iter()
        .enumerate()
        .map(|(i, &method)| {
            encode_request(&Request::Synth(SynthRequest {
                id: 1 + i as u64,
                field: FieldSpec::Pair { m: 8, n: 2 },
                method,
                target: Target::Artix7,
                seed: DEFAULT_SEED,
            }))
        })
        .collect();
    let designs = Method::ALL.len() as f64;

    let spawn = || {
        server::spawn(ServerConfig::new(Endpoint::Unix(sock.clone())).with_store_root(&store_root))
            .unwrap()
    };
    let handle = spawn();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let cold = round_trips(handle.endpoint(), &lines);
    assert!(
        cold.iter().all(|r| r.contains("\"source\": \"computed\"")),
        "{cold:?}"
    );
    assert_eq!(generated(&mut client), designs);
    assert_eq!(
        round_trips(handle.endpoint(), &lines),
        retagged(&cold, "memory")
    );
    assert_eq!(generated(&mut client), designs, "a memory hit generated");
    client.shutdown().unwrap();
    handle.join().unwrap();

    // A fresh daemon over the warm store generates each design once,
    // to learn its identity, and then never again.
    let handle = spawn();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let from_store = retagged(&cold, "store");
    assert_eq!(round_trips(handle.endpoint(), &lines), from_store);
    assert_eq!(generated(&mut client), designs);
    assert_eq!(round_trips(handle.endpoint(), &lines), from_store);
    let stats = client.stats().unwrap();
    assert_eq!(
        stat(&stats, &["timings", "generate", "count"]),
        designs,
        "a store hit generated"
    );
    assert_eq!(stat(&stats, &["computed"]), 0.0);
    assert_eq!(stat(&stats, &["from_store"]), 2.0 * designs);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A new seed for a design the daemon already knows misses every tier,
/// so it still generates and computes, and its report equals an
/// in-process run's.
#[test]
fn a_fresh_seed_for_a_known_design_is_computed() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let job = ClientJob {
        field: FieldSpec::Pair { m: 8, n: 2 },
        method: Method::ProposedFlat,
        target: Target::Artix7,
        seed: DEFAULT_SEED,
    };
    assert_eq!(client.synth(&job).unwrap().unwrap().1, "computed");
    assert_eq!(client.synth(&job).unwrap().unwrap().1, "memory");
    assert_eq!(generated(&mut client), 1.0);
    let fresh = ClientJob { seed: 77, ..job };
    let (report, source) = client.synth(&fresh).unwrap().expect("valid job");
    assert_eq!(source, "computed");
    let expected = pipeline_like_daemon(Target::Artix7, 77)
        .run_report(&generate(&gf256(), Method::ProposedFlat))
        .unwrap();
    assert_eq!(report, expected);
    assert_eq!(report.time_ns.to_bits(), expected.time_ns.to_bits());
    assert_eq!(generated(&mut client), 2.0);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A known design whose tiers all miss is probed once, not twice: two
/// fresh seeds on a store-backed daemon are two computations and two
/// store misses.
#[test]
fn a_tier_miss_for_a_known_design_probes_the_store_once() {
    let config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))
        .with_store_root(scratch("probe-once"));
    let handle = server::spawn(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    for seed in [1, 2] {
        let job = ClientJob {
            field: FieldSpec::Pair { m: 8, n: 2 },
            method: Method::ProposedFlat,
            target: Target::Artix7,
            seed,
        };
        assert_eq!(client.synth(&job).unwrap().unwrap().1, "computed");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, &["computed"]), 2.0);
    assert_eq!(stat(&stats, &["store", "misses"]), 2.0);
    assert_eq!(stat(&stats, &["cache", "misses"]), 2.0);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A field that does not build is never remembered: after a valid job,
/// invalid fields keep getting their typed error, while another
/// spelling of a known modulus is served without generating.
#[test]
fn invalid_fields_keep_their_typed_error_after_valid_jobs() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let valid = ClientJob {
        field: FieldSpec::Poly(vec![8, 4, 3, 2, 0]),
        method: Method::ProposedFlat,
        target: Target::Artix7,
        seed: DEFAULT_SEED,
    };
    assert_eq!(client.synth(&valid).unwrap().unwrap().1, "computed");
    let respelled = ClientJob {
        field: FieldSpec::Poly(vec![0, 1, 2, 3, 4, 8, 1]),
        ..valid.clone()
    };
    assert_eq!(client.synth(&respelled).unwrap().unwrap().1, "memory");
    assert_eq!(generated(&mut client), 1.0);
    for _ in 0..2 {
        let pair = ClientJob {
            field: FieldSpec::Pair { m: 16, n: 2 },
            ..valid.clone()
        };
        let err = client.synth(&pair).unwrap().unwrap_err();
        assert!(
            err.contains("(16, 2) is not a valid type II pentanomial"),
            "{err}"
        );
        let reducible = ClientJob {
            field: FieldSpec::Poly(vec![8, 4, 3, 2]),
            ..valid.clone()
        };
        let err = client.synth(&reducible).unwrap().unwrap_err();
        assert!(
            err.contains("poly [8, 4, 3, 2] is not a valid modulus"),
            "{err}"
        );
    }
    assert_eq!(generated(&mut client), 1.0);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Acceptance criterion: a warm-store replay of the six-method ×
/// four-target GF(2^8) grid completes with **zero** pipeline
/// recomputations, asserted via `CacheStats`, and serves reports
/// identical to the cold run's.
#[test]
fn warm_store_replay_of_the_gf256_grid_recomputes_nothing() {
    let store = Arc::new(ArtifactStore::open(scratch("grid")).unwrap());
    let field = gf256();
    let nets: Vec<_> = Method::ALL.map(|m| generate(&field, m)).to_vec();
    let grid_size = Method::ALL.len() * Target::ALL.len();
    // Cold pass: every (method, target) cell is a genuine computation.
    let mut cold = Vec::new();
    for target in Target::ALL {
        let p = pipeline_like_daemon(target, DEFAULT_SEED).with_artifact_hook(store.clone());
        for net in &nets {
            cold.push(p.run_report(net).unwrap());
        }
        let stats = p.cache_stats();
        assert_eq!(stats.misses, Method::ALL.len(), "{target:?}: {stats:?}");
    }
    assert_eq!(store.stats().writes, grid_size);
    // Warm replay in "another process": fresh pipelines, same store.
    let mut warm = Vec::new();
    for target in Target::ALL {
        let p = pipeline_like_daemon(target, DEFAULT_SEED).with_artifact_hook(store.clone());
        for net in &nets {
            let (report, _) = p.run_report_sourced(net).unwrap();
            warm.push(report);
        }
        let stats = p.cache_stats();
        assert_eq!(stats.misses, 0, "{target:?} recomputed: {stats:?}");
        assert_eq!(stats.store_hits, Method::ALL.len(), "{target:?}: {stats:?}");
    }
    assert_eq!(warm, cold);
}

/// Daemon answers must be indistinguishable from in-process runs: the
/// reconstructed reports compare equal (floats bit-for-bit), repeat
/// traffic is served from daemon memory, and a daemon restart over the
/// same store serves from disk without recomputing.
#[test]
fn daemon_reports_match_in_process_runs_and_survive_restart() {
    let sock = scratch("daemon.sockdir").join("d.sock");
    fs::create_dir_all(sock.parent().unwrap()).unwrap();
    let store_root = scratch("daemon-store");
    let jobs: Vec<ClientJob> = Method::ALL
        .map(|method| ClientJob {
            field: FieldSpec::Pair { m: 8, n: 2 },
            method,
            target: Target::Artix7,
            seed: DEFAULT_SEED,
        })
        .to_vec();

    let handle =
        server::spawn(ServerConfig::new(Endpoint::Unix(sock.clone())).with_store_root(&store_root))
            .unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let served = client.synth_batch(&jobs).unwrap();

    let field = gf256();
    let reference = pipeline_like_daemon(Target::Artix7, DEFAULT_SEED);
    for (job, outcome) in jobs.iter().zip(&served) {
        let (report, source) = outcome.as_ref().expect("valid job");
        assert_eq!(source, "computed");
        let fresh = reference.run_report(&generate(&field, job.method)).unwrap();
        assert_eq!(*report, fresh, "{:?}", job.method);
        assert_eq!(report.time_ns.to_bits(), fresh.time_ns.to_bits());
    }
    // Same batch again: every answer now comes from daemon memory.
    for outcome in client.synth_batch(&jobs).unwrap() {
        assert_eq!(outcome.expect("valid job").1, "memory");
    }
    // An invalid job errors without disturbing the daemon.
    let invalid = ClientJob {
        field: FieldSpec::Pair { m: 16, n: 2 },
        ..jobs[0].clone()
    };
    let err = client.synth(&invalid).unwrap().unwrap_err();
    assert!(err.contains("(16, 2) is not a valid type II pentanomial"));
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Restart over the same store: no memory, but every report comes
    // off disk — nothing is recomputed, across processes.
    let handle =
        server::spawn(ServerConfig::new(Endpoint::Unix(sock.clone())).with_store_root(&store_root))
            .unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    for outcome in client.synth_batch(&jobs).unwrap() {
        assert_eq!(outcome.expect("valid job").1, "store");
    }
    let stats = client.stats().unwrap();
    let num = |path: &[&str]| stat(&stats, path);
    assert_eq!(num(&["computed"]), 0.0);
    assert_eq!(num(&["from_store"]), Method::ALL.len() as f64);
    assert_eq!(num(&["store", "hits"]), Method::ALL.len() as f64);
    assert_eq!(num(&["jobs_ok"]), Method::ALL.len() as f64);
    assert_eq!(
        stats.get("schema").and_then(JsonValue::as_str),
        Some("rgf2m-stats/1")
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Singleflight: N concurrent identical requests (over N independent
/// connections) trigger exactly one pipeline computation.
#[test]
fn concurrent_identical_requests_compute_exactly_once() {
    let handle =
        server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into())).with_workers(2))
            .unwrap();
    let endpoint = handle.endpoint().clone();
    const N: usize = 6;
    let job = ClientJob {
        field: FieldSpec::Pair { m: 8, n: 2 },
        method: Method::ProposedFlat,
        target: Target::Artix7,
        seed: DEFAULT_SEED,
    };
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let endpoint = endpoint.clone();
                let job = job.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&endpoint).unwrap();
                    client.synth(&job).unwrap().expect("valid job").0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert_eq!(r, &reports[0]);
    }
    let mut client = Client::connect(&endpoint).unwrap();
    let stats = client.stats().unwrap();
    let computed = stats.get("computed").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(computed, 1.0, "identical in-flight jobs must dedup");
    let ok = stats.get("jobs_ok").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(ok, N as f64);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Graceful shutdown drains: jobs pipelined *before* the shutdown op
/// on the same connection are all answered before the daemon exits.
#[test]
fn shutdown_drains_pipelined_work_before_exiting() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut conn = endpoint.connect().unwrap();
    let mut lines = Vec::new();
    for (i, method) in Method::ALL.iter().enumerate() {
        lines.push(encode_request(&Request::Synth(SynthRequest {
            id: 1 + i as u64,
            field: FieldSpec::Pair { m: 8, n: 2 },
            method: *method,
            target: Target::Artix7,
            seed: DEFAULT_SEED,
        })));
    }
    lines.push(encode_request(&Request::Shutdown { id: 99 }));
    conn.write_all((lines.join("\n") + "\n").as_bytes())
        .unwrap();
    conn.flush().unwrap();
    // Every synth job submitted before the shutdown op must be
    // answered; the ack may interleave anywhere.
    let reader = BufReader::new(conn.try_clone().unwrap());
    let mut ok_jobs = 0;
    let mut acked = false;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let resp = parse_response(&line).unwrap();
        if resp.id == 99 {
            acked = true;
        } else {
            assert!(resp.ok, "job {} failed: {:?}", resp.id, resp.error());
            ok_jobs += 1;
        }
        if acked && ok_jobs == Method::ALL.len() {
            break;
        }
    }
    assert!(acked, "shutdown never acknowledged");
    assert_eq!(ok_jobs, Method::ALL.len(), "drain lost answers");
    handle.join().unwrap();
    // The daemon is actually gone.
    assert!(Client::connect(&endpoint).is_err());
}

/// A TCP round trip is not held back by Nagle's algorithm: each side
/// writes a line in one piece, so 50 sequential `stats` requests take
/// milliseconds, not the ~4.4 s that split line + newline writes cost.
#[test]
fn sequential_tcp_round_trips_do_not_stall() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..50 {
        client.stats().unwrap();
    }
    let elapsed = start.elapsed();
    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 stats round trips took {elapsed:?}"
    );
}

/// A client streaming bytes without a newline cannot grow the daemon's
/// memory: past `MAX_LINE_BYTES` it gets one `bad request` reply and
/// its connection is closed, while a well-behaved client on the same
/// daemon is still served.
#[test]
fn oversized_request_line_is_refused_and_closed() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let Endpoint::Tcp(addr) = handle.endpoint().clone() else {
        unreachable!("bound over TCP")
    };
    let hostile = std::net::TcpStream::connect(&addr).unwrap();
    let timeout = Some(std::time::Duration::from_secs(10));
    hostile.set_read_timeout(timeout).unwrap();
    hostile.set_write_timeout(timeout).unwrap();
    // 1 MiB with no newline, from its own thread: the daemon stops
    // reading long before the end, so the writer may block or fail.
    let mut writer = hostile.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..16 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reply = String::new();
    BufReader::new(&hostile)
        .read_to_string(&mut reply)
        .expect("the daemon replies and closes within the timeout");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "{reply}");
    let resp = parse_response(lines[0]).unwrap();
    assert!(!resp.ok);
    let msg = resp.error().unwrap_or_default().to_string();
    assert!(
        msg.contains(&format!("line exceeds {} bytes", server::MAX_LINE_BYTES)),
        "{msg}"
    );
    let _ = hostile.shutdown(std::net::Shutdown::Both);
    flood.join().unwrap();

    let mut client = Client::connect(handle.endpoint()).unwrap();
    let job = ClientJob {
        field: FieldSpec::Pair { m: 8, n: 2 },
        method: Method::ProposedFlat,
        target: Target::Artix7,
        seed: DEFAULT_SEED,
    };
    let (report, _) = client.synth(&job).unwrap().expect("valid job");
    let expected = pipeline_like_daemon(Target::Artix7, DEFAULT_SEED)
        .run_report(&generate(&gf256(), Method::ProposedFlat))
        .unwrap();
    assert_eq!(report, expected);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A field of absurd degree is refused before it is built. This
/// 100-byte line once made the worker allocate a 10^12-degree
/// polynomial and abort the daemon; now it gets one `bad request` reply
/// naming `MAX_FIELD_DEGREE`, and the same connection's next request is
/// still served.
#[test]
fn huge_field_degree_is_refused_and_the_connection_survives() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let Endpoint::Tcp(addr) = handle.endpoint().clone() else {
        unreachable!("bound over TCP")
    };
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut round_trip = |line: &str| {
        conn.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        parse_response(reply.trim_end()).unwrap()
    };

    let hostile = r#"{"op": "synth", "id": 1, "method": "proposed", "target": "artix7", "poly": [1000000000000, 1, 0]}"#;
    let resp = round_trip(hostile);
    assert!(!resp.ok);
    let msg = resp.error().unwrap_or_default().to_string();
    assert!(msg.starts_with("bad request:"), "{msg}");
    assert!(
        msg.contains(&format!(
            "exceeds the largest supported, {}",
            rgf2m_serve::protocol::MAX_FIELD_DEGREE
        )),
        "{msg}"
    );

    let valid = encode_request(&Request::Synth(SynthRequest {
        id: 2,
        field: FieldSpec::Pair { m: 8, n: 2 },
        method: Method::ProposedFlat,
        target: Target::Artix7,
        seed: DEFAULT_SEED,
    }));
    let resp = round_trip(&valid);
    assert_eq!((resp.id, resp.ok), (2, true), "{:?}", resp.error());
    let expected = pipeline_like_daemon(Target::Artix7, DEFAULT_SEED)
        .run_report(&generate(&gf256(), Method::ProposedFlat))
        .unwrap();
    assert_eq!(resp.report().unwrap(), expected);

    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A line that is not UTF-8 gets a typed `bad request` reply with id 0,
/// and the same connection's next request is still served.
#[test]
fn non_utf8_request_line_gets_a_typed_error_and_the_connection_survives() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let Endpoint::Tcp(addr) = handle.endpoint().clone() else {
        unreachable!("bound over TCP")
    };
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let stats = encode_request(&Request::Stats { id: 7 });
    conn.write_all(b"\xff\xfe\n").unwrap();
    conn.write_all(format!("{stats}\n").as_bytes()).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut read_reply = || {
        let mut reply = String::new();
        replies
            .read_line(&mut reply)
            .expect("the daemon replies within the timeout");
        parse_response(reply.trim_end()).unwrap()
    };

    let resp = read_reply();
    assert_eq!((resp.id, resp.ok), (0, false));
    let msg = resp.error().unwrap_or_default().to_string();
    assert_eq!(msg, "bad request: line is not UTF-8");
    let resp = read_reply();
    assert_eq!((resp.id, resp.ok), (7, true), "{:?}", resp.error());

    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}
