//! A closed connection gives its descriptors back: a daemon serving
//! many short-lived clients keeps a steady count of open files instead
//! of holding one socket per client it ever served until shutdown.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use rgf2m_serve::client::Client;
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::server::{self, ServerConfig};

/// Open file descriptors of this process (the daemon runs in it).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

/// One client connection: a `stats` round trip, then close.
fn round_trip(endpoint: &Endpoint) {
    let mut client = Client::connect(endpoint).unwrap();
    client.stats().unwrap();
}

/// Waits up to 10 s for the count to fall to `at_most`; returns the
/// last count seen.
fn settle(at_most: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = open_fds();
        if now <= at_most || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn closed_connections_release_their_descriptors() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let endpoint = handle.endpoint().clone();
    let baseline = open_fds();
    for _ in 0..20 {
        round_trip(&endpoint);
    }
    // Each reader thread ends a moment after its client leaves.
    let after = settle(baseline);
    assert!(
        after <= baseline,
        "{after} descriptors open after 20 closed connections, {baseline} before"
    );

    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}
