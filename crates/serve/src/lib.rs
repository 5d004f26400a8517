//! Synthesis-as-a-service for the reconfigurable GF(2^m) multiplier
//! flow: a persistent, content-addressed artifact store plus a
//! concurrent serving daemon over the [`Pipeline`](rgf2m_fpga::Pipeline).
//!
//! Two layers:
//!
//! * [`store::ArtifactStore`] — one schema-versioned JSON document per
//!   pipeline cache key (`Netlist::content_hash` × options
//!   fingerprint), written atomically, read defensively (anything
//!   corrupt is a miss). Plugged into a pipeline via
//!   [`rgf2m_fpga::Pipeline::with_artifact_hook`], it makes the
//!   memoized flow survive process restarts: a cold six-method ×
//!   four-target Table V grid is computed once ever.
//! * [`server`] / [`client`] — the `rgf2m-served` daemon: newline-
//!   delimited JSON over a Unix socket or localhost TCP, `Method` /
//!   `Target` registry validation, singleflight dedup of identical
//!   in-flight jobs, a bounded worker pool with deterministic per-job
//!   seeds, a `stats` op, and graceful drain on `shutdown`.
//!
//! The serialization substrate is the workspace's hand-rolled,
//! byte-deterministic JSON ([`json`]) — no serde, no new
//! dependencies.
//!
//! # Example
//!
//! ```
//! use rgf2m_serve::client::{Client, ClientJob};
//! use rgf2m_serve::net::Endpoint;
//! use rgf2m_serve::protocol::FieldSpec;
//! use rgf2m_serve::server::{self, ServerConfig};
//! use rgf2m_core::Method;
//! use rgf2m_fpga::{place::DEFAULT_SEED, Target};
//!
//! // An ephemeral in-process daemon (port 0 = pick a free port).
//! let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into())))?;
//!
//! let mut client = Client::connect(handle.endpoint())?;
//! let job = ClientJob {
//!     field: FieldSpec::Pair { m: 8, n: 2 },
//!     method: Method::ProposedFlat,
//!     target: Target::Artix7,
//!     seed: DEFAULT_SEED,
//! };
//! let (report, source) = client.synth(&job)?.expect("valid job");
//! assert!(report.luts > 0);
//! assert_eq!(source, "computed");
//! // The same job again is a cache hit inside the daemon.
//! let (_, source) = client.synth(&job)?.expect("valid job");
//! assert_eq!(source, "memory");
//!
//! client.shutdown()?;
//! handle.join()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod json;
pub mod net;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::{Client, ClientJob, SynthOutcome};
pub use json::{json_string, parse_json, JsonValue};
pub use net::{AnyListener, Conn, Endpoint};
pub use protocol::{FieldSpec, Request, SynthRequest};
pub use server::{default_template, ServerConfig, ServerHandle};
pub use store::{ArtifactStore, StoreStats, ARTIFACT_SCHEMA};
