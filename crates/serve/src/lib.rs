//! # mps-serve — a long-running compile server over [`mps::Session`]
//!
//! The batch compiler answers "compile these graphs once"; this crate
//! answers "keep compiling graphs, fast, for as long as the process
//! lives". A [`Server`] accepts newline-delimited JSON requests over a
//! TCP socket (thread per connection) or stdin/stdout, answers cache
//! hits and compiles misses on the thread that read them (at most
//! `workers` compiles at once, each holding a permit), and layers two
//! instances of one cache type, [`mps::SingleFlightCache`]:
//!
//! * an **artifact cache**: whole [`mps::CompileResult`]s keyed by
//!   `(graph content hash, config content hash)` — a repeated request is
//!   a hash lookup;
//! * a process-wide **pattern-table cache** ([`mps::TableCache`])
//!   underneath: different configs over one graph share the expensive
//!   §5.1 enumeration.
//!
//! The type is single-flight, so a burst of identical requests runs one
//! compile — and overload-proof: optional entry/byte budgets with LRU
//! eviction, abandonment (a panicked or cancelled compute wakes its
//! waiters instead of wedging them), and no caching of transient
//! (deadline/cancel) outcomes. Requests may carry a
//! `deadline_ms`; a miss that finds every permit held and the line of
//! waiters full **sheds** with a structured
//! `overloaded` reply and retry hint rather than blocking, and a
//! [`FaultPlan`] can inject stage delays/failures, dropped replies and
//! slow reads for chaos testing. Per-stage latency histograms
//! (p50/p90/p99, from
//! [`mps::StageMetrics`]) and cache/request counters are served by the
//! `stats` verb and, optionally, streamed as JSON event lines
//! ([`Server::set_log`]). A `shutdown` request drains admitted compiles
//! and stops cleanly.
//!
//! ## Protocol
//!
//! One JSON object per line, in and out (see [`protocol`]):
//!
//! ```text
//! → {"op":"compile","workload":"fig2","span":1}
//! ← {"ok":true,"op":"compile","cached":false,"cycles":5,...}
//! → {"op":"compile","graph":"node a mul\n...","pdef":3}
//! → {"op":"stats"}      → {"op":"ping"}      → {"op":"shutdown"}
//! ```
//!
//! ## In-process use
//!
//! ```
//! use mps_serve::{Server, ServeOptions, protocol::Reply};
//!
//! let server = Server::new(ServeOptions { workers: 1, ..Default::default() });
//! let (line, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
//! let Reply::Compile(reply) = Reply::from_line(&line).unwrap() else { panic!() };
//! assert_eq!(reply.cycles, 3);
//! // The same request again is answered from the artifact cache.
//! let (line, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
//! let Reply::Compile(reply) = Reply::from_line(&line).unwrap() else { panic!() };
//! assert!(reply.cached);
//! ```
//!
//! Over a real socket, [`spawn_loopback`] boots a server on an ephemeral
//! port and [`Client`] drives it — the shape of the integration tests,
//! the serving benches, and the `mps serve` / `mps client` subcommands.
//!
//! ## Fleet
//!
//! Daemons started with `--peer` form a coordination-free **fleet**:
//! every member builds the same rendezvous-hash ring ([`ring::PeerRing`])
//! over the membership, so they all agree which member *owns* each
//! compile key. A compile arriving at a non-owner is forwarded one hop
//! to its owner (the `forwarded` wire flag makes a second hop
//! impossible) over a pooled persistent connection, which probes and
//! handoffs share, so a forwarded hit pays no TCP dial (`peer_dials` in
//! `stats` counts the dials made); if the owner is unreachable,
//! shedding past one courtesy retry, or past the forward deadline, the
//! receiving daemon **fails over** — computes locally, answers the
//! client, and pushes the finished artifact to the owner (hinted
//! handoff) so the ring converges back to one authoritative copy. Peer health is tracked per member by
//! [`peer::PeerTable`] (Healthy → Probation → Ejected with jittered
//! backoff re-probes), fed by in-band forward results and a background
//! ping prober. The `peers` verb and `peer_*` stats counters expose all
//! of it; `artifact_put` / `artifact_get` are the replication verbs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod fault;
pub mod histogram;
pub mod peer;
pub mod protocol;
pub mod ring;
mod server;

/// Re-export of the JSON codec, which moved to `mps::json` so the core
/// crate's persistent artifact format ([`mps::artifact`]) can share it.
/// Kept at this path for compatibility with existing `mps_serve::json`
/// users (wire protocol, log parsing).
pub use mps::json;

pub use client::Client;
pub use fault::FaultPlan;
pub use peer::{PeerState, PeerTable};
pub use ring::{Owner, PeerRing};
pub use server::{spawn_loopback, spawn_on, ServeOptions, Server};
