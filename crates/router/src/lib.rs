//! # dlm-router
//!
//! A consistent-hash sharding tier in front of `dlm-serve` backends.
//!
//! The paper's model predicts each cascade independently, which makes
//! cascades the natural sharding unit: a cluster of `dlm-serve`
//! processes can split the cascade id space with no cross-shard state
//! at all. This crate is the tier that does the splitting, std-only
//! like the server beneath it:
//!
//! * placement — the consistent-hash ring with virtual nodes lives in
//!   [`dlm_cluster::ring`]: deterministic placement from the configured
//!   backend addresses, balanced key splits, minimal remapping when the
//!   backend set changes, and N-way owner walks
//!   ([`dlm_cluster::HashRing::route_n`]) for replicated placement;
//! * [`proxy`] — [`proxy::RouterState`], a [`dlm_serve::LineService`]
//!   that forwards `open`/`ingest`/`forecast` lines **verbatim** to the
//!   owning backend(s) over pooled [`dlm_serve::LineClient`] connections
//!   (reconnect-on-failure, per-backend error surfacing), answers
//!   `stats` by scatter-gathering every backend on the
//!   [`dlm_numerics::pool`] executor and summing the shard counters,
//!   and serves the `join`/`drain`/`remove` admin verbs that mutate the
//!   topology live under a `ring_version` epoch — `drain` streams each
//!   resident cascade's `dlm-cluster` snapshot to its new owner before
//!   the node leaves (a handoff, not a re-`open`), and
//!   [`RouterConfig::data_replicas`] `>= 2` keeps every cascade on
//!   multiple backends so killing one loses nothing.
//!
//! Because the router relays backend bytes untouched and speaks the
//! same JSON-lines protocol on its front (see `docs/PROTOCOL.md`), a
//! client pointed at a router instead of a single server sees
//! byte-identical forecasts — the `router_roundtrip` integration test
//! and every `serve_load` gate run both prove it over real sockets.
//!
//! ## Example (in-process cluster)
//!
//! ```no_run
//! use dlm_data::{SyntheticWorld, WorldConfig};
//! use dlm_router::{RouterConfig, RouterState};
//! use dlm_serve::server::{DlmServer, ServeConfig, ServerState};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two backends sharing one synthetic world...
//! let world = SyntheticWorld::generate(WorldConfig::default())?;
//! let b0 = DlmServer::bind(
//!     "127.0.0.1:0",
//!     ServerState::with_world(ServeConfig::default(), world.clone())?,
//! )?;
//! let b1 = DlmServer::bind(
//!     "127.0.0.1:0",
//!     ServerState::with_world(ServeConfig::default(), world)?,
//! )?;
//! // ...and one router tier in front of them.
//! let router = RouterState::new(RouterConfig::new(vec![
//!     b0.local_addr().to_string(),
//!     b1.local_addr().to_string(),
//! ]))?;
//! let front = DlmServer::bind("127.0.0.1:0", router)?;
//! println!("route cascades to {}", front.local_addr());
//! # Ok(())
//! # }
//! ```
//!
//! Standalone: `dlm-router --addr HOST:PORT --backend HOST:PORT
//! --backend HOST:PORT ...` (see the binary's `--help`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod proxy;

pub use proxy::{RouterConfig, RouterState, REBALANCE_CHUNK};
