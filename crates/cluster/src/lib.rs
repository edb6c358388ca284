//! The live actuation layer: a cluster-in-a-process HTTP/JSON server
//! and the wall-clock backend that drives it.
//!
//! Everything below the workspace's control plane so far has been
//! in-process: the simulator, the chaos wrapper, and test mocks all
//! share the driver's address space. This crate puts a real process
//! boundary under the same [`faro_control::ClusterBackend`] trait:
//!
//! ```text
//!   Driver::run ── Reconciler (plain) or ResilientDriver (resilient)
//!                                │ observe()/apply(), one round per tick
//!                           HttpBackend            (this crate; its Clock
//!                                │                  ends at horizon_rounds)
//!                                │ HTTP/1.1 + JSON over loopback TCP
//!                           ClusterServer          (this crate)
//!                                │
//!                           ClusterModel: pods, cold starts, load
//! ```
//!
//! * [`server::ClusterServer`] serves the versioned v1 protocol
//!   (`POST /v1/observe`, `/v1/apply`, `/v1/chaos`) over a loopback
//!   listener, fronting a [`model::ClusterModel`] whose replicas cold
//!   start on the *host's* clock — actuation visibly lags intent, as
//!   it does on a real cluster.
//! * [`client::HttpBackend`] implements [`faro_control::Clock`] (the
//!   logical `round · tick` timeline) and
//!   [`faro_control::ClusterBackend`] (observe/apply over the socket,
//!   every transport failure mapped into the
//!   [`faro_control::BackendError`] taxonomy); its `wall_now` reads
//!   the host clock as a [`faro_core::units::WallTimeMs`].
//! * [`wire`] defines the v1 envelopes. Snapshot and desired-state
//!   bodies reuse the workspace's committed serializers byte-for-byte,
//!   and untagged (pre-versioning) payloads are accepted as v1.
//!
//! The run loop's retry ladder works across it unchanged: retries,
//! circuit breaking, staleness tolerance, and desired-vs-observed
//! drift repair all act across the process boundary exactly as they
//! do in simulation — the loopback integration tests pin that down
//! under seeded server-side chaos.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code of this crate runs unattended inside long sweeps and
// against live clusters: a panic is a typed error not yet written. An
// `expect` that cannot fire carries `#[expect(clippy::expect_used,
// reason = "invariant: …")]`; test code is exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod client;
pub mod http;
pub mod model;
pub mod server;
mod wall;
pub mod wire;

pub use client::{HttpBackend, LiveConfig};
pub use model::{ClusterConfig, ClusterModel, JobConfig};
pub use server::ClusterServer;
pub use wire::{
    ApplyRequest, ApplyResponse, ChaosConfig, ErrorBody, ObserveResponse, WIRE_VERSION,
};
