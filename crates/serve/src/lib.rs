//! # dm-serve
//!
//! The multi-tenant scoring server: the long-lived process that turns the
//! workspace's compile-once pipeline into the paper's "deploy to a
//! million users" story. Declarative DMML programs arrive in
//! length-prefixed frames — JSON text, or for large inputs the same JSON
//! header plus a raw `f64` slab ([`protocol`]) — compile **once** through
//! the full pipeline (parse → rewrite → size propagation → calibrated
//! physical selection → peak-memory certification), and land in a shared
//! plan cache ([`dm_lang::cache`]) keyed by (program hash, input size
//! classes, sparsity buckets) — identical workloads skip planning
//! entirely.
//!
//! Every tenant shares one set of managed resources, exactly like
//! sessions in a database:
//!
//! * one plan cache (LRU, hit/miss/eviction counters on `/metrics`),
//! * one memory budget, enforced by admission control
//!   ([`dm_buffer::session::SessionLedger`]): requests whose certified
//!   peak does not fit queue; over-budget requests run with blocked
//!   (out-of-core) kernels through one shared spill pool instead of
//!   OOMing neighbors,
//! * one stats registry and one kernel-profile store, so serving traffic
//!   keeps calibrating the cost model that plans serving traffic,
//! * one worker pool ([`dm_par::WorkerPool`]) serving connections.
//!
//! Small vector-scoring requests against the same cached plan can opt
//! into **micro-batching** ([`batch`]): stacked into the columns of a
//! single gemm under a configurable latency deadline. Each participant
//! gets exactly its own column back, with the bits of scoring it alone
//! (see the [`batch`] docs).
//!
//! Operational details — every environment variable, metrics scraping,
//! the profile-store lifecycle, troubleshooting — live in
//! `docs/OPERATIONS.md`.

#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod protocol;
pub mod server;

pub use client::ScoringClient;
pub use protocol::{Cmd, InputValue, Request, Response, ScoreResult};
pub use server::{ScoringServer, ServeConfig};
