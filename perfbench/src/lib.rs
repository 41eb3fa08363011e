//! End-to-end and per-layer benchmark of the turbopool simulator.
//!
//! Three seeded workloads run through the public API from one driver
//! thread. Every run is checked for correctness (a full-database digest
//! before a crash must equal the digest after restart), timed end to end,
//! and, in traced mode, attributed to layers from spans recorded around
//! the calls into each layer. `run.py` next to this crate is the entry
//! point; `BENCHMARK.json` at the repository root lists the metrics.

#![forbid(unsafe_code)]

pub mod episode;
pub mod report;
pub mod selftest;
pub mod spec;
pub mod timing;
