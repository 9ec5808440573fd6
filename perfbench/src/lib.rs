//! End-to-end and per-layer benchmark of the SDG runtime.
//!
//! `perfbench --workload <kv|kv-ckpt|cf|all> --seed <n> --seconds <s>
//! --trace <0|1>` runs a workload through `Deployment` and prints one
//! JSON result line last: the end-to-end metrics untraced, the per-layer
//! metrics traced. See `perfbench/NOTES.md`.

#![forbid(unsafe_code)]

pub mod check;
pub mod client;
pub mod report;
pub mod stats;
pub mod workloads;
