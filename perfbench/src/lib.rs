//! Benchmark of the htpb reproduction, end to end and layer by layer.
//!
//! Every layer is driven only through its public functions and timed from
//! outside; see `README.md` for the workloads, the metrics and the map
//! from each layer metric to the end-to-end metric it moves.

#![forbid(unsafe_code)]

pub mod bench;
pub mod campaign;
pub mod manifest;
pub mod probe;
pub mod replay;
pub mod repro;
pub mod stats;

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A second seed whose digests the manifest also records, so an output
/// check never rests on the one seed a change was developed against.
pub const HELD_OUT_SEED: u64 = 97;
