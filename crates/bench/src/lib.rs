//! Shared helpers for the binaries (`src/bin/*.rs`) and the Criterion
//! microbenches (`benches/`).
//!
//! The paper's figures and tables are regenerated by one campaign,
//! `repro_all`, which writes each section to `results/<artefact>.tsv`.
//! The other binaries validate the substrate (`noc_loadlat`, `noc_perf`,
//! `conformance`) or stress the campaign machinery (`resilience`,
//! `chaos`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a standard header for a validation binary.
pub fn banner(figure: &str, what: &str) {
    println!("==========================================================");
    println!("  {figure} — {what}");
    println!("  (reproduction; expect paper-like shapes, not numbers)");
    println!("==========================================================");
}
