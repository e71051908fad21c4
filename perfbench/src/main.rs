//! Command-line entry of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro-quick|repro-resume|campaign-paper|noc-replay|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --record-manifest perfbench/manifest.tsv
//! ```
//!
//! Human-readable figures go to stdout; the last stdout line is the JSON
//! result. Run it from the repository root: scratch state lives under
//! `.perfbench-work/` there and is removed on exit.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use htpb_perfbench::bench::{self, Workdir, Workload};
use htpb_perfbench::{DEFAULT_SEED, HELD_OUT_SEED};

const USAGE: &str =
    "usage: htpb-perfbench --workload <repro-quick|repro-resume|campaign-paper|noc-replay|all> \
                     [--seed N] [--seconds S] [--trace 0|1] | --record-manifest PATH";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_manifest: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        record_manifest: None,
    };
    let mut workload_given = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload_given = true;
                if name != "all" {
                    args.workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--record-manifest" => args.record_manifest = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !workload_given && args.record_manifest.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("htpb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Timed runs never collect runtime metrics.
    htpb_obs::set_enabled(false);
    let wd = match Workdir::new() {
        Ok(wd) => wd,
        Err(e) => {
            eprintln!("htpb-perfbench: work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.record_manifest {
        return match bench::record_manifest(&[DEFAULT_SEED, HELD_OUT_SEED], &wd)
            .and_then(|m| std::fs::write(path, m.render()))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("htpb-perfbench: recording the manifest: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match (args.trace, args.workload) {
        (true, _) => bench::profile(args.seed, &wd),
        (false, Some(w)) => bench::run(w, args.seed, args.seconds, &wd),
        (false, None) => bench::run_all(args.seed, args.seconds, &wd),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("htpb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
