//! `simbench`: the end-to-end and per-layer benchmark of the cuSync
//! simulator stack. See `README.md` beside this crate.
//!
//! ```text
//! simbench --workload figures|tune|serve --seed N --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! Prints `#` header lines, then one JSON result line.

mod calls;
mod figures;
mod harness;
mod host;
mod metrics;
mod serve;
mod stats;
mod trace;
mod tune;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Options, Outcome};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str =
    "usage: simbench --workload figures|tune|serve --seed N --seconds S --trace 0|1 [--spans FILE]";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => opts.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match workload.as_str() {
        "figures" => harness::run::<figures::Figures>(&opts, process_start),
        "tune" => harness::run::<tune::Tune>(&opts, process_start),
        "serve" => harness::run::<serve::Serve>(&opts, process_start),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(o) => {
            println!(
                "# simbench: workload={workload} seed={} seconds={} trace={}",
                opts.seed,
                opts.seconds,
                u8::from(opts.trace)
            );
            for line in &o.header {
                println!("{line}");
            }
            println!(
                "{}",
                metrics::result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
