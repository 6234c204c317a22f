//! End-to-end benchmark of the GCN-RL circuit designer workspace.
//!
//! ```text
//! perfbench --workload <train_gcnrl|search_es|bo_gp|serve_cached>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an undecorated run;
//! `--trace 1` times the same kind of work with outside-in spans around the
//! calls into each crate and prints the per-layer metrics. Both check the
//! outputs; the last line of standard output is the JSON result, and the
//! exit code is non-zero when a check failed. See `perfbench/README.md`.

mod common;
mod layers;
mod probe;
mod report;
mod search;
mod serve;
mod trace;
mod train;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["train_gcnrl", "search_es", "bo_gp", "serve_cached"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let knobs = common::foreign_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {knobs:?} set; the workloads build their own inputs"
        );
        return ExitCode::from(2);
    }
    let outcome: Outcome = match args.workload.as_str() {
        "train_gcnrl" => train::run(args.seed, args.seconds, args.trace),
        "search_es" => search::run(search::ES, args.seed, args.seconds, args.trace),
        "bo_gp" => search::run(search::BO, args.seed, args.seconds, args.trace),
        "serve_cached" => serve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    println!(
        "# workload {} seed {} trace {} on {} cores",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if outcome.print(names) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
