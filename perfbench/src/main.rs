//! The roundelim benchmark: drives the release `roundelim` binary the way
//! users do and checks every answer it gets.
//!
//! ```text
//! perfbench --workload <search_c33|sim_1e6|daemon_mix|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off. `--trace 1` runs the traced per-layer suite of all three
//! workloads instead. `all` runs every workload untraced, then the traced
//! suite, and exits non-zero on any failed check. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md next to this file.

mod daemon;
mod inputs;
mod proc;
mod report;
mod search;
mod sim;
mod stats;

use report::Outcome;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["search_c33", "sim_1e6", "daemon_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let ix = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(ix + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?} or all)"));
    }
    let seed = value("--seed")?.parse().map_err(|_| "--seed needs an integer")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds needs a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn workload(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match name {
        "search_c33" => search::workload(seed, seconds),
        "sim_1e6" => sim::workload(seed, seconds),
        _ => daemon::workload(seed, seconds),
    }
}

/// The traced per-layer suite of every workload.
fn layers(seed: u64) -> Result<Outcome, String> {
    let mut out = search::layers(seed)?;
    out.absorb(sim::layers(seed)?);
    out.absorb(daemon::layers(seed)?);
    Ok(out)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.workload != "all" {
        let (title, out) = if args.trace {
            ("per-layer (traced)", layers(args.seed)?)
        } else {
            (args.workload.as_str(), workload(&args.workload, args.seed, args.seconds)?)
        };
        print!("{}", out.render(title));
        println!("{}", out.json_line());
        return Ok(ExitCode::SUCCESS);
    }
    let mut all = Outcome::default();
    for name in WORKLOADS {
        let out = workload(name, args.seed, args.seconds)?;
        print!("{}", out.render(name));
        for m in out.metrics.iter() {
            all.metric(format!("{name}.{}", m.name), m.value, m.unit);
        }
        all.attempted += out.attempted;
        all.failed += out.failed;
    }
    let traced = layers(args.seed)?;
    print!("{}", traced.render("per-layer (traced)"));
    all.attempted += traced.attempted;
    all.failed += traced.failed;
    println!("{}", all.json_line());
    Ok(if all.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
