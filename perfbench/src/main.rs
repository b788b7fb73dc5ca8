//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints a human-readable table and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when a correctness check fails and 2
//! on bad arguments or a refused environment.

use perfbench::{layers, machine, serve, sim, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload sync_airway|coupled_particles|serve_jobs --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = machine::forbidden_env() {
        eprintln!("perfbench: refusing to run with {var} set: it changes the measured program");
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", machine::describe());

    let window = Duration::from_secs(args.seconds);
    // Daemon data directories live under the working directory and are
    // removed before exit.
    let work = PathBuf::from(".perfbench_work");
    let report = match (args.workload, args.trace) {
        (Workload::SyncAirway, false) => sim::end_to_end(&sim::sync_airway(args.seed), window),
        (Workload::CoupledParticles, false) => {
            sim::end_to_end(&sim::coupled_particles(args.seed), window)
        }
        (Workload::ServeJobs, false) => serve::end_to_end(args.seed, window, &work),
        (w, true) => layers::traced(w, args.seed, window, &work),
    };
    let _ = std::fs::remove_dir_all(&work);

    print!("{}", report.render_table());
    println!("{}", report.to_json());
    if report.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
