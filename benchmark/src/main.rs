//! One benchmark for SDE: five workloads, six end-to-end metrics, and a
//! per-layer split measured from outside the program. See `README.md`.
//!
//! ```text
//! sde-benchmark --workload W --seed N --seconds S --trace 0|1    one measurement, result on the last line
//! sde-benchmark run [--seed N] [--seconds S | --reps N] [--only W] [--out F]
//! sde-benchmark compare A.json B.json
//! ```

mod bench;
mod child;
mod compare;
mod drivers;
mod host;
mod json;
mod metrics;
mod spans;
mod stats;
mod workloads;

use bench::{Limit, RunOptions};
use std::process::ExitCode;

const USAGE: &str = "usage:
  sde-benchmark --workload W --seed N --seconds S --trace 0|1
  sde-benchmark run [--seed N] [--seconds S | --reps N] [--only W] [--out F]
  sde-benchmark compare A.json B.json
workloads: collect8_sds collect7_cow flood10_sds sense4_cob sense4_cob_shard2";

/// `--flag value` pairs after the subcommand; anything else is an error.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let at = self.0.iter().position(|(k, _)| k == name)?;
        Some(self.0.remove(at).1)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.take_parsed(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| format!("no workload named {name:?}"))
}

fn limit(flags: &mut Flags) -> Result<Limit, String> {
    let seconds: Option<f64> = flags.take_parsed("seconds")?;
    let reps: Option<usize> = flags.take_parsed("reps")?;
    match (seconds, reps) {
        (Some(_), Some(_)) => Err("--seconds and --reps exclude each other".into()),
        (_, Some(0)) => Err("--reps must be at least 1".into()),
        (_, Some(n)) => Ok(Limit::Reps(n)),
        (Some(s), None) if s.is_finite() && s >= 0.0 => Ok(Limit::Seconds(s)),
        (Some(_), None) => Err("--seconds must be a non-negative number".into()),
        (None, None) => Ok(Limit::Seconds(f64::from(bench::RUN_SECONDS))),
    }
}

fn child_main(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args.split_first().ok_or("child: missing mode")?;
    let mut flags = Flags::parse(rest)?;
    let seed: u64 = flags.require("seed")?;
    let w = flags.take("workload").map(|n| workload(&n)).transpose()?;
    let mode = match mode.as_str() {
        "timed" => child::Mode::Timed,
        "traced" => child::Mode::Traced {
            chrome_out: flags.take("chrome-out"),
        },
        "nosample" => child::Mode::NoSample,
        "dedup" => child::Mode::Dedup,
        "checkpoint" => child::Mode::Checkpoint {
            pause_events: flags.require("pause-events")?,
        },
        "drivers" => child::Mode::Drivers,
        "oracle" => child::Mode::Oracle,
        other => return Err(format!("child: unknown mode {other:?}")),
    };
    flags.finish()?;
    println!("{}", child::run(&mode, w, seed)?.to_json());
    Ok(())
}

fn compare_main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

/// `Ok(true)`: success; `Ok(false)`: ran, but a check failed or B regressed.
fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]).map(|()| true),
        Some("compare") => compare_main(&args[1..]),
        Some("run") => {
            let mut flags = Flags::parse(&args[1..])?;
            let opts = RunOptions {
                seed: flags.take_parsed("seed")?.unwrap_or(0),
                limit: limit(&mut flags)?,
                only: flags.take("only"),
                out: flags
                    .take("out")
                    .unwrap_or_else(|| "benchmark/out/run.json".into()),
            };
            flags.finish()?;
            bench::run_all(&opts)
        }
        Some(flag) if flag.starts_with("--") => {
            let mut flags = Flags::parse(args)?;
            let name: String = flags.require("workload")?;
            let seed: u64 = flags.require("seed")?;
            let seconds: f64 = flags.require("seconds")?;
            let trace: u8 = flags.require("trace")?;
            flags.finish()?;
            if trace > 1 {
                return Err("--trace is 0 or 1".into());
            }
            if !(seconds.is_finite() && seconds >= 0.0) {
                return Err("--seconds must be a non-negative number".into());
            }
            // A failed check still prints its result line (`correct:
            // false`); only an operation that could not run is an error.
            bench::measure(workload(&name)?, seed, seconds, trace == 1).map(|()| true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sde-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
