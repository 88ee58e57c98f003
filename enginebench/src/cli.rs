//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints context lines (prefixed `#`) and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Failed explorations are listed on standard error.

use crate::metrics::result_line;
use crate::run::{run, Options, Workload};

const USAGE: &str =
    "usage: binsym-enginebench --workload <deep-solve|shallow-exec|infeasible-flips> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parses the arguments into [`Options`].
///
/// # Errors
/// A message naming the missing or malformed argument.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs the benchmark; returns the process exit code.
pub fn main(args: impl IntoIterator<Item = String>) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return 1;
        }
    };
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    let line = match result_line(
        opts.trace,
        report.failed == 0,
        report.attempted,
        report.failed,
        &report.metrics,
    ) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return 1;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{line}");
    0
}
