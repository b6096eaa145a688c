//! `simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--length bench|smoke] [--fingerprint]`
//!
//! Prints one JSON object as its last line of standard output: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Every failed check is printed on its
//! own line before it. `--fingerprint` instead runs the workload once and
//! prints its `fingerprints.txt` line.

use simbench::measure::{fingerprint, measure, trace};
use simbench::spec::{Length, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: simbench --workload kvs_leak|kvs_sweeper|colo_xmem|peak_search \
[--seed N] [--seconds S] [--trace 0|1] [--length bench|smoke] [--fingerprint]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    length: Length,
    fingerprint: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let (mut length, mut fingerprint) = (Length::Bench, false);
    while let Some(flag) = it.next() {
        if flag == "--fingerprint" {
            fingerprint = true;
            continue;
        }
        let value = it.next().ok_or(format!("flag {flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--length" => length = Length::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        length,
        fingerprint,
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.fingerprint {
        let fp = fingerprint(args.workload, args.length, args.seed);
        println!("{}", fp.line(args.workload, args.length, args.seed));
        return;
    }
    let outcome = if args.trace {
        trace(args.workload, args.length, args.seed, args.seconds)
    } else {
        measure(args.workload, args.length, args.seed, args.seconds)
    };
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("FAIL {p}");
    }
    println!("{}", outcome.to_json());
}
