//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the six
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced replay with `--trace 1`. Problems found by the checks go to
//! standard error.

use perfbench::measure::{self, Metric};
use perfbench::trace::Tracer;
use perfbench::workloads;
use std::process::ExitCode;

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
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = args.trace.then(Tracer::new);
    let outcome = match workloads::run(&args.workload, args.seed, args.seconds, tracer.as_mut()) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} rounds, {} requests ({} failed) in {:.3} s timed",
        args.workload,
        args.seed,
        outcome.rounds,
        outcome.attempted,
        outcome.failed,
        outcome.timed_s
    );
    let metrics = match &tracer {
        Some(tracer) => tracer.metrics(),
        None => {
            let attempted = outcome.attempted.max(1) as f64;
            vec![
                Metric {
                    name: "latency_p50_us",
                    value: measure::median(&outcome.round_p50),
                    unit: "us",
                },
                Metric {
                    name: "latency_p99_us",
                    value: measure::median(&outcome.round_p99),
                    unit: "us",
                },
                Metric {
                    name: "throughput_rps",
                    value: measure::median(&outcome.round_rps),
                    unit: "1/s",
                },
                Metric {
                    name: "reply_bytes_per_req",
                    value: outcome.reply_bytes as f64 / attempted,
                    unit: "bytes",
                },
                Metric {
                    name: "peak_rss_mb",
                    value: measure::peak_rss_mb(),
                    unit: "MiB",
                },
                Metric {
                    name: "setup_s",
                    value: measure::median(&outcome.setups),
                    unit: "s",
                },
            ]
        }
    };
    println!(
        "{}",
        measure::result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
