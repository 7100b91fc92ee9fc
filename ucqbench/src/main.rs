//! `ucqbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ucqbench/Cargo.toml -- \
//!     --workload union_oneshot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one named workload on inputs generated from `--seed` for about
//! `--seconds` of measurement, checks every answer against an oracle
//! (outside the timers), and prints the metrics by name and unit. The last
//! line of standard output is one JSON object: with `--trace 0` it carries
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run. Any wrong answer or failed request makes the exit code 1.
//! See `METRICS.md` beside this crate for what each metric means and which
//! layer moves which end-to-end metric.

mod data;
mod ingest;
mod layers;
mod measure;
mod oneshot;
mod report;
mod served;
mod stats;
mod trace;

use measure::{E2e, Ledger};
use report::Metric;
use std::process::ExitCode;
use trace::Tracer;
use ucq_core::EvalError;

const USAGE: &str = "usage: ucqbench --workload <union_oneshot|served_pages> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The seed runs use unless told otherwise. Claims must also hold on the
/// held-out seed 7919, which tuning never looks at.
const DEFAULT_SEED: u64 = 1;

struct Workload {
    name: &'static str,
    run: fn(u64, f64, &mut Tracer) -> Result<E2e, EvalError>,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "union_oneshot",
        run: oneshot::run,
    },
    Workload {
        name: "served_pages",
        run: served::run,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive duration"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Prints the result line; the run is correct when nothing failed and
/// every metric is a number.
fn finish(ledger: &Ledger, metrics: &[Metric]) -> ExitCode {
    ledger.print_failures();
    let correct = ledger.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    report::emit(correct, ledger.attempted, ledger.failed, metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn plain(args: &Args) -> Result<ExitCode, EvalError> {
    let e = (args.workload.run)(args.seed, args.seconds, &mut Tracer::new(false))?;
    println!("{}", e.describe());
    Ok(finish(&e.ledger, &e.metrics()))
}

/// Half the time untraced, half traced (their end-to-end metrics side by
/// side give the tracing overhead), then the per-layer probe.
fn traced(args: &Args) -> Result<ExitCode, EvalError> {
    let half = args.seconds / 2.0;
    let untraced = (args.workload.run)(args.seed, half, &mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let traced = (args.workload.run)(args.seed, half, &mut tr)?;
    println!("untraced: {}", untraced.describe());
    println!("traced:   {}", traced.describe());
    let (u, t) = (untraced.metrics(), traced.metrics());
    for (a, b) in u.iter().zip(&t) {
        println!(
            "e2e {:<14} untraced {:>14.4} traced {:>14.4} {:<3} diff {:+.2}%",
            a.name,
            a.value,
            b.value,
            a.unit,
            100.0 * (b.value / a.value - 1.0)
        );
    }
    tr.print_summary("e2e");
    let overhead = t[1].value / u[1].value - 1.0;

    let mut ledger = Ledger::default();
    ledger.absorb(untraced.ledger);
    ledger.absorb(traced.ledger);
    let mut probe_tr = Tracer::new(true);
    let mut metrics = layers::probe(args.seed, &mut probe_tr, &mut ledger)?;
    probe_tr.print_summary("layers");
    metrics.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
    Ok(finish(&ledger, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::fingerprint());
    println!(
        "workload={} seed={} seconds={} trace={} workers={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        served::workers()
    );
    let run = if args.trace {
        traced(&args)
    } else {
        plain(&args)
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("evaluation failed: {e}");
            ExitCode::FAILURE
        }
    }
}
