//! The repository benchmark: `mine`, `serve` and `mutate` workloads driven
//! from the outside through the public APIs of the GraphPi crates.
//!
//! ```text
//! perfbench --workload <mine|serve|mutate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics instead. Every
//! answer is checked; the last line of standard output is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is 1
//! when any answer was wrong. See `perfbench/README.md`.

mod inputs;
mod layers;
mod load;
mod mine;
mod mutate;
mod serve;
mod trace;
mod util;

use load::Lane;
use std::collections::BTreeMap;
use std::time::Duration;
use trace::Tracer;
use util::{median, quantile, Args, Report};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Records the end-to-end metrics of one untraced measurement window.
pub fn end_to_end(report: &mut Report, setups: &[Duration], window: Lane) {
    report.absorb(&window);
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    report.metric("setup_s", median(&setups), "s");
    report.metric("pass_s", median(&window.passes_s), "s");
    report.metric(
        "qps",
        window.reads() as f64 / window.elapsed.as_secs_f64(),
        "1/s",
    );
    report.metric("read_p50_ms", read_p50(&window.reads_ms), "ms");
    report.metric("read_p99_ms", read_p99(&window.reads_ms), "ms");
    report.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
    report.metric("ok_ratio", report.ok_ratio(), "ratio");
    eprintln!(
        "window: {} passes, {} reads in {:.2} s",
        window.passes_s.len(),
        window.reads(),
        window.elapsed.as_secs_f64()
    );
}

/// The median, over patterns, of each pattern's median read latency. The
/// patterns' latencies differ by up to 100x, so a pooled median sits on
/// the edge between two patterns' latency groups and flips between them
/// from run to run; the median of the per-pattern medians does not.
fn read_p50(reads: &[(usize, f64)]) -> f64 {
    let mut by_pattern: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(pattern, ms) in reads {
        by_pattern.entry(pattern).or_default().push(ms);
    }
    let medians: Vec<f64> = by_pattern.values().map(|r| median(r)).collect();
    median(&medians)
}

/// Reads per chunk of [`read_p99`]: enough for 20 samples above the 99th
/// percentile.
const TAIL_CHUNK: usize = 2000;

/// The median, over consecutive chunks of at least [`TAIL_CHUNK`] reads
/// (one chunk when there are fewer), of each chunk's 99th percentile over
/// all patterns. A stall of the shared host inflates the chunks it falls
/// in, not the run.
fn read_p99(reads: &[(usize, f64)]) -> f64 {
    let all: Vec<f64> = reads.iter().map(|&(_, ms)| ms).collect();
    let chunks = (all.len() / TAIL_CHUNK).max(1);
    let size = all.len() / chunks;
    let tails: Vec<f64> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks {
                all.len()
            } else {
                (i + 1) * size
            };
            quantile(&all[i * size..end], 0.99)
        })
        .collect();
    median(&tails)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <mine|serve|mutate> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work = util::work_dir(&args);
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "mine" => mine::run(&args, &work, &tracer, &mut report),
        "serve" => serve::run(&args, &work, &tracer, &mut report),
        "mutate" => mutate::run(&args, &work, &tracer, &mut report),
        other => Err(format!("unknown workload {other:?} (mine, serve, mutate)")),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }

    if args.trace {
        let path = work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let spans = tracer.snapshot();
        match trace::write_spans(&path, &spans) {
            Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    println!("stamp: {}", util::stamp(&args, &report));
    for (name, value, unit) in report.metrics() {
        println!("{name} = {} {unit}", util::json_num(*value));
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
