//! Shared plumbing: arguments, seeded randomness, statistics, the result
//! record and the stamp every result carries.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
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
}

/// SplitMix64: small, seedable, and identical on every platform, so one
/// seed always yields the same graphs, query mixes and update batches.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Median of unsorted samples (mean of the two middle values when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads and client connections the load may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload run's outcome: counted operations, the correctness verdict
/// and the metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of every wrong answer seen.
    pub mismatches: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// `(name, |V|, |E|)` of each graph the run served.
    pub graphs: Vec<(String, usize, u64)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a lane's operation counts and wrong answers.
    pub fn absorb(&mut self, lane: &crate::load::Lane) {
        self.attempted += lane.attempted;
        self.failed += lane.failed;
        for what in &lane.mismatches {
            self.mismatch(what.clone());
        }
    }

    pub fn mismatch(&mut self, what: String) {
        eprintln!("MISMATCH: {what}");
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// `1 - failed/attempted`: the share of operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number. Non-finite values (an empty sample set) cannot
/// be written as JSON; they are reported as -1, which no real measurement
/// of this benchmark produces.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What every result is stamped with: core count, the active intersection
/// kernel, the seed, the source revision, and each workload graph's size.
pub fn stamp(args: &Args, report: &Report) -> String {
    let graphs: Vec<String> = report
        .graphs
        .iter()
        .map(|(name, v, e)| {
            format!(
                "{{\"name\": {}, \"vertices\": {v}, \"edges\": {e}}}",
                json_str(name)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"kernel\": {}, \"git_rev\": {}, \"source_hash\": {}, \"graphs\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        json_str(graphpi_graph::vertex_set::active_kernel().name()),
        json_str(&git_rev().unwrap_or_else(|| "unknown".into())),
        json_str(&source_hash()),
        graphs.join(", ")
    )
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout (an exported tree has none; `source_hash` covers that).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a over the paths and bytes of every source file the benchmark
/// builds (`Cargo.lock`, `crates/`, `vendor/`, `perfbench/src/`), so two
/// results from the same tree carry the same hash with or without git.
fn source_hash() -> String {
    let mut files = BTreeMap::new();
    for root in [
        "Cargo.lock",
        "Cargo.toml",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (path, bytes) in &files {
        for b in path.to_string_lossy().bytes().chain(bytes.iter().copied()) {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(path: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
    if path.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            if let Ok(bytes) = std::fs::read(path) {
                out.insert(path.to_path_buf(), bytes);
            }
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            collect_files(&entry.path(), out);
        }
    }
}

/// Scratch directory for generated inputs, WALs and traces, inside the
/// build directory of the checkout the benchmark runs from.
pub fn work_dir(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}
