//! `perfbench` — the GADT reproduction's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `campaign`, `section8_scaled`, `serve_pooled`,
//! `serve_seeding` (see `perfbench/README.md`). With `--trace 0` the last
//! line of standard output is a JSON object with the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics of a traced run. All
//! load comes from this one process: one thread for in-process work, one
//! client connection and one server worker for the serve workloads.

mod campaign;
mod layers;
mod model;
mod section8;
mod serve;

use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports: the JSON result line plus human-readable notes
/// (tails with sample counts, check details) printed before it.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check: the run stays whole but reports
    /// `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The end-to-end figures every workload collects with tracing off.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Operations completed (mutants judged, or sessions finished).
    pub ops: u64,
    /// Wall time of the timed loop, in seconds.
    pub loop_s: f64,
    /// Per-operation latency, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Oracle questions asked across localized bugs.
    pub questions: u64,
    /// Localized bugs.
    pub bugs: u64,
    /// Time from submitting a source to its first question (sessions).
    pub first_question_ms: Vec<f64>,
    /// Time from an answer to the next question or the verdict.
    pub answer_ms: Vec<f64>,
    /// Peak RSS as the workload defines it; `VmHWM` at the end if unset.
    pub peak_rss_mb: Option<f64>,
    /// Throughput of each slice of the timed loop, in operations/s.
    pub slice_rates: Vec<f64>,
    /// Median operation latency of each slice, in milliseconds.
    pub slice_p50s: Vec<f64>,
}

/// Where a slice of the timed loop started.
pub struct Slice {
    ops: u64,
    latencies: usize,
    t: Instant,
}

impl EndToEnd {
    /// Starts a slice of the timed loop.
    pub fn slice(&self) -> Slice {
        Slice {
            ops: self.ops,
            latencies: self.op_ms.len(),
            t: Instant::now(),
        }
    }

    /// Ends a slice: adds its time to the loop's and records its
    /// throughput and median latency. Throughput and latency are
    /// reported as medians over slices, so that a burst of load from
    /// outside the benchmark moves them less.
    pub fn end_slice(&mut self, s: Slice) {
        let dt = secs(s.t);
        self.loop_s += dt;
        self.slice_rates
            .push((self.ops - s.ops) as f64 / dt.max(1e-9));
        self.slice_p50s.push(median(&self.op_ms[s.latencies..]));
    }

    /// Writes the end-to-end metrics (the same names on every workload)
    /// and the tails the sample supports into `report`.
    pub fn finish(&self, report: &mut Report, op: &str) {
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric("ops_per_s", median(&self.slice_rates), "1/s");
        report.metric("op_ms_p50", median(&self.slice_p50s), "ms");
        report.metric(
            "questions_per_bug",
            self.questions as f64 / self.bugs.max(1) as f64,
            "questions",
        );
        report.metric(
            "peak_rss_mb",
            self.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            "MiB",
        );
        report.note(format!(
            "{op}s: {} in {:.3} s ({:.3}/s overall, {} slices); set-up: {}",
            self.ops,
            self.loop_s,
            self.ops as f64 / self.loop_s.max(1e-9),
            self.slice_rates.len(),
            tails(&self.setup_s)
        ));
        report.note(format!("{op} latency (ms): {}", tails(&self.op_ms)));
        if !self.first_question_ms.is_empty() {
            report.note(format!(
                "first question (ms): {}",
                tails(&self.first_question_ms)
            ));
        }
        if !self.answer_ms.is_empty() {
            report.note(format!(
                "answer to next step (ms): {}",
                tails(&self.answer_ms)
            ));
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        let k = v.len() / 2;
        return (v[k - 1] + v[k]) / 2.0;
    }
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// The median plus the highest of p90/p99/p99.9 that has at least ten
/// samples beyond it; below forty samples, the median alone.
pub fn tails(xs: &[f64]) -> String {
    let n = xs.len();
    let mut out = format!("p50 {:.3} (n={n})", median(xs));
    if n >= 40 {
        for (q, label) in [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")] {
            if (n as f64) * (1.0 - q) >= 10.0 {
                out.push_str(&format!(", {label} {:.3}", quantile(xs, q)));
                break;
            }
        }
    }
    out
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The benchmark's input generator: a 64-bit LCG (Knuth's MMIX
/// constants), so the same seed gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// The benchmark's scratch directory, inside the checkout it runs from.
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    std::path::PathBuf::from("perfbench")
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload campaign|section8_scaled|serve_pooled|serve_seeding \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "section8_scaled" => section8::run(&args),
        "serve_pooled" => serve::run(&args, serve::Mode::Pooled),
        "serve_seeding" => serve::run(&args, serve::Mode::Seeding),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(report) => {
            for line in &report.notes {
                println!("# {line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
