//! Command line, untraced and traced runs, and the one-command sweep over
//! every workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use starsense_core::fingerprint_observations;

use crate::golden;
use crate::json::{Metric, RunRecord};
use crate::replay::traced_pass;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{
    build_constellation, campaign_start, run_iteration, set_up, Inputs, IterationOutput, Seeds,
    Size, Workload, DEFAULT_SEED,
};

/// Set-ups before the reference iteration and again before every timed
/// iteration, so the set-up samples span the whole run; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 5;
/// Timed iterations per untraced run, at least, however short `--seconds`.
pub const MIN_SAMPLES: usize = 3;
/// Worker threads for untraced campaigns: the host's parallelism, at most 2.
pub const MAX_THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One workload, or `None` for all of them, each in its own process.
    pub workload: Option<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time per run.
    pub seconds: f64,
    /// Traced per-layer run instead of the untraced end-to-end run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench [--workload fleet_oracle|paper_pipeline|fleet_resume|all] \
[--seed N] [--seconds S] [--trace 0|1]";

/// Parses `args` (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options { workload: None, seed: DEFAULT_SEED, seconds: 30.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => opts.workload = None,
            "--workload" => {
                opts.workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Worker threads for untraced campaigns.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_THREADS)
}

/// Where runs leave their trace files and summaries (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty scratch directory for this process, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `out/scratch-<tag>-<pid>`.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = out_dir().join(format!("scratch-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `f`, turning a panic into an error carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
            (Some(s), _) => format!("panicked: {s}"),
            (_, Some(s)) => format!("panicked: {s}"),
            _ => "panicked".to_string(),
        }),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM line")?;
    Ok(kb / 1024.0)
}

/// A finished run: the record and the human-readable lines printed above it.
pub struct Outcome {
    /// The result record.
    pub record: RunRecord,
    /// Lines printed before the record.
    pub lines: Vec<String>,
}

fn metric(spec: &MetricSpec, value: f64) -> Metric {
    Metric { name: spec.name.to_string(), value, unit: spec.unit.to_string() }
}

fn same_result(a: &IterationOutput, b: &IterationOutput) -> bool {
    a.fingerprint == b.fingerprint
        && a.ident_accuracy.to_bits() == b.ident_accuracy.to_bits()
        && a.rf_top5_accuracy.map(f64::to_bits) == b.rf_top5_accuracy.map(f64::to_bits)
        && a.checkpoint_bytes == b.checkpoint_bytes
}

/// Sets up [`SETUP_REPS`] times, appending each set-up time to `times`,
/// and returns the last inputs.
fn set_up_reps(w: Workload, size: Size, seed: u64, threads: usize, times: &mut Vec<f64>) -> Inputs {
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (made, s) = set_up(w, size, seed, threads);
        times.push(s);
        inputs = Some(made);
    }
    inputs.expect("SETUP_REPS is positive")
}

/// The untraced end-to-end run: set up, run one untimed reference
/// iteration (checked against the golden values for the default seed, and
/// for `fleet_resume` against its one-shot stream) and read the peak RSS,
/// then time iterations for `seconds` (at least [`MIN_SAMPLES`]), each of
/// which must reproduce the reference exactly. Set-up is repeated before
/// every timed iteration.
pub fn run_untraced(w: Workload, size: Size, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let threads = bench_threads();
    let mut setup_s = Vec::new();
    let inputs = set_up_reps(w, size, seed, threads, &mut setup_s);
    let scratch = Scratch::new(w.name())?;
    let mut lines = vec![format!(
        "workload {} seed {seed}: {} terminals x {} slots, threads {threads}",
        w.name(),
        inputs.terminals.len(),
        size.slots
    )];
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (1u64, 0u64);

    let reference = guarded(|| run_iteration(&inputs, threads, scratch.path()))
        .map_err(|e| format!("reference iteration failed: {e}"))?;
    // One campaign's peak: later iterations only add allocator reuse noise.
    let peak_mb = peak_rss_mb()?;
    if seed == DEFAULT_SEED && size == w.size() {
        if let Err(e) = golden::check(w, &reference) {
            problems.push(e);
        }
    }
    if w == Workload::FleetResume {
        let one_shot = inputs.campaign(threads).run(campaign_start(), size.slots);
        let want = fingerprint_observations(&one_shot);
        if want != reference.fingerprint {
            problems.push(format!(
                "stop-then-resume fingerprint {:#018x} differs from one-shot {want:#018x}",
                reference.fingerprint
            ));
        }
    }
    if !problems.is_empty() {
        failed += 1;
    }

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let cells = inputs.cells() as f64;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut timed = 0;
    while timed < MIN_SAMPLES || start.elapsed() < budget {
        timed += 1;
        attempted += 1;
        drop(set_up_reps(w, size, seed, threads, &mut setup_s));
        match guarded(|| run_iteration(&inputs, threads, scratch.path())) {
            Ok(out) => {
                walls.push(out.wall_s);
                rates.push(cells / out.campaign_s);
                if !same_result(&out, &reference) {
                    failed += 1;
                    problems.push(format!("iteration {timed} differs from the reference: {out:?}"));
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("iteration {timed}: {e}"));
            }
        }
    }
    if walls.is_empty() {
        return Err(format!("no iteration completed: {problems:?}"));
    }

    let (q1, q3) = quartiles(&walls);
    let values =
        [median(&walls), median(&rates), median(&setup_s), peak_mb, reference.ident_accuracy];
    let metrics: Vec<Metric> = END_TO_END.iter().zip(values).map(|(s, v)| metric(s, v)).collect();
    for m in &metrics {
        lines.push(format!("{:<22} {:>16.6} {}", m.name, m.value, m.unit));
    }
    lines.push(format!("wall_s quartiles {q1:.6} .. {q3:.6} s over {} samples", walls.len()));
    let samples: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    lines.push(format!("wall_s samples {}", samples.join(" ")));
    if let Some(rf) = reference.rf_top5_accuracy {
        lines.push(format!("rf_top5_accuracy       {rf:>16.6} ratio"));
    }
    if let Some(bytes) = reference.checkpoint_bytes {
        lines.push(format!(
            "checkpoint_mb          {:>16.6} MB ({bytes} bytes)",
            bytes as f64 / (1024.0 * 1024.0)
        ));
    }
    lines.push(format!("fingerprint {:#018x}", reference.fingerprint));
    lines.push(format!("failed_share {} ({failed}/{attempted})", failed as f64 / attempted as f64));
    lines.extend(problems.iter().map(|p| format!("check failed: {p}")));
    let record = RunRecord { correct: problems.is_empty(), attempted, failed, metrics };
    Ok(Outcome { record, lines })
}

/// The traced per-layer run: [`SETUP_REPS`] constellation builds under
/// spans, then traced passes (see [`traced_pass`]) for `seconds`, at
/// least one. Each per-layer value is the median over passes. The spans
/// are written to `out/trace-<workload>-seed<seed>.json` at the end.
pub fn run_traced(w: Workload, size: Size, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let seeds = Seeds::derive(seed);
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut constellation = None;
    for _ in 0..SETUP_REPS {
        let at = tr.spans().len();
        constellation = Some(tr.time("constellation.build", || build_constellation(&seeds)));
        builds.push(tr.spans()[at].duration_ns() as f64 * 1e-9);
    }
    let constellation = constellation.expect("SETUP_REPS is positive");
    let inputs = Inputs::from_parts(w, size, seeds, constellation);
    let scratch = Scratch::new(&format!("{}-trace", w.name()))?;
    let mut lines = vec![format!(
        "traced workload {} seed {seed}: {} terminals x {} slots, serial",
        w.name(),
        inputs.terminals.len(),
        size.slots
    )];

    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while attempted == 0 || start.elapsed() < budget {
        attempted += 1;
        match guarded(|| traced_pass(&mut tr, &inputs, scratch.path())) {
            Ok(pass) => {
                if !pass.failures.is_empty() {
                    failed += 1;
                    problems.extend(pass.failures);
                }
                passes.push(pass.metrics);
            }
            Err(e) => {
                failed += 1;
                problems.push(e);
            }
        }
    }
    if passes.is_empty() {
        return Err(format!("no traced pass completed: {problems:?}"));
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for spec in &PER_LAYER {
        let value = if spec.name == "constellation.build_s" {
            median(&builds)
        } else {
            let samples: Option<Vec<f64>> =
                passes.iter().map(|p| p.get(spec.name).copied()).collect();
            median(&samples.ok_or(format!("pass lacks {}", spec.name))?)
        };
        lines.push(format!("{:<36} {:>18.6} {}", spec.name, value, spec.unit));
        metrics.push(metric(spec, value));
    }
    lines.push(format!("{} traced passes, {} spans", passes.len(), tr.spans().len()));
    let trace_path = out_dir().join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&trace_path, tr.to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    lines.push(format!("spans written to {}", trace_path.display()));
    lines.extend(problems.iter().map(|p| format!("check failed: {p}")));
    let record = RunRecord { correct: problems.is_empty(), attempted, failed, metrics };
    Ok(Outcome { record, lines })
}

/// Runs every workload, each in a fresh child process of this program so
/// that `peak_rss_mb` is per workload, and writes the records to
/// `out/summary-trace<0|1>.json`. Returns the combined record, whose
/// metric names are prefixed with the workload name.
pub fn run_all(opts: &Options) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut combined = RunRecord { correct: true, attempted: 0, failed: 0, metrics: Vec::new() };
    let mut summary = String::from("{");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let record = RunRecord::from_json(last).map_err(|e| format!("{}: {e}", w.name()))?;
        combined.correct &= record.correct && output.status.success();
        combined.attempted += record.attempted;
        combined.failed += record.failed;
        for m in &record.metrics {
            combined.metrics.push(Metric { name: format!("{}.{}", w.name(), m.name), ..m.clone() });
        }
        if i > 0 {
            summary.push_str(",\n");
        }
        summary.push_str(&format!("{}: {last}", crate::json::quote(w.name())));
    }
    summary.push_str("}\n");
    let path = out_dir().join(format!("summary-trace{}.json", u8::from(opts.trace)));
    std::fs::write(&path, summary).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(combined)
}

/// Entry point shared by `main`: returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("{}: {e}", out_dir().display());
        return 1;
    }
    let result = match opts.workload {
        None => run_all(&opts).map(|record| Outcome { record, lines: Vec::new() }),
        Some(w) if opts.trace => run_traced(w, w.size(), opts.seed, opts.seconds),
        Some(w) => run_untraced(w, w.size(), opts.seed, opts.seconds),
    };
    match result {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.record.to_json());
            if outcome.record.correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("benchmark run failed: {e}");
            1
        }
    }
}
