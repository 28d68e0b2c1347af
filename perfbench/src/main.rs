//! `zo-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gpt-h256-dram|gpt-h512-nvme|fleet-ckpt-resume|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed training loop driven through the public APIs
//! of `zero-offload`, `zo-serve`, `zo-nn` and `zo-models`, timed from the
//! outside. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! with tracers installed and prints the per-layer metrics. The last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; every line before it
//! is for people. A failed output check makes the exit code 1. See
//! `perfbench/README.md` for what each workload and metric is for.

mod chrome;
mod fleet;
mod single;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics (`--trace 0`), with units, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("tokens_per_s", "tokens/s"),
    ("step_ms.p50", "ms"),
    ("step_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("zo-nn.fwd_bwd_ms", "ms"),
    ("zo-nn.gflops", "GFLOP/s"),
    ("zo-tensor.pool_busy_ms", "ms"),
    ("zo-tensor.pool_tasks", "count"),
    ("zero-offload.engine_ms", "ms"),
    ("zero-offload.grad_offload_ms", "ms"),
    ("zero-offload.copy_back_ms", "ms"),
    ("zero-offload.d2h_bytes", "B"),
    ("zero-offload.h2d_bytes", "B"),
    ("zo-optim.cpu_adam_ms", "ms"),
    ("zo-optim.adam_melem_per_s", "Melem/s"),
    ("zo-optim.dpu_wait_ms", "ms"),
    ("zero-offload.tier.read_ms", "ms"),
    ("zero-offload.tier.write_ms", "ms"),
    ("zero-offload.tier.traffic_bytes", "B"),
    ("zero-offload.checkpoint.write_ms", "ms"),
    ("zero-offload.checkpoint.bytes", "B"),
    ("zero-offload.checkpoint.restore_ms", "ms"),
    ("zo-collectives.reduce_scatter_ms", "ms"),
    ("zo-collectives.all_gather_ms", "ms"),
    ("zero-offload.zero3.param_traffic_bytes", "B"),
    ("zo-serve.single.step_ms", "ms"),
    ("zo-serve.zero2.step_ms", "ms"),
    ("zo-serve.zero3.step_ms", "ms"),
    ("zo-trace.overhead_pct", "%"),
    ("unattributed_ms", "ms"),
    ("step_fail_ratio", "ratio"),
    ("ckpt_stall_s", "s"),
    ("resume_s", "s"),
];

const WORKLOADS: &[&str] = &["gpt-h256-dram", "gpt-h512-nvme", "fleet-ckpt-resume"];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Steps (single engine) or grants (fleet) attempted in the timed loop.
    pub attempted: u64,
    /// Attempted steps that failed or were quarantined.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why a metric of the printed set could not be measured from outside.
    pub unmeasured: BTreeMap<&'static str, String>,
    /// Extra lines for people (tail percentile, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Steps averaged at each end of a loss curve: single-step losses are
/// noisy (one sequence per step on the NVMe workload), their means are not.
const LOSS_WINDOW: usize = 4;

/// Checks one training trajectory: every loss finite, and the mean of the
/// last [`LOSS_WINDOW`] losses below the mean of the first.
pub fn check_losses(out: &mut Outcome, what: &str, losses: &[f32]) {
    let bad = losses.iter().position(|l| !l.is_finite());
    out.check(bad.is_none(), || {
        format!("{what}: loss at step {} is not finite", bad.unwrap_or(0))
    });
    let k = LOSS_WINDOW.min(losses.len() / 2);
    let mean = |ls: &[f32]| ls.iter().map(|&l| f64::from(l)).sum::<f64>() / ls.len().max(1) as f64;
    let (first, last) = (mean(&losses[..k]), mean(&losses[losses.len() - k..]));
    out.check(k > 0 && last < first, || {
        format!(
            "{what}: mean loss of the last {k} steps {last:.4} is not below the first {k} {first:.4}"
        )
    });
    out.notes.push(format!(
        "{what}: mean loss {first:.4} over the first {k} steps, {last:.4} over the last {k} of {}",
        losses.len()
    ));
}

/// Everything a workload needs from the command line and environment.
pub struct RunCtx {
    /// Workload seed; the model and data seeds derive from it.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory of this run (removed at exit).
    pub dir: PathBuf,
    /// Logical CPUs this process may use.
    pub nproc: usize,
}

impl RunCtx {
    /// A seed for one named purpose (model init, data stream, …),
    /// derived from the workload seed.
    pub fn derive(&self, purpose: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(purpose))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {}, all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The scratch directory of one run, removed when dropped — also on the
/// error paths, so a later run never finds stale checkpoints or spills.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Result<ScratchDir, String> {
        let parent = Path::new(".perfbench_tmp");
        let dir = parent.join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("resolving {dir:?}: {e}"))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no concurrent run still uses it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Pins the process environment the engines read, so an ambient CI
/// matrix cannot change a workload: the worker pool gets exactly `nproc`
/// threads and NVMe spills land in this run's scratch directory. (Fault
/// plans and tiers are set explicitly in every engine config instead.)
fn pin_environment(dir: &Path, nproc: usize) -> Result<(), String> {
    let tier_dir = dir.join("tier");
    std::fs::create_dir_all(&tier_dir).map_err(|e| format!("creating {tier_dir:?}: {e}"))?;
    // Single-threaded here: nothing has started the pool or any engine.
    std::env::set_var("ZO_THREADS", nproc.to_string());
    std::env::set_var("ZO_TIER_DIR", &tier_dir);
    Ok(())
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("fma", std::is_x86_feature_detected!("fma")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// One line identifying where and how the numbers were made.
fn stamp(args: &Args, nproc: usize) -> String {
    let features: Vec<String> = cpu_features()
        .into_iter()
        .map(|(f, on)| format!("\"{f}\":{on}"))
        .collect();
    format!(
        "stamp {{\"commit\":\"{}\",\"nproc\":{nproc},\"zo_threads\":{nproc},\"profile\":\"{}\",\
         \"cpu_features\":{{{}}},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        features.join(","),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Cumulative (busy, steal) clock ticks over all CPUs, from `/proc/stat`.
/// The first eight fields are user, nice, system, idle, iowait, irq,
/// softirq and steal; the guest fields after them repeat part of user.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    let [user, nice, system, _idle, _iowait, irq, softirq, steal] = f[..] else {
        return None;
    };
    Some((user + nice + system + irq + softirq + steal, steal))
}

fn run_workload(name: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    match name {
        "gpt-h256-dram" => single::run(&single::GPT_H256_DRAM, ctx),
        "gpt-h512-nvme" => single::run(&single::GPT_H512_NVME, ctx),
        "fleet-ckpt-resume" => fleet::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Prints one workload's metrics for people and returns them in the
/// canonical order of the metric set the run mode reports.
fn render(
    name: &str,
    out: &Outcome,
    trace: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let mut rows = Vec::new();
    for &(metric, unit) in set {
        let value = match out.metrics.get(metric) {
            Some(v) => *v,
            None if trace => {
                let why = out
                    .unmeasured
                    .get(metric)
                    .map_or("this workload does not exercise it", String::as_str);
                println!("[{name}] {metric} = 0 {unit}  (not measured: {why})");
                rows.push((metric.to_string(), 0.0, unit));
                continue;
            }
            None => {
                return Err(format!(
                    "{name}: end-to-end metric {metric} was not measured"
                ))
            }
        };
        // An empty f64 sum is -0.0; print it as 0.
        let value = value + 0.0;
        if !value.is_finite() {
            return Err(format!("{name}: metric {metric} is not finite ({value})"));
        }
        println!("[{name}] {metric} = {value} {unit}");
        rows.push((metric.to_string(), value, unit));
    }
    for note in &out.notes {
        println!("[{name}] note: {note}");
    }
    for failure in &out.check_failures {
        println!("[{name}] CHECK FAILED: {failure}");
    }
    Ok(rows)
}

fn json_line(correct: bool, attempted: u64, failed: u64, rows: &[(String, f64, &str)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = ScratchDir::create()?;
    pin_environment(&scratch.0, nproc)?;
    println!("{}", stamp(&args, nproc));
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: scratch.0.clone(),
        nproc,
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let ticks_before = cpu_ticks();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut rows = Vec::new();
    for name in &names {
        let out = run_workload(name, &ctx)?;
        let mut workload_rows = render(name, &out, args.trace)?;
        correct &= out.check_failures.is_empty() && out.failed == 0 && out.attempted > 0;
        attempted += out.attempted;
        failed += out.failed;
        if names.len() > 1 {
            for row in &mut workload_rows {
                row.0 = format!("{name}.{}", row.0);
            }
        }
        rows.extend(workload_rows);
    }
    drop(scratch);
    // A neighbour taking the host's CPUs shows up here, not in the code.
    if let (Some((b0, s0)), Some((b1, s1))) = (ticks_before, cpu_ticks()) {
        let busy = (b1 - b0).max(1) as f64;
        println!(
            "host steal: {:.1}% of busy CPU time during the run",
            100.0 * (s1 - s0) as f64 / busy
        );
    }
    println!("{}", json_line(correct, attempted.max(1), failed, &rows));
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
