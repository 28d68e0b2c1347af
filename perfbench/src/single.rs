//! The single-engine workloads: one `ZeroOffloadEngine` training a GPT
//! through `step_streamed` (overlapped gradient offload) in a closed loop.
//!
//! The end-to-end run times each step from outside. The per-layer run
//! trains two identical engines on the same batches, alternating which
//! steps first: one untraced, one with a `zo_trace::Tracer` installed.
//! Per-layer numbers come from the traced engine's spans and counters
//! plus the benchmark's own timer around the backward closure; the
//! traced/untraced step-time ratio is the tracing overhead.

use std::time::{Duration, Instant};

use zero_offload::{
    FaultsRef, StepOutcome, TierKind, TracerRef, ZeroOffloadConfig, ZeroOffloadEngine,
};
use zo_fault::FaultPlan;
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};
use zo_trace::Tracer;

use crate::stats::{covered, median, tail};
use crate::{check_losses, peak_rss_mb, Outcome, RunCtx};

/// Shape of a single-engine workload.
pub struct SingleSpec {
    /// Workload name (for messages).
    pub name: &'static str,
    /// Model architecture.
    pub gpt: GptConfig,
    /// Sequences per step.
    pub batch: usize,
    /// Where the fp32 optimizer states live.
    pub tier: TierKind,
}

/// Compute-bound: forward/backward is most of the step.
pub const GPT_H256_DRAM: SingleSpec = SingleSpec {
    name: "gpt-h256-dram",
    gpt: GptConfig {
        vocab: 64,
        seq_len: 32,
        hidden: 256,
        heads: 16,
        layers: 4,
    },
    batch: 8,
    tier: TierKind::Dram,
};

/// Optimizer- and tier-bound: a wide, shallow model on one sequence,
/// with the optimizer states spilled to the file-backed NVMe tier.
pub const GPT_H512_NVME: SingleSpec = SingleSpec {
    name: "gpt-h512-nvme",
    gpt: GptConfig {
        vocab: 64,
        seq_len: 32,
        hidden: 512,
        heads: 32,
        layers: 2,
    },
    batch: 1,
    tier: TierKind::Nvme,
};

/// Engine constructions timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 5;
/// Untimed steps before the timed region (pool start-up, first-touch).
const WARMUP_STEPS: usize = 2;
/// Shortest trajectory the loss check judges; a timed loop cut shorter
/// is followed by untimed steps, so the check never depends on speed.
const MIN_CHECKED_STEPS: usize = 16;

/// The engine configuration every benchmark engine uses: fault injection
/// explicitly off and the tier explicitly set, whatever the environment.
pub fn engine_config(tier: TierKind, tracer: Option<TracerRef>) -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        loss_scale: LossScaleConfig {
            init_scale: 256.0,
            ..LossScaleConfig::default()
        },
        adam: AdamParams {
            lr: 1e-3,
            ..AdamParams::default()
        },
        dpu_warmup: None,
        optimizer_tier: tier,
        tracer,
        faults: Some(FaultsRef::install(FaultPlan::disabled())),
        ..ZeroOffloadConfig::default()
    }
}

/// Analytic model FLOPs of one forward+backward step (backward = 2×
/// forward): the block GEMMs (QKV+output 4h², MLP 8h² per token), the
/// attention score and context products over the full `seq × seq`
/// square, and the LM head.
pub fn step_flops(gpt: &GptConfig, batch: usize) -> f64 {
    let (h, s, l, v) = (
        gpt.hidden as f64,
        gpt.seq_len as f64,
        gpt.layers as f64,
        gpt.vocab as f64,
    );
    let per_token = l * (24.0 * h * h + 4.0 * s * h) + 2.0 * h * v;
    3.0 * per_token * batch as f64 * s
}

/// What one step did, seen from outside.
struct StepRecord {
    wall_ms: f64,
    closure_ms: f64,
    /// Step window on the traced engine's clock, µs.
    window_us: (u64, u64),
    pool_tasks: u64,
    pool_busy_ns: u64,
    /// Traced-engine counter deltas (0 when untraced).
    tier_traffic: u64,
}

/// One engine with its own data stream position and bookkeeping.
struct Trainer {
    engine: ZeroOffloadEngine<GptModel>,
    tracer: Tracer,
    losses: Vec<f32>,
    steps: Vec<StepRecord>,
}

impl Trainer {
    /// One closed-loop step on `inputs`/`targets`, with every output
    /// check the workload makes.
    fn step(
        &mut self,
        spec: &SingleSpec,
        inputs: &[usize],
        targets: &[usize],
        out: &mut Outcome,
    ) -> Option<StepRecord> {
        let (batch, seq) = (spec.batch, spec.gpt.seq_len);
        let params = self.engine.master_params().len() as u64;
        let before = *self.engine.stats();
        let traffic_before = self.tracer.counter_total("tier_traffic_bytes");
        let pool_before = zo_tensor::pool::global().stats();
        let mut closure = Duration::ZERO;
        let t_start = self.tracer.now_us();
        let start = Instant::now();
        let result = self.engine.step_streamed(|m, s| {
            let c0 = Instant::now();
            let r = m.train_step_hooked(inputs, targets, batch, seq, s);
            closure = c0.elapsed();
            r
        });
        let wall = start.elapsed();
        let t_end = self.tracer.now_us();
        let pool_after = zo_tensor::pool::global().stats();
        let after = *self.engine.stats();
        let step_no = self.losses.len();
        let loss = match result {
            Ok(StepOutcome::Applied { loss }) => loss,
            Ok(other) => {
                out.check(false, || {
                    format!("{}: step {step_no} was not applied: {other:?}", spec.name)
                });
                return None;
            }
            Err(e) => {
                out.check(false, || {
                    format!("{}: step {step_no} failed: {e:?}", spec.name)
                });
                return None;
            }
        };
        self.losses.push(loss);
        // The paper's traffic claim: 2M bytes of fp16 gradients down and
        // 2M bytes of fp16 parameters up, every step.
        let (d2h, h2d) = (
            after.d2h_bytes - before.d2h_bytes,
            after.h2d_bytes - before.h2d_bytes,
        );
        out.check(d2h == 2 * params && h2d == 2 * params, || {
            format!(
                "{}: step {step_no} moved d2h={d2h} h2d={h2d} bytes, expected {} each",
                spec.name,
                2 * params
            )
        });
        Some(StepRecord {
            wall_ms: wall.as_secs_f64() * 1e3,
            closure_ms: closure.as_secs_f64() * 1e3,
            window_us: (t_start, t_end),
            pool_tasks: pool_after.tasks - pool_before.tasks,
            pool_busy_ns: pool_after.busy_ns - pool_before.busy_ns,
            tier_traffic: self.tracer.counter_total("tier_traffic_bytes") - traffic_before,
        })
    }
}

fn build(spec: &SingleSpec, model_seed: u64, tracer: Option<Tracer>) -> Trainer {
    let cfg = engine_config(spec.tier, tracer.clone().map(TracerRef::install));
    Trainer {
        engine: ZeroOffloadEngine::new(GptModel::new(spec.gpt, model_seed), cfg),
        tracer: tracer.unwrap_or_else(Tracer::disabled),
        losses: Vec::new(),
        steps: Vec::new(),
    }
}

/// Runs one single-engine workload for `ctx.seconds`.
pub fn run(spec: &SingleSpec, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let model_seed = ctx.derive(1);
    let mut data = BigramLm::new(spec.gpt.vocab, 0.05, ctx.derive(2));

    // Set-up: the median of several timed constructions; the last one
    // trains. (The per-layer run does not report set-up.)
    let mut trainers = if ctx.trace {
        vec![
            build(spec, model_seed, None),
            build(spec, model_seed, Some(Tracer::new())),
        ]
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let t = Instant::now();
            let trainer = build(spec, model_seed, None);
            setups.push(t.elapsed().as_secs_f64());
            last = Some(trainer);
        }
        out.set("setup_s", median(&setups));
        vec![last.expect("at least one construction")]
    };

    for _ in 0..WARMUP_STEPS {
        let b = data.batch(spec.batch, spec.gpt.seq_len);
        for t in &mut trainers {
            t.step(spec, &b.inputs, &b.targets, &mut out);
        }
    }
    if !out.check_failures.is_empty() {
        return Err(format!("warm-up failed: {}", out.check_failures.join("; ")));
    }

    let limit = Duration::from_secs(ctx.seconds);
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed() < limit {
        let b = data.batch(spec.batch, spec.gpt.seq_len);
        // Alternate which engine goes first so neither always runs on
        // the caches (and the pool) the other just warmed.
        let n = trainers.len();
        for k in 0..n {
            let t = &mut trainers[(round + k) % n];
            out.attempted += 1;
            match t.step(spec, &b.inputs, &b.targets, &mut out) {
                Some(rec) => t.steps.push(rec),
                None => out.failed += 1,
            }
        }
        round += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    while trainers[0].losses.len() < MIN_CHECKED_STEPS && out.check_failures.is_empty() {
        let b = data.batch(spec.batch, spec.gpt.seq_len);
        for t in &mut trainers {
            t.step(spec, &b.inputs, &b.targets, &mut out);
        }
    }

    for (t, label) in trainers.iter().zip(["untraced", "traced"]) {
        check_losses(&mut out, &format!("{} {label}", spec.name), &t.losses);
    }
    if !ctx.trace {
        let t = &trainers[0];
        let walls: Vec<f64> = t.steps.iter().map(|s| s.wall_ms).collect();
        let tokens = (t.steps.len() * spec.batch * spec.gpt.seq_len) as f64;
        out.set("tokens_per_s", tokens / loop_s);
        out.set("step_ms.p50", median(&walls));
        let tl = tail(&walls);
        out.set("step_ms.tail", tl.value);
        out.notes.push(format!(
            "step_ms.tail is p{} of {} steps ({} beyond it)",
            tl.pct, tl.samples, tl.beyond
        ));
        out.set("peak_rss_mb", peak_rss_mb()?);
    } else {
        per_layer(spec, &trainers[0], &trainers[1], &mut out);
    }
    Ok(out)
}

/// Derives the per-layer metrics from the traced engine's steps.
fn per_layer(spec: &SingleSpec, plain: &Trainer, traced: &Trainer, out: &mut Outcome) {
    let steps = &traced.steps;
    let spans = traced.tracer.spans();
    let params = traced.engine.master_params().len() as f64;
    let med = |f: &dyn Fn(&StepRecord) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    // Sum of span durations of `name` starting inside each step, ms.
    let phase = |name: &str| -> f64 {
        med(&|r: &StepRecord| {
            spans
                .iter()
                .filter(|s| s.name == name && (r.window_us.0..r.window_us.1).contains(&s.start_us))
                .map(|s| s.dur_us as f64 / 1e3)
                .sum()
        })
    };

    let fwd_bwd = med(&|r| r.closure_ms);
    out.set("zo-nn.fwd_bwd_ms", fwd_bwd);
    out.set(
        "zo-nn.gflops",
        step_flops(&spec.gpt, spec.batch) / (fwd_bwd * 1e-3) / 1e9,
    );
    out.set(
        "zo-tensor.pool_busy_ms",
        med(&|r| r.pool_busy_ns as f64 / 1e6),
    );
    out.set("zo-tensor.pool_tasks", med(&|r| r.pool_tasks as f64));
    out.set("zero-offload.engine_ms", med(&|r| r.wall_ms - r.closure_ms));
    out.set("zero-offload.grad_offload_ms", phase("grad_offload"));
    out.set("zero-offload.copy_back_ms", phase("param_copy_back"));
    // Checked equal to 2M on every step; reported per step.
    out.set("zero-offload.d2h_bytes", 2.0 * params);
    out.set("zero-offload.h2d_bytes", 2.0 * params);
    let adam = phase("cpu_adam");
    out.set("zo-optim.cpu_adam_ms", adam);
    out.set("zo-optim.adam_melem_per_s", params / (adam * 1e-3) / 1e6);
    out.set(
        "zero-offload.tier.read_ms",
        phase(zo_trace::names::TIER_READ),
    );
    out.set(
        "zero-offload.tier.write_ms",
        phase(zo_trace::names::TIER_WRITE),
    );
    out.set(
        "zero-offload.tier.traffic_bytes",
        med(&|r| r.tier_traffic as f64),
    );

    let plain_s: f64 = plain.steps.iter().map(|r| r.wall_ms).sum();
    let traced_s: f64 = steps.iter().map(|r| r.wall_ms).sum();
    out.set("zo-trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    let intervals: Vec<(f64, f64)> = spans
        .iter()
        .map(|s| (s.start_us as f64, s.end_us() as f64))
        .collect();
    out.set(
        "unattributed_ms",
        med(&|r| {
            let (lo, hi) = (r.window_us.0 as f64, r.window_us.1 as f64);
            (hi - lo - covered(&intervals, lo, hi)) / 1e3
        }),
    );
    out.set(
        "step_fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "{} traced and {} untraced steps; per-step medians",
        steps.len(),
        plain.steps.len()
    ));
}
