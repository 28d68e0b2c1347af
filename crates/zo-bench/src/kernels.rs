//! Kernel-floor micro-benchmarks behind the `kernel_bench` binary.
//!
//! Measures the throughput of the repo's three hot kernel families through
//! their *public* entry points — the same code paths training executes:
//!
//! * the three GEMM variants (`matmul`, `matmul_at_b`, `matmul_a_bt`) at
//!   512³, serial and 4-way partitioned on an explicit 4-worker pool;
//! * the fp16 slice codec (`F16::from_f32_slice` / `to_f32_slice`, reached
//!   via `cast_f32_to_f16` / `cast_f16_to_f32`) against a scalar
//!   per-element baseline loop on a 16 MiB fp16 buffer;
//! * `CpuAdam::step` element throughput;
//!
//! plus the deterministic trajectory fingerprint from
//! [`crate::trajectory`], so `BENCH_kernels.json` records both *how fast*
//! the kernels are and *which numerics* produced the numbers. CI emits the
//! JSON on every run; diffing it across PRs is the machine-checkable perf
//! trajectory ROADMAP item 5 asks for.
//!
//! Timing is min-of-iterations over a small wall-clock budget: the minimum
//! is the right statistic for throughput on a shared machine (noise only
//! ever slows an iteration down).

use std::time::Instant;

use zero_offload::TierKind;
use zo_optim::{CpuAdam, CpuAdamConfig};
use zo_tensor::matmul::{
    matmul_a_bt_acc_on, matmul_a_bt_acc_serial, matmul_acc_on, matmul_acc_serial,
    matmul_at_b_acc_on, matmul_at_b_acc_serial,
};
use zo_tensor::{cast_f16_to_f32, cast_f32_to_f16, Pool, Tensor, F16};

use crate::trajectory::{run_single, PINNED_STEPS};

/// GEMM problem edge: 512³ is the shape the acceptance bar is pinned to.
pub const GEMM_DIM: usize = 512;

/// fp16 codec payload: 8 Mi elements = 16 MiB of fp16.
pub const CODEC_ELEMS: usize = 8 * 1024 * 1024;

/// CpuAdam payload: 4 Mi parameters.
pub const ADAM_ELEMS: usize = 4 * 1024 * 1024;

/// One GEMM measurement.
pub struct GemmPoint {
    /// Entry-point name: `matmul`, `matmul_at_b`, or `matmul_a_bt`.
    pub kernel: &'static str,
    /// Problem shape (m, k, n).
    pub shape: (usize, usize, usize),
    /// 1 = serial entry point, else the partition count on a pool of the
    /// same size.
    pub threads: usize,
    /// Billions of flops per second (`2·m·k·n / t`).
    pub gflops: f64,
}

/// One fp16 codec direction.
pub struct CodecPoint {
    /// `f32_to_f16` or `f16_to_f32`.
    pub dir: &'static str,
    /// Elements converted per call.
    pub elems: usize,
    /// Slice-codec throughput in GB/s of fp16 payload (`2·elems / t`).
    pub slice_gb_s: f64,
    /// Scalar per-element baseline, same unit.
    pub scalar_gb_s: f64,
}

/// CpuAdam measurement.
pub struct AdamPoint {
    /// Parameters per step.
    pub elems: usize,
    /// Elements updated per second by `CpuAdam::step`.
    pub elems_per_s: f64,
}

/// Everything `kernel_bench` measures.
pub struct KernelReport {
    /// Trajectory fingerprint of the pinned run under the current kernels.
    pub fingerprint: u64,
    /// Steps the fingerprint run trained for. When this equals
    /// [`PINNED_STEPS`] the fingerprint is comparable to the repo pin and
    /// the validator holds it to it; quick runs train fewer steps and are
    /// exempt.
    pub steps: usize,
    /// GEMM points: three kernels × threads {1, 4}.
    pub gemm: Vec<GemmPoint>,
    /// Codec points: both directions.
    pub codec: Vec<CodecPoint>,
    /// CpuAdam point.
    pub adam: AdamPoint,
}

/// Runs `f` repeatedly and returns the fastest observed wall time in
/// seconds. One warm-up call, then at least `min_iters` timed calls or
/// until `budget_s` of timed work has accumulated, whichever is longer.
pub fn best_seconds(mut f: impl FnMut(), budget_s: f64, min_iters: usize) -> f64 {
    f(); // warm-up: page in buffers, populate scratch
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0;
    while iters < min_iters || (spent < budget_s && iters < 64) {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

/// Deterministic pseudo-random fill in [-0.5, 0.5) (no `rand` dependency;
/// the bench must produce the same working set every run).
fn fill_randomish(data: &mut [f32], seed: u32) {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    for v in data {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        *v = ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5;
    }
}

fn gemm_points(quick: bool) -> Vec<GemmPoint> {
    let d = if quick { 128 } else { GEMM_DIM };
    let (budget, min_iters) = if quick { (0.02, 1) } else { (0.2, 2) };
    let flops = 2.0 * (d as f64).powi(3);
    let mut a = Tensor::zeros(d, d);
    let mut b = Tensor::zeros(d, d);
    fill_randomish(a.data_mut(), 1);
    fill_randomish(b.data_mut(), 2);
    let mut c = Tensor::zeros(d, d);
    let pool = Pool::new(4);

    // All three variants take square operands here, so `a`/`b` serve every
    // layout ((m,k)·(k,n), (k,m)ᵀ·(k,n), (m,k)·(n,k)ᵀ) unchanged.
    type SerialFn = fn(&Tensor, &Tensor, &mut Tensor) -> Result<(), zo_tensor::TensorError>;
    type PoolFn =
        fn(&Pool, usize, &Tensor, &Tensor, &mut Tensor) -> Result<(), zo_tensor::TensorError>;
    let kernels: [(&'static str, SerialFn, PoolFn); 3] = [
        ("matmul", matmul_acc_serial, matmul_acc_on),
        ("matmul_at_b", matmul_at_b_acc_serial, matmul_at_b_acc_on),
        ("matmul_a_bt", matmul_a_bt_acc_serial, matmul_a_bt_acc_on),
    ];

    let mut out = Vec::new();
    for (name, serial, on_pool) in kernels {
        for threads in [1usize, 4] {
            // The entry points accumulate; reset C outside the timed region
            // so repeated iterations don't drift toward infinity.
            let t = best_seconds(
                || {
                    c.data_mut().fill(0.0);
                    if threads == 1 {
                        serial(&a, &b, &mut c).expect("bench gemm");
                    } else {
                        on_pool(&pool, threads, &a, &b, &mut c).expect("bench gemm");
                    }
                },
                budget,
                min_iters,
            );
            out.push(GemmPoint {
                kernel: name,
                shape: (d, d, d),
                threads,
                gflops: flops / t / 1e9,
            });
        }
    }
    out
}

fn codec_points(quick: bool) -> Vec<CodecPoint> {
    let n = if quick { CODEC_ELEMS / 64 } else { CODEC_ELEMS };
    let (budget, min_iters) = if quick { (0.02, 1) } else { (0.2, 3) };
    let bytes = (n * 2) as f64;
    let mut src32 = vec![0.0f32; n];
    fill_randomish(&mut src32, 7);
    let mut dst16 = vec![F16::ZERO; n];
    cast_f32_to_f16(&src32, &mut dst16);
    let src16 = dst16.clone();
    let mut dst32 = vec![0.0f32; n];

    let narrow_slice = best_seconds(|| cast_f32_to_f16(&src32, &mut dst16), budget, min_iters);
    let narrow_scalar = best_seconds(
        || {
            for (d, s) in dst16.iter_mut().zip(&src32) {
                *d = F16::from_f32(*s);
            }
        },
        budget,
        min_iters,
    );
    let widen_slice = best_seconds(|| cast_f16_to_f32(&src16, &mut dst32), budget, min_iters);
    let widen_scalar = best_seconds(
        || {
            for (d, s) in dst32.iter_mut().zip(&src16) {
                *d = s.to_f32();
            }
        },
        budget,
        min_iters,
    );
    vec![
        CodecPoint {
            dir: "f32_to_f16",
            elems: n,
            slice_gb_s: bytes / narrow_slice / 1e9,
            scalar_gb_s: bytes / narrow_scalar / 1e9,
        },
        CodecPoint {
            dir: "f16_to_f32",
            elems: n,
            slice_gb_s: bytes / widen_slice / 1e9,
            scalar_gb_s: bytes / widen_scalar / 1e9,
        },
    ]
}

fn adam_point(quick: bool) -> AdamPoint {
    let n = if quick { ADAM_ELEMS / 64 } else { ADAM_ELEMS };
    let (budget, min_iters) = if quick { (0.02, 1) } else { (0.2, 2) };
    let mut p = vec![0.0f32; n];
    fill_randomish(&mut p, 11);
    let mut g = vec![0.0f32; n];
    fill_randomish(&mut g, 13);
    for v in &mut g {
        *v *= 0.01;
    }
    let mut opt = CpuAdam::new(CpuAdamConfig::default(), n);
    let t = best_seconds(
        || opt.step(&mut p, &g).expect("bench adam"),
        budget,
        min_iters,
    );
    AdamPoint {
        elems: n,
        elems_per_s: n as f64 / t,
    }
}

/// Runs every measurement. `quick` shrinks problem sizes and budgets to
/// smoke-test levels (used by the bench's own tests, not by CI).
pub fn run_kernel_bench(quick: bool) -> KernelReport {
    let steps = if quick { 2 } else { PINNED_STEPS };
    let fingerprint = run_single(steps, TierKind::Dram).hash;
    KernelReport {
        fingerprint,
        steps,
        gemm: gemm_points(quick),
        codec: codec_points(quick),
        adam: adam_point(quick),
    }
}

impl KernelReport {
    /// Renders the `BENCH_kernels.json` artifact. Flat hand-rendered JSON
    /// in the style of `BENCH_fingerprint.json`; `kernel_bench --assert`
    /// re-parses it through [`zo_trace::json`], so the two ends
    /// cross-check each other.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"zo-kernel-bench/1\",\n");
        s.push_str(&format!(
            "  \"trajectory_fingerprint\": \"{:016x}\",\n",
            self.fingerprint
        ));
        s.push_str(&format!("  \"trajectory_steps\": {},\n", self.steps));
        s.push_str("  \"gemm\": [\n");
        for (i, p) in self.gemm.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"threads\": {}, \"gflops\": {:.4}}}{}\n",
                p.kernel,
                p.shape.0,
                p.shape.1,
                p.shape.2,
                p.threads,
                p.gflops,
                if i + 1 < self.gemm.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"f16_codec\": [\n");
        for (i, p) in self.codec.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"dir\": \"{}\", \"elems\": {}, \"slice_gb_s\": {:.4}, \"scalar_gb_s\": {:.4}, \"speedup\": {:.3}}}{}\n",
                p.dir,
                p.elems,
                p.slice_gb_s,
                p.scalar_gb_s,
                p.slice_gb_s / p.scalar_gb_s,
                if i + 1 < self.codec.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"cpu_adam\": {{\"elems\": {}, \"elems_per_s\": {:.1}}}\n",
            self.adam.elems, self.adam.elems_per_s
        ));
        s.push_str("}\n");
        s
    }

    /// Renders the human-readable stdout table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "trajectory fingerprint {:016x}\n",
            self.fingerprint
        ));
        s.push_str("kernel        shape          threads  GFLOP/s\n");
        for p in &self.gemm {
            s.push_str(&format!(
                "{:<13} {}x{}x{:<6} {:>6}  {:>8.3}\n",
                p.kernel, p.shape.0, p.shape.1, p.shape.2, p.threads, p.gflops
            ));
        }
        s.push_str("codec         elems      slice GB/s  scalar GB/s  speedup\n");
        for p in &self.codec {
            s.push_str(&format!(
                "{:<13} {:>8}   {:>9.3}  {:>10.3}  {:>6.2}x\n",
                p.dir,
                p.elems,
                p.slice_gb_s,
                p.scalar_gb_s,
                p.slice_gb_s / p.scalar_gb_s
            ));
        }
        s.push_str(&format!(
            "cpu_adam      {:>8}   {:>12.0} elem/s\n",
            self.adam.elems, self.adam.elems_per_s
        ));
        s
    }
}

/// Validates an emitted `BENCH_kernels.json`: it must parse, carry a
/// plausible fingerprint, and every throughput field must be finite and
/// strictly positive. An artifact whose fingerprint run trained the full
/// [`PINNED_STEPS`] is additionally held to
/// [`crate::trajectory::PINNED_TRAJECTORY_FINGERPRINT`] — so a perf
/// artifact recording perturbed numerics fails the assert step instead
/// of uploading. Returns a description of the first problem found.
pub fn validate_kernel_json(text: &str) -> Result<(), String> {
    let v = zo_trace::json::parse(text).map_err(|e| format!("JSON does not parse: {e}"))?;
    let fp = v
        .get("trajectory_fingerprint")
        .and_then(|f| f.as_str())
        .ok_or("missing trajectory_fingerprint")?;
    let fp = u64::from_str_radix(fp, 16).map_err(|_| format!("fingerprint {fp:?} is not hex"))?;
    let steps = v
        .get("trajectory_steps")
        .and_then(|s| s.as_f64())
        .ok_or("missing trajectory_steps")? as usize;
    if steps == PINNED_STEPS && fp != crate::trajectory::PINNED_TRAJECTORY_FINGERPRINT {
        return Err(format!(
            "trajectory fingerprint {:016x} over {PINNED_STEPS} steps does not match the \
             pin {:016x} — the artifact records perturbed numerics",
            fp,
            crate::trajectory::PINNED_TRAJECTORY_FINGERPRINT
        ));
    }

    let positive = |val: Option<&zo_trace::json::Value>, what: &str| -> Result<(), String> {
        let x = val
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("{what}: missing or non-numeric"))?;
        if x.is_finite() && x > 0.0 {
            Ok(())
        } else {
            Err(format!("{what}: {x} is not a positive finite throughput"))
        }
    };

    let gemm = v
        .get("gemm")
        .and_then(|g| g.as_array())
        .ok_or("missing gemm array")?;
    if gemm.len() != 6 {
        return Err(format!("expected 6 gemm points, found {}", gemm.len()));
    }
    for (i, p) in gemm.iter().enumerate() {
        positive(p.get("gflops"), &format!("gemm[{i}].gflops"))?;
    }
    let codec = v
        .get("f16_codec")
        .and_then(|c| c.as_array())
        .ok_or("missing f16_codec array")?;
    if codec.len() != 2 {
        return Err(format!("expected 2 codec points, found {}", codec.len()));
    }
    for (i, p) in codec.iter().enumerate() {
        positive(p.get("slice_gb_s"), &format!("f16_codec[{i}].slice_gb_s"))?;
        positive(p.get("scalar_gb_s"), &format!("f16_codec[{i}].scalar_gb_s"))?;
    }
    positive(
        v.get("cpu_adam").and_then(|a| a.get("elems_per_s")),
        "cpu_adam.elems_per_s",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_renders_and_validates() {
        let report = run_kernel_bench(true);
        let json = report.render_json();
        validate_kernel_json(&json).expect("quick report must validate");
        assert!(report.render_table().contains("matmul"));
    }

    #[test]
    fn validator_rejects_broken_artifacts() {
        assert!(validate_kernel_json("{nope").is_err());
        assert!(validate_kernel_json("{}").is_err());
        // A zero throughput must be rejected even when everything parses.
        let mut report = run_kernel_bench(true);
        report.gemm[0].gflops = 0.0;
        assert!(validate_kernel_json(&report.render_json()).is_err());
    }

    /// Red path for the pin gate: a full-length artifact whose
    /// fingerprint is not the repo pin must fail validation (this is
    /// what `kernel_bench --assert` runs in CI), while the exact pin
    /// passes and quick runs stay exempt.
    #[test]
    fn validator_holds_full_runs_to_the_pinned_fingerprint() {
        let mut report = run_kernel_bench(true);
        report.steps = crate::trajectory::PINNED_STEPS;
        report.fingerprint = crate::trajectory::PINNED_TRAJECTORY_FINGERPRINT;
        validate_kernel_json(&report.render_json()).expect("exact pin must validate");

        report.fingerprint ^= 1;
        let err = validate_kernel_json(&report.render_json())
            .expect_err("a perturbed full-length fingerprint must be rejected");
        assert!(err.contains("does not match the pin"), "message: {err}");

        // Quick runs (fewer steps) are not comparable and stay exempt.
        report.steps = 2;
        validate_kernel_json(&report.render_json()).expect("quick runs are exempt from the pin");
    }
}
