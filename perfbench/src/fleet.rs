//! The fleet workload: `zo-serve` co-schedules three jobs — `single` with
//! the delayed parameter update on, `zero2` and `zero3` at world 2 — that
//! checkpoint on a fixed cadence. Each cycle crashes the service partway
//! (drops it), resubmits the jobs to a fresh `Service` on the same
//! checkpoint root so they resume, and runs them to completion. Cycles
//! repeat, each on a fresh root, until the timed region is spent.
//!
//! Every `Service::tick` grants one step of one job and is timed from
//! outside. The per-layer run maps each job's spans from
//! `Service::chrome_trace_json` onto the benchmark's clock: a job's
//! tracer starts inside its `submit`, so the submit instant is its epoch.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use zero_offload::{run_zero3_ranks, TierKind, TracerRef, ZeroOffloadConfig};
use zo_fault::FaultPlan;
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_serve::{
    fingerprint_run, run_solo, DataMode, JobReport, JobSpec, JobState, Service, StageSpec,
};
use zo_trace::Tracer;

use crate::single::{engine_config, step_flops};
use crate::stats::{covered, median, tail};
use crate::{check_losses, chrome, peak_rss_mb, Outcome, RunCtx};

const MODEL: GptConfig = GptConfig {
    vocab: 64,
    seq_len: 32,
    hidden: 128,
    heads: 8,
    layers: 2,
};
const BATCH: usize = 4;
const STEPS: usize = 24;
const CHECKPOINT_EVERY: usize = 8;
/// Steps every job has applied when the first service is dropped (a
/// checkpoint step, so the resumed jobs replay nothing).
const CRASH_AT: usize = 16;
const DPU_WARMUP: u64 = 4;
const JOBS: [&str; 3] = ["single", "zero2", "zero3"];

/// The three job specs of one cycle, derived from the workload seed.
fn specs(ctx: &RunCtx) -> Vec<JobSpec> {
    let world = ctx.nproc.clamp(1, 2);
    JOBS.iter()
        .enumerate()
        .map(|(i, name)| {
            let mut spec = JobSpec::new(*name, MODEL, STEPS);
            spec.model_seed = ctx.derive(10 + i as u64);
            spec.data_seed = ctx.derive(20 + i as u64);
            spec.batch = BATCH;
            spec.data = DataMode::Sliced;
            spec.config = engine_config(TierKind::Dram, None);
            spec.faults = Some(FaultPlan::disabled());
            spec.checkpoint_every = CHECKPOINT_EVERY;
            spec.stage = match *name {
                "single" => {
                    spec.config.dpu_warmup = Some(DPU_WARMUP);
                    StageSpec::Single
                }
                "zero2" => StageSpec::Zero2 { world },
                _ => StageSpec::Zero3 { world },
            };
            spec
        })
        .collect()
}

/// One timed `Service::tick`.
struct Grant {
    job: usize,
    cycle: usize,
    /// Window on the benchmark clock, µs since the run started.
    t0: f64,
    t1: f64,
    wrote_checkpoint: bool,
    pool_tasks: u64,
    pool_busy_ns: u64,
}

impl Grant {
    fn wall_ms(&self) -> f64 {
        (self.t1 - self.t0) / 1e3
    }
}

/// A span on the benchmark clock.
struct JobSpan {
    job: usize,
    name: String,
    start: f64,
    end: f64,
}

struct Fleet {
    base: Instant,
    grants: Vec<Grant>,
    spans: Vec<JobSpan>,
    restarts: u64,
}

impl Fleet {
    fn now_us(&self) -> f64 {
        self.base.elapsed().as_secs_f64() * 1e6
    }

    /// Submits every spec; returns each job's submit instant (its
    /// tracer's epoch on the benchmark clock) and each submit's seconds.
    fn submit_all(
        &self,
        svc: &mut Service,
        specs: &[JobSpec],
    ) -> Result<(Vec<f64>, Vec<f64>), String> {
        let mut epochs = Vec::new();
        let mut secs = Vec::new();
        for spec in specs {
            let t = Instant::now();
            epochs.push(self.now_us());
            svc.submit(spec.clone())
                .map_err(|e| format!("submit {}: {e}", spec.name))?;
            secs.push(t.elapsed().as_secs_f64());
        }
        Ok((epochs, secs))
    }

    /// One timed tick. Returns whether any job is still running.
    fn grant(&mut self, svc: &mut Service, cycle: usize) -> Result<bool, String> {
        let logged = svc.schedule_log().len();
        let pool0 = zo_tensor::pool::global().stats();
        let t0 = self.now_us();
        let more = svc.tick();
        let t1 = self.now_us();
        let pool1 = zo_tensor::pool::global().stats();
        let log = svc.schedule_log();
        if log.len() != logged + 1 {
            return Err(format!(
                "a tick granted {} steps, expected 1",
                log.len() - logged
            ));
        }
        let entry = &log[logged];
        let job = JOBS
            .iter()
            .position(|j| *j == entry.job)
            .ok_or_else(|| format!("unknown job {} in the schedule", entry.job))?;
        let done = entry.step + 1;
        self.grants.push(Grant {
            job,
            cycle,
            t0,
            t1,
            wrote_checkpoint: done.is_multiple_of(CHECKPOINT_EVERY) && done < STEPS,
            pool_tasks: pool1.tasks - pool0.tasks,
            pool_busy_ns: pool1.busy_ns - pool0.busy_ns,
        });
        Ok(more)
    }

    /// Moves the service's spans onto the benchmark clock.
    fn harvest(&mut self, svc: &Service, epochs: &[f64]) -> Result<(), String> {
        for s in chrome::spans(&svc.chrome_trace_json())? {
            let tag = s.track.split('/').next().unwrap_or_default();
            let job = JOBS
                .iter()
                .position(|j| *j == tag)
                .ok_or_else(|| format!("span on unknown track {}", s.track))?;
            let start = epochs[job] + s.ts;
            self.spans.push(JobSpan {
                job,
                name: s.name,
                start,
                end: start + s.dur,
            });
        }
        Ok(())
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Per-cycle measurements.
struct Cycle {
    setup_s: f64,
    timed_s: f64,
    resume_s: f64,
    restore_s: Vec<f64>,
    ckpt_bytes: u64,
    /// Each job's trajectory fingerprint: the pre-crash losses spliced
    /// onto the resumed run's, then the final master.
    fingerprints: Vec<u64>,
}

fn run_cycle(
    fleet: &mut Fleet,
    ctx: &RunCtx,
    specs: &[JobSpec],
    cycle: usize,
    out: &mut Outcome,
) -> Result<Cycle, String> {
    let root = ctx.dir.join(format!("ckpt-{cycle}"));
    let sched_seed = ctx.derive(3);

    let setup = Instant::now();
    let mut svc = Service::with_checkpoint_root(sched_seed, &root);
    let (epochs, _) = fleet.submit_all(&mut svc, specs)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let crashed = Instant::now();
    while svc.schedule_log().len() < JOBS.len() * CRASH_AT {
        if !fleet.grant(&mut svc, cycle)? {
            return Err("jobs finished before the crash point".into());
        }
    }
    let mut timed = crashed.elapsed();
    // Bookkeeping outside the timed region: the pre-crash trajectory
    // and, when tracing, the spans.
    let before = svc.report();
    if ctx.trace {
        fleet.harvest(&svc, &epochs)?;
    }

    let resumed = Instant::now();
    drop(svc);
    let resubmit = Instant::now();
    let mut svc = Service::with_checkpoint_root(sched_seed, &root);
    let (epochs, restore_s) = fleet.submit_all(&mut svc, specs)?;
    let resume_s = resubmit.elapsed().as_secs_f64();
    for name in JOBS {
        let at = svc.steps_done(name);
        out.check(at == CRASH_AT, || {
            format!("cycle {cycle}: {name} resumed at step {at}, expected {CRASH_AT}")
        });
    }
    while fleet.grant(&mut svc, cycle)? {}
    timed += resumed.elapsed();
    if ctx.trace {
        fleet.harvest(&svc, &epochs)?;
    }

    let after = svc.report();
    drop(svc);
    let ckpt_bytes = dir_bytes(&root);
    std::fs::remove_dir_all(&root).map_err(|e| format!("removing {root:?}: {e}"))?;
    let mut fingerprints = Vec::new();
    for (a, b) in before.jobs.iter().zip(&after.jobs) {
        fleet.restarts += u64::from(a.restarts + b.restarts);
        out.check(
            b.state == JobState::Completed && b.steps_done == STEPS,
            || {
                format!(
                    "cycle {cycle}: {} ended {:?} at step {}",
                    b.name, b.state, b.steps_done
                )
            },
        );
        let mut losses = a.losses[..CRASH_AT.min(a.losses.len())].to_vec();
        losses.extend_from_slice(&b.losses);
        fingerprints.push(fingerprint_run(&losses, &b.master));
    }
    Ok(Cycle {
        setup_s,
        timed_s: timed.as_secs_f64(),
        resume_s,
        restore_s,
        ckpt_bytes,
        fingerprints,
    })
}

/// Runs the fleet workload for `ctx.seconds`.
pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs = specs(ctx);
    let mut fleet = Fleet {
        base: Instant::now(),
        grants: Vec::new(),
        spans: Vec::new(),
        restarts: 0,
    };
    let mut cycles = Vec::new();
    let limit = Duration::from_secs(ctx.seconds).as_secs_f64();
    while cycles.iter().map(|c: &Cycle| c.timed_s).sum::<f64>() < limit {
        let c = run_cycle(&mut fleet, ctx, &specs, cycles.len(), &mut out)?;
        cycles.push(c);
    }
    out.attempted = fleet.grants.len() as u64;
    out.failed = fleet.restarts;

    // Outside the timed region: every resumed trajectory must equal the
    // job run alone, uninterrupted, and that run must train.
    let solo: Vec<JobReport> = specs.iter().cloned().map(run_solo).collect();
    for (s, name) in solo.iter().zip(JOBS) {
        check_losses(&mut out, name, &s.losses);
    }
    for (k, c) in cycles.iter().enumerate() {
        for ((got, s), name) in c.fingerprints.iter().zip(&solo).zip(JOBS) {
            out.check(*got == s.fingerprint, || {
                format!(
                    "cycle {k}: {name} crash-resume fingerprint {got:016x} != solo {:016x}",
                    s.fingerprint
                )
            });
        }
    }

    if ctx.trace {
        per_layer(&fleet, &cycles, &specs, &solo, &mut out);
    } else {
        let walls: Vec<f64> = fleet.grants.iter().map(Grant::wall_ms).collect();
        let tokens_per_cycle = (JOBS.len() * STEPS * BATCH * MODEL.seq_len) as f64;
        let timed: f64 = cycles.iter().map(|c| c.timed_s).sum();
        out.set(
            "tokens_per_s",
            tokens_per_cycle * cycles.len() as f64 / timed,
        );
        out.set("step_ms.p50", median(&walls));
        let tl = tail(&walls);
        out.set("step_ms.tail", tl.value);
        out.notes.push(format!(
            "step_ms.tail is p{} of {} grants ({} beyond it); {} cycles",
            tl.pct,
            tl.samples,
            tl.beyond,
            cycles.len()
        ));
        let setups: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

/// `fleet-ckpt-resume`'s per-layer metrics.
fn per_layer(
    fleet: &Fleet,
    cycles: &[Cycle],
    specs: &[JobSpec],
    solo: &[JobReport],
    out: &mut Outcome,
) {
    let grants = &fleet.grants;
    let in_window = |g: &Grant, name: &str| -> f64 {
        fleet
            .spans
            .iter()
            .filter(|s| s.job == g.job && s.name == name && s.start >= g.t0 && s.start < g.t1)
            .map(|s| (s.end - s.start) / 1e3)
            .sum()
    };
    let of_job = |job: usize| grants.iter().filter(move |g| g.job == job);
    // Each job's median grant without a checkpoint write.
    let plain_median: Vec<f64> = (0..JOBS.len())
        .map(|j| {
            median(
                &of_job(j)
                    .filter(|g| !g.wrote_checkpoint)
                    .map(Grant::wall_ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let excess = |g: &Grant| (g.wall_ms() - plain_median[g.job]).max(0.0);

    // The `single` job: forward/backward, engine, offload and the DPU.
    let single: Vec<&Grant> = of_job(0).collect();
    let med_single =
        |f: &dyn Fn(&Grant) -> f64| median(&single.iter().map(|g| f(g)).collect::<Vec<_>>());
    let fwd = med_single(&|g| in_window(g, "fwd_bwd"));
    out.set("zo-nn.fwd_bwd_ms", fwd);
    out.set(
        "zo-nn.gflops",
        step_flops(&MODEL, BATCH) / (fwd * 1e-3) / 1e9,
    );
    let plain_single: Vec<f64> = single
        .iter()
        .filter(|g| !g.wrote_checkpoint)
        .map(|g| g.wall_ms() - in_window(g, "fwd_bwd"))
        .collect();
    out.set("zero-offload.engine_ms", median(&plain_single));
    out.set(
        "zero-offload.grad_offload_ms",
        med_single(&|g| in_window(g, "grad_offload")),
    );
    out.set(
        "zero-offload.copy_back_ms",
        med_single(&|g| in_window(g, "param_copy_back")),
    );
    out.set(
        "zo-optim.dpu_wait_ms",
        med_single(&|g| in_window(g, "cpu_adam")),
    );
    // The DPU worker's own updates run between grants too: all of them.
    let updates: Vec<f64> = fleet
        .spans
        .iter()
        .filter(|s| s.job == 0 && s.name == "cpu_adam_step")
        .map(|s| (s.end - s.start) / 1e3)
        .collect();
    let adam = median(&updates);
    out.set("zo-optim.cpu_adam_ms", adam);
    let params = solo[0].master.len() as f64;
    out.set("zo-optim.adam_melem_per_s", params / (adam * 1e-3) / 1e6);

    out.set(
        "zo-tensor.pool_busy_ms",
        median(
            &grants
                .iter()
                .map(|g| g.pool_busy_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "zo-tensor.pool_tasks",
        median(
            &grants
                .iter()
                .map(|g| g.pool_tasks as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // Collectives: per sharded-job step, per rank.
    let sharded: Vec<&Grant> = grants.iter().filter(|g| g.job > 0).collect();
    let rank_steps: f64 = sharded
        .iter()
        .map(|g| specs[g.job].stage.world() as f64)
        .sum();
    let collective = |names: &[&str]| -> f64 {
        sharded
            .iter()
            .map(|g| names.iter().map(|n| in_window(g, n)).sum::<f64>())
            .sum::<f64>()
            / rank_steps.max(1.0)
    };
    out.set(
        "zo-collectives.reduce_scatter_ms",
        collective(&["reduce_scatter"]),
    );
    out.set(
        "zo-collectives.all_gather_ms",
        collective(&["all_gather", zo_trace::names::PARAM_ALLGATHER]),
    );
    out.set(
        "zero-offload.zero3.param_traffic_bytes",
        zero3_param_traffic(&specs[2]),
    );
    out.notes.push(
        "zero3.param_traffic_bytes is per step (both ranks), from a traced stand-alone \
         run_zero3_ranks replica of the zero3 job: Service::chrome_trace_json exports spans only"
            .into(),
    );

    for (j, metric) in [
        "zo-serve.single.step_ms",
        "zo-serve.zero2.step_ms",
        "zo-serve.zero3.step_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(metric, plain_median[j]);
    }

    let ckpt: Vec<&Grant> = grants.iter().filter(|g| g.wrote_checkpoint).collect();
    out.set(
        "zero-offload.checkpoint.write_ms",
        median(&ckpt.iter().map(|g| excess(g)).collect::<Vec<_>>()),
    );
    let stalls: Vec<f64> = (0..cycles.len())
        .map(|k| {
            ckpt.iter()
                .filter(|g| g.cycle == k)
                .map(|g| excess(g) / 1e3)
                .sum()
        })
        .collect();
    out.set("ckpt_stall_s", median(&stalls));
    out.set(
        "zero-offload.checkpoint.bytes",
        median(
            &cycles
                .iter()
                .map(|c| c.ckpt_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let restores: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.restore_s.iter().map(|s| s * 1e3))
        .collect();
    out.set("zero-offload.checkpoint.restore_ms", median(&restores));
    out.set(
        "resume_s",
        median(&cycles.iter().map(|c| c.resume_s).collect::<Vec<_>>()),
    );

    // Grant time no span of the granted job covers; a checkpoint write
    // (no span of its own) is attributed by its excess.
    let mut by_job: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in &fleet.spans {
        by_job.entry(s.job).or_default().push((s.start, s.end));
    }
    let unattributed: Vec<f64> = grants
        .iter()
        .map(|g| {
            let spans = by_job.get(&g.job).map_or(&[][..], Vec::as_slice);
            let extra = if g.wrote_checkpoint { excess(g) } else { 0.0 };
            (g.wall_ms() - covered(spans, g.t0, g.t1) / 1e3 - extra).max(0.0)
        })
        .collect();
    out.set("unattributed_ms", median(&unattributed));
    out.set(
        "step_fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    let why_counters = "Service::chrome_trace_json exports spans, not counters; \
                        the service's per-job tracers are not reachable from outside";
    out.unmeasured
        .insert("zero-offload.d2h_bytes", why_counters.into());
    out.unmeasured
        .insert("zero-offload.h2d_bytes", why_counters.into());
    out.unmeasured.insert(
        "zo-trace.overhead_pct",
        "the service installs a tracer in every job; no untraced service run exists to compare"
            .into(),
    );
    out.notes.push(format!(
        "{} grants over {} cycles ({} wrote a checkpoint); single-job metrics from the DPU job",
        grants.len(),
        cycles.len(),
        ckpt.len()
    ));
}

/// Per-step parameter all-gather traffic of the zero3 job, measured on a
/// traced stand-alone replica (difference of a 3-step and a 1-step run,
/// so construction-time gathers cancel).
fn zero3_param_traffic(spec: &JobSpec) -> f64 {
    let traffic = |steps: usize| -> u64 {
        let tracer = Tracer::new();
        let cfg = ZeroOffloadConfig {
            tracer: Some(TracerRef::install(tracer.clone())),
            ..spec.config
        };
        let world = spec.stage.world();
        let (per, seq) = (spec.batch / world, spec.model.seq_len);
        let mut data = BigramLm::new(spec.model.vocab, spec.data_noise, spec.data_seed);
        let batches: Vec<_> = (0..steps).map(|_| data.batch(spec.batch, seq)).collect();
        run_zero3_ranks(
            world,
            cfg,
            |_| GptModel::new(spec.model, spec.model_seed),
            |engine| {
                let r = engine.rank();
                for b in &batches {
                    let span = r * per * seq..(r + 1) * per * seq;
                    let (i, t) = (&b.inputs[span.clone()], &b.targets[span]);
                    engine
                        .step(|m| m.train_step(i, t, per, seq, |_| {}))
                        .expect("zero3 probe step");
                }
            },
        );
        tracer.counter_total(zo_trace::names::PARAM_TRAFFIC_BYTES)
    };
    (traffic(3) - traffic(1)) as f64 / 2.0
}
