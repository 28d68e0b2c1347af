//! The real-execution ZeRO-Offload engine, one type for every stage.
//!
//! Runs actual training with the paper's data placement faithfully
//! emulated: the model computes forward/backward on **fp16-rounded
//! parameters** (what the GPU would hold), gradients leave the "device" by
//! being **rounded through fp16** (the PCIe transfer), and the fp32 master
//! parameters, momentum and variance live in a separate host-side buffer
//! updated by [`CpuAdam`](zo_optim::CpuAdam) — optionally one step
//! delayed (DPU), in which case the update runs on the
//! [`AsyncDpu`](crate::AsyncDpu) optimizer thread overlapped with the next
//! step's forward/backward.
//!
//! The step state machine itself lives in [`crate::pipeline`]. The engine
//! owns it plus one [`Placement`]: the full replica defined here, the
//! ZeRO-2 shard ([`crate::zero2`]) or the ZeRO-3 parameter shard
//! ([`crate::zero3`]). The multi-GPU forms are the same offload schedule,
//! partitioned (paper Sec. 4.2). The engine is generic over [`Model`], so
//! the same code trains the GPT LM of Fig. 12 and the classifier of
//! Fig. 13.

use zo_collectives::Communicator;
use zo_fault::{lane, with_retry, FaultError, FaultSession, Site};
use zo_nn::Model;
use zo_optim::AdamState;
use zo_tensor::F16;
use zo_trace::Tracer;

use crate::bucket::{scatter_frames, GradBucketer};
use crate::config::{resolve_fault_plan, resolve_tracer, OffloadDevice, ZeroOffloadConfig};
use crate::pipeline::{
    build_offload_updater, GradStream, Placement, StepError, StepPipeline, Updater,
};
use crate::wire::{decode_frame_traced, ship_frame};
use crate::zero2::ShardPlacement;
use crate::zero3::{Zero3Cache, Zero3Params};

/// What a call to [`ZeroOffloadEngine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// A micro-batch was accumulated; no optimizer activity yet.
    Accumulating {
        /// Micro-batch loss.
        loss: f32,
    },
    /// The optimizer step ran (possibly DPU-delayed by one step).
    Applied {
        /// Micro-batch loss.
        loss: f32,
    },
    /// fp16 gradient overflow: the loss scale backed off, step skipped.
    SkippedOverflow {
        /// Micro-batch loss.
        loss: f32,
    },
}

impl StepOutcome {
    /// The micro-batch loss regardless of outcome.
    pub fn loss(&self) -> f32 {
        match self {
            StepOutcome::Accumulating { loss }
            | StepOutcome::Applied { loss }
            | StepOutcome::SkippedOverflow { loss } => *loss,
        }
    }
}

/// Cumulative engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Optimizer steps applied.
    pub steps_applied: u64,
    /// Steps skipped due to fp16 overflow.
    pub steps_skipped: u64,
    /// Simulated device→host traffic (fp16 gradient payload), bytes.
    pub d2h_bytes: u64,
    /// Simulated host→device traffic (fp16 parameters), bytes.
    pub h2d_bytes: u64,
    /// On-the-wire gradient bytes including frame headers.
    pub wire_bytes: u64,
    /// Gradient frames shipped.
    pub frames: u64,
}

/// Ships the staged frames, reassembles them host-side, unscales, and
/// updates traffic counters and memory high-water marks — the tail of the
/// gradient offload shared by the streamed and post-hoc transfer paths.
///
/// With a fault session, every frame passes the `wire.d2h` gate (bounded
/// retry; fatal faults abort the transfer with a typed error). Pass `None`
/// when the frames already crossed a gate — the streamed path gates each
/// slice at push time, and the degraded post-hoc retransmission models
/// recovery *after* the faulty window.
fn finish_offload(
    bucketer: &mut GradBucketer,
    grads: &mut [f32],
    scale: f32,
    stats: &mut EngineStats,
    tracer: &Tracer,
    mut faults: Option<&mut FaultSession>,
) -> Result<(), FaultError> {
    bucketer.flush();
    for raw in bucketer.take_frames() {
        let raw = match faults.as_deref_mut() {
            Some(session) => ship_frame(raw, session, tracer, "pcie")?,
            None => raw,
        };
        let frame =
            decode_frame_traced(tracer, "pcie", &raw).expect("loopback frames are well-formed");
        scatter_frames(&[frame], grads);
    }
    zo_tensor::ops::scale(grads, 1.0 / scale);
    stats.d2h_bytes += bucketer.payload_bytes();
    stats.wire_bytes += bucketer.wire_bytes();
    stats.frames += u64::from(bucketer.frames_emitted());
    tracer.add("pcie", "d2h_bytes", bucketer.payload_bytes());
    // Memory high-water marks: fp16 parameters + the transient staging
    // bucket on the device; master + Adam moments + fp32 gradient buffer
    // on the host.
    let n = grads.len() as f64;
    tracer.gauge_max("gpu_hwm_bytes", 2.0 * n + bucketer.wire_bytes() as f64);
    tracer.gauge_max("cpu_hwm_bytes", 16.0 * n);
    Ok(())
}

/// The single-accelerator placement: one full fp16 replica on the device,
/// the whole fp32 state on the host, gradients crossing "PCIe" in layer
/// buckets through the [`GradStream`] (from inside backward when it was
/// fed, replayed post hoc otherwise).
#[derive(Default)]
pub(crate) struct ReplicaPlacement {
    /// fp32 widening scratch for the h2d parameter copy, reused.
    widened: Vec<f32>,
}

impl ReplicaPlacement {
    /// Loads the fp16 view into the model through the reusable widening
    /// scratch (no per-step allocation).
    pub(crate) fn load_model(&mut self, model: &mut impl Model, p16: &[F16]) {
        self.widened.resize(p16.len(), 0.0);
        F16::to_f32_slice(p16, &mut self.widened);
        model.load_params_from(&self.widened);
    }

    /// Moves the gradients off the device: the tail of a window streamed
    /// from inside backward, or the whole post-hoc transfer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer(
        &mut self,
        model: &mut impl Model,
        grads: &mut [f32],
        scale: f32,
        denom: f32,
        stream: &mut GradStream,
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<bool, FaultError> {
        if let Some(start) = stream.take_streamed() {
            // The gradients already crossed the wire from inside backward
            // (each slice passed the gate at push time); only the tail
            // (final flush, reassembly, unscale) remains.
            finish_offload(&mut stream.bucketer, grads, scale, stats, tracer, None)?;
            let end = tracer.now_us();
            tracer.record_span("pcie", "grad_offload", start, end.saturating_sub(start));
            return Ok(stream.overflow);
        }
        // A poisoned stream means the mid-backward transfer died; this
        // post-hoc pass is the *recovery* retransmission after backward
        // completed, so it bypasses the wire gate.
        let degraded = stream.take_poisoned();
        // Post-hoc transfer: replay the layer spans through the stream's
        // staging in backward order (head bucket first, blocks reversed,
        // embeddings last — the order they become ready in Sec. 4.1),
        // then ship, validate and scatter into host memory. The replay
        // stages without the stream's own gate; the frames pass the
        // engine's `wire.d2h` gate at ship time instead.
        let _transfer = tracer.span("pcie", "grad_offload");
        model.copy_grads_to(grads);
        stream.replay(grads, scale, denom);
        let gate = if degraded { None } else { Some(faults) };
        finish_offload(&mut stream.bucketer, grads, scale, stats, tracer, gate)?;
        Ok(stream.overflow)
    }

    /// The h2d parameter copy-back.
    pub(crate) fn publish(
        &mut self,
        model: &mut impl Model,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        let _copy = tracer.span("pcie", "param_copy_back");
        // The h2d gate sits *before* the model sees the new parameters: a
        // fatal fault here is the "killed between DPU update and copy-back"
        // crash point the recovery tests exercise.
        with_retry(faults, Site::WireH2d, tracer, "pcie", || ())?;
        stats.h2d_bytes += 2 * p16.len() as u64;
        tracer.add("pcie", "h2d_bytes", 2 * p16.len() as u64);
        self.load_model(model, p16);
        Ok(())
    }
}

/// A training engine applying the ZeRO-Offload schedule at any stage.
///
/// The stage is fixed by the constructor: [`ZeroOffloadEngine::new`] for
/// a single accelerator holding the full replica,
/// [`ZeroOffloadEngine::zero2`] and [`ZeroOffloadEngine::zero3`] for one
/// data-parallel rank of a partitioned group. Every other method is the
/// same at every stage; on a rank, [`master_params`](Self::master_params)
/// and checkpoints cover the rank's [`shard_range`](Self::shard_range).
pub struct ZeroOffloadEngine<M: Model> {
    pub(crate) model: M,
    pub(crate) pipe: StepPipeline,
    pub(crate) placement: Placement,
    stream: GradStream,
}

impl<M: Model> ZeroOffloadEngine<M> {
    /// Wraps `model` for single-accelerator training under `cfg`.
    ///
    /// The model's initial parameters become the fp32 master copy; the
    /// model itself is immediately switched to their fp16 rounding, as a
    /// GPU would hold them.
    pub fn new(model: M, cfg: ZeroOffloadConfig) -> ZeroOffloadEngine<M> {
        ZeroOffloadEngine::build(model, cfg, Placement::Replica(ReplicaPlacement::default()))
    }

    /// Wraps one rank's model replica as a ZeRO-2 rank (paper Sec. 4.2):
    /// the rank keeps a full fp16 replica but owns only its `1/N` shard of
    /// the optimizer state. Construction all-gathers the initial fp16
    /// parameters, so all ranks must construct concurrently, from
    /// identically-initialized models (same seed).
    pub fn zero2(model: M, cfg: ZeroOffloadConfig, comm: Communicator) -> ZeroOffloadEngine<M> {
        let placement = ShardPlacement::new(comm, model.num_params());
        ZeroOffloadEngine::build(model, cfg, Placement::Zero2(placement))
    }

    /// Wraps one rank's model as a ZeRO-3 rank: the ZeRO-2 shard plus
    /// partitioned fp16 parameters, gathered layer by layer around
    /// compute. All ranks must construct identically-initialized models
    /// (same seed).
    ///
    /// Construction performs *no* collectives: the model is reduced to
    /// the fp16 view of the owned shard (everything else zeroed), and the
    /// first step's pre-forward schedule materialises what compute needs.
    pub fn zero3(mut model: M, cfg: ZeroOffloadConfig, comm: Communicator) -> ZeroOffloadEngine<M> {
        let shard = ShardPlacement::new(comm, model.num_params());
        let params = Zero3Params::new(model.layer_ranges(), &shard, &cfg);
        ZeroOffloadEngine::build(model, cfg, Placement::Zero3(shard, params))
    }

    fn build(
        mut model: M,
        cfg: ZeroOffloadConfig,
        mut placement: Placement,
    ) -> ZeroOffloadEngine<M> {
        let n = model.num_params();
        let mut full = vec![0.0f32; n];
        model.copy_params_to(&mut full);
        let owned = placement.owned_range(n);
        let master = if owned.len() == n {
            full
        } else {
            full[owned].to_vec()
        };
        let tracer = resolve_tracer(cfg.tracer);
        let updater = match (placement.shard(), cfg.offload) {
            (None, OffloadDevice::None) => Updater::Reference(AdamState::new(n), cfg.adam),
            (None, OffloadDevice::Cpu) => {
                build_offload_updater(&cfg, &master, &tracer, "optimizer")
            }
            (Some(shard), _) => {
                let track = format!("{}_optimizer", shard.track);
                build_offload_updater(&cfg, &master, &tracer, &track)
            }
        };
        let plan = resolve_fault_plan(cfg.faults);
        let mut stream = GradStream::new(tracer.clone(), model.layer_ranges(), cfg.bucket_bytes);
        stream.set_faults(FaultSession::new(plan.clone(), lane::STREAM));
        let mut pipe = StepPipeline::new(master, updater, tracer, &cfg, &plan);
        // Start from the fp16 rounding of the initial parameters. A
        // communicator's fault gate is installed only *after* this
        // initial load — construction itself is not a fault site.
        placement
            .load(&mut model, &pipe.p16, &mut pipe.stats, &pipe.tracer)
            .expect("initial load runs before fault gates are installed");
        if let Some(shard) = placement.shard().filter(|_| plan.is_enabled()) {
            shard.comm.install_faults(
                FaultSession::new(plan, lane::COLLECTIVE),
                pipe.tracer.clone(),
                &shard.track,
            );
        }
        ZeroOffloadEngine {
            model,
            pipe,
            placement,
            stream,
        }
    }

    /// The engine's tracer (disabled unless the config installed one).
    pub fn tracer(&self) -> &Tracer {
        &self.pipe.tracer
    }

    /// The wrapped model (parameters are the fp16 view; under ZeRO-3,
    /// only the owned shard and cached layers between steps).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model (for evaluation passes).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Cumulative counters (this rank's, under ZeRO-2/3).
    pub fn stats(&self) -> &EngineStats {
        &self.pipe.stats
    }

    /// Current loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.pipe.scaler.scale()
    }

    /// The fp32 master parameters this engine owns (host side): the whole
    /// model on one accelerator, this rank's shard under ZeRO-2/3.
    pub fn master_params(&self) -> &[f32] {
        &self.pipe.master
    }

    /// This rank (0 on a single accelerator).
    pub fn rank(&self) -> usize {
        self.placement.shard().map_or(0, |s| s.comm.rank())
    }

    /// Group size (1 on a single accelerator).
    pub fn world(&self) -> usize {
        self.placement.shard().map_or(1, |s| s.comm.world())
    }

    /// Flat-parameter range covered by [`master_params`](Self::master_params).
    pub fn shard_range(&self) -> core::ops::Range<usize> {
        self.placement.owned_range(self.pipe.master.len())
    }

    /// The live ZeRO-3 persistent-parameters cache (`None` at other
    /// stages).
    pub fn zero3_cache(&self) -> Option<&Zero3Cache> {
        match &self.placement {
            Placement::Zero3(_, params) => Some(&params.cache),
            _ => None,
        }
    }

    /// Runs one micro-batch and, at window boundaries, the offloaded
    /// optimizer step, transferring gradients post hoc (after backward
    /// completes). This is [`step_streamed`](Self::step_streamed) with a
    /// backward that never feeds the stream.
    ///
    /// `run_backward` must perform forward + backward on the model,
    /// accumulating gradients, and return the loss. The engine zeroes
    /// gradients at the start of each accumulation window. Under
    /// ZeRO-2/3 all ranks must call `step` the same number of times
    /// (collectives synchronize them).
    ///
    /// Errors are typed ([`StepError`]): the model's own backward error,
    /// a non-recoverable fault at one of the offload path's injection
    /// sites, or an overflow storm. Transient faults are retried inside
    /// the step and never surface here.
    pub fn step<E>(
        &mut self,
        run_backward: impl FnOnce(&mut M) -> Result<f32, E>,
    ) -> Result<StepOutcome, StepError<E>> {
        self.step_streamed(|m, _| run_backward(m))
    }

    /// Like [`ZeroOffloadEngine::step`], but streams gradients through the
    /// wire path from *inside* backward — paper Sec. 4.1's overlapped
    /// gradient offload.
    ///
    /// `run_backward` receives the [`GradStream`] and must hand it to
    /// the model's hooked backward (e.g.
    /// [`GptModel::train_step_hooked`](zo_nn::GptModel::train_step_hooked)),
    /// which feeds each layer's gradients to the stream as soon as that
    /// layer's backward completes. The `grad_offload` span then overlaps
    /// the same step's `fwd_bwd` span. Numerics are bit-identical to the
    /// post-hoc path: the same values cross the wire in the same order
    /// with the same frame boundaries, only earlier.
    ///
    /// The stream is armed only for the window-closing micro-batch (with
    /// gradient accumulation, earlier micro-batches hold incomplete sums)
    /// and only on a single accelerator: ZeRO-2/3 ranks move gradients by
    /// reduce-scatter, so their stream stays disarmed. A stream that is
    /// never fed falls back to the post-hoc transfer, which replays the
    /// gradients through the same staging.
    pub fn step_streamed<E>(
        &mut self,
        run_backward: impl FnOnce(&mut M, &mut GradStream) -> Result<f32, E>,
    ) -> Result<StepOutcome, StepError<E>> {
        if self.placement.streams() && self.pipe.micro_in_window + 1 >= self.pipe.grad_accumulation
        {
            let scale = self.pipe.scaler.scale();
            let denom = self.pipe.grad_accumulation as f32;
            self.stream.arm(scale, denom);
        }
        self.pipe.step(
            &mut self.model,
            &mut self.placement,
            &mut self.stream,
            run_backward,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_nn::{GptConfig, GptModel};
    use zo_optim::{AdamParams, LossScaleConfig};

    fn tiny_model(seed: u64) -> GptModel {
        GptModel::new(
            GptConfig {
                vocab: 16,
                seq_len: 8,
                hidden: 8,
                heads: 2,
                layers: 2,
            },
            seed,
        )
    }

    fn small_scale_cfg() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            adam: AdamParams {
                lr: 3e-3,
                ..AdamParams::default()
            },
            ..ZeroOffloadConfig::default()
        }
    }

    fn run_steps(engine: &mut ZeroOffloadEngine<GptModel>, steps: usize, seed: u64) -> Vec<f32> {
        let mut data = zo_models::BigramLm::new(16, 0.05, seed);
        let mut losses = Vec::new();
        for _ in 0..steps {
            let b = data.batch(4, 8);
            let out = engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, 8, |_| {}))
                .unwrap();
            losses.push(out.loss());
        }
        losses
    }

    fn run_steps_streamed(
        engine: &mut ZeroOffloadEngine<GptModel>,
        steps: usize,
        seed: u64,
    ) -> Vec<f32> {
        let mut data = zo_models::BigramLm::new(16, 0.05, seed);
        let mut losses = Vec::new();
        for _ in 0..steps {
            let b = data.batch(4, 8);
            let out = engine
                .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 4, 8, s))
                .unwrap();
            losses.push(out.loss());
        }
        losses
    }

    #[test]
    fn training_reduces_loss() {
        let mut engine = ZeroOffloadEngine::new(tiny_model(1), small_scale_cfg());
        let losses = run_steps(&mut engine, 120, 7);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.9, "loss did not fall: {head} -> {tail}");
        assert!(engine.stats().steps_applied > 100);
    }

    #[test]
    fn offload_path_matches_reference_path_exactly() {
        // The offload strategy performs only system optimizations: the
        // training dynamics must be bit-identical to the non-offload
        // reference (the paper's exactly-overlapping curves in Fig. 12).
        let mut offload = ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg());
        let mut reference =
            ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg().without_offload());
        let l1 = run_steps(&mut offload, 40, 9);
        let l2 = run_steps(&mut reference, 40, 9);
        assert_eq!(l1, l2);
        assert_eq!(offload.master_params(), reference.master_params());
    }

    #[test]
    fn streamed_offload_matches_post_hoc_exactly() {
        // Streaming only reschedules the transfer; the trajectory must be
        // bit-identical to the post-hoc path.
        let mut streamed = ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg());
        let mut post_hoc = ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg());
        let l1 = run_steps_streamed(&mut streamed, 40, 9);
        let l2 = run_steps(&mut post_hoc, 40, 9);
        assert_eq!(l1, l2);
        assert_eq!(streamed.master_params(), post_hoc.master_params());
        assert_eq!(streamed.stats(), post_hoc.stats());
    }

    #[test]
    fn streamed_offload_with_accumulation_matches_post_hoc() {
        let cfg = ZeroOffloadConfig {
            grad_accumulation: 3,
            ..small_scale_cfg()
        };
        let mut streamed = ZeroOffloadEngine::new(tiny_model(6), cfg);
        let mut post_hoc = ZeroOffloadEngine::new(tiny_model(6), cfg);
        let l1 = run_steps_streamed(&mut streamed, 12, 17);
        let l2 = run_steps(&mut post_hoc, 12, 17);
        assert_eq!(l1, l2);
        assert_eq!(streamed.master_params(), post_hoc.master_params());
        assert_eq!(streamed.stats(), post_hoc.stats());
    }

    #[test]
    fn dpu_trails_by_one_step_then_converges() {
        let cfg = ZeroOffloadConfig {
            dpu_warmup: Some(5),
            ..small_scale_cfg()
        };
        let mut dpu = ZeroOffloadEngine::new(tiny_model(3), cfg);
        let losses = run_steps(&mut dpu, 150, 11);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            tail < head * 0.9,
            "DPU run did not converge: {head} -> {tail}"
        );
    }

    #[test]
    fn dpu_matches_plain_during_warmup() {
        let cfg = ZeroOffloadConfig {
            dpu_warmup: Some(20),
            ..small_scale_cfg()
        };
        let mut dpu = ZeroOffloadEngine::new(tiny_model(4), cfg);
        let mut plain = ZeroOffloadEngine::new(tiny_model(4), small_scale_cfg());
        let l1 = run_steps(&mut dpu, 20, 13);
        let l2 = run_steps(&mut plain, 20, 13);
        assert_eq!(l1, l2, "warm-up steps must be identical");
        // Past the warm-up the parameter trajectories diverge (staleness).
        run_steps(&mut dpu, 5, 14);
        run_steps(&mut plain, 5, 14);
        assert_ne!(dpu.master_params(), plain.master_params());
    }

    #[test]
    fn communication_is_4m_bytes_per_step() {
        let mut engine = ZeroOffloadEngine::new(tiny_model(2), small_scale_cfg());
        run_steps(&mut engine, 10, 15);
        let n = engine.model_mut().num_params() as u64;
        let s = engine.stats();
        // 2 bytes/param down + 2 bytes/param up, per applied+skipped step.
        let total_steps = s.steps_applied + s.steps_skipped;
        assert_eq!(s.d2h_bytes, 2 * n * total_steps);
        assert_eq!(s.h2d_bytes, 2 * n * s.steps_applied);
    }

    #[test]
    fn gradient_accumulation_windows() {
        let cfg = ZeroOffloadConfig {
            grad_accumulation: 4,
            ..small_scale_cfg()
        };
        let mut engine = ZeroOffloadEngine::new(tiny_model(6), cfg);
        let mut data = zo_models::BigramLm::new(16, 0.05, 20);
        let mut outcomes = Vec::new();
        for _ in 0..8 {
            let b = data.batch(2, 8);
            let out = engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 2, 8, |_| {}))
                .unwrap();
            outcomes.push(matches!(out, StepOutcome::Applied { .. }));
        }
        assert_eq!(
            outcomes,
            vec![false, false, false, true, false, false, false, true]
        );
        assert_eq!(engine.stats().steps_applied, 2);
    }

    #[test]
    fn overflow_backs_off_scale_and_skips() {
        // A huge init scale forces immediate fp16 overflow.
        let cfg = ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 3.4e38,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        };
        let mut engine = ZeroOffloadEngine::new(tiny_model(8), cfg);
        let mut data = zo_models::BigramLm::new(16, 0.05, 21);
        let b = data.batch(2, 8);
        let before = engine.loss_scale();
        let out = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 2, 8, |_| {}))
            .unwrap();
        assert!(matches!(out, StepOutcome::SkippedOverflow { .. }));
        assert!(engine.loss_scale() < before);
        assert_eq!(engine.stats().steps_applied, 0);
        assert_eq!(engine.stats().steps_skipped, 1);
    }

    #[test]
    fn model_holds_fp16_rounded_params() {
        let mut engine = ZeroOffloadEngine::new(tiny_model(9), small_scale_cfg());
        run_steps(&mut engine, 3, 22);
        let n = engine.model_mut().num_params();
        let mut current = vec![0.0f32; n];
        engine.model_mut().copy_params_to(&mut current);
        for (c, m) in current.iter().zip(engine.master_params()) {
            assert_eq!(*c, F16::from_f32(*m).to_f32());
        }
    }
}
