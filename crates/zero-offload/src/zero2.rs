//! Multi-rank ZeRO-Offload: the symbiosis with ZeRO-2 (paper Sec. 4.2),
//! executed for real with threads as data-parallel ranks.
//!
//! Each rank holds a full fp16 model replica but owns only a `1/N`
//! contiguous shard of the optimizer state (fp32 master, momentum,
//! variance) — the ZeRO-2 partitioning. Per step: gradients are averaged
//! with reduce-scatter so each rank receives exactly its shard, the shard
//! crosses the "PCIe link" (fp16 rounding), the rank's CPU-Adam updates
//! its shard, and the updated fp16 parameters are re-assembled on every
//! rank with all-gather (the broadcast sequence of Fig. 5).
//!
//! The engine is the same [`ZeroOffloadEngine`] as on one accelerator,
//! built with [`ZeroOffloadEngine::zero2`]; this module supplies only the
//! sharded placement — the collectives, the per-rank tracks, and the
//! lock-step bookkeeping — which ZeRO-3 ([`crate::zero3`]) extends with
//! parameter partitioning.

use zo_collectives::{partition_range, Communicator};
use zo_fault::{with_retry, FaultError, FaultSession, Site};
use zo_nn::Model;
use zo_tensor::F16;
use zo_trace::Tracer;

use crate::config::ZeroOffloadConfig;
use crate::engine::{EngineStats, ZeroOffloadEngine};
use crate::wire::roundtrip_grads;

/// The ZeRO-2 placement: reduce-scatter in, shard-wise fp16 rounding,
/// all-gather out; overflow agreed by all-reduce so every rank skips (or
/// applies) the same step.
pub(crate) struct ShardPlacement {
    pub(crate) comm: Communicator,
    /// Flat-parameter range this rank owns.
    pub(crate) range: core::ops::Range<usize>,
    pub(crate) num_params: usize,
    pub(crate) track: String,
    /// Full-model gradient staging for the reduce-scatter, reused.
    full_grads: Vec<f32>,
    /// fp32 widening of this rank's fp16 shard, rebuilt when p16 changes.
    pub(crate) shard_f32: Vec<f32>,
    /// fp16 scratch for the shard's PCIe round trip, reused.
    wire16: Vec<F16>,
    /// fp32 scale scratch feeding the batched narrowing codec, reused.
    wire32: Vec<f32>,
}

impl ShardPlacement {
    /// The placement of `comm`'s rank over a `num_params`-parameter model.
    pub(crate) fn new(comm: Communicator, num_params: usize) -> ShardPlacement {
        ShardPlacement {
            range: partition_range(num_params, comm.world(), comm.rank()),
            track: format!("rank{}", comm.rank()),
            comm,
            num_params,
            full_grads: vec![0.0f32; num_params],
            shard_f32: Vec::new(),
            wire16: Vec::new(),
            wire32: Vec::new(),
        }
    }

    /// Widens this rank's fp16 shard into `shard_f32`.
    pub(crate) fn widen(&mut self, p16: &[F16]) {
        self.shard_f32.resize(p16.len(), 0.0);
        F16::to_f32_slice(p16, &mut self.shard_f32);
    }

    /// All-gathers the fp16 shards and loads the full model. Gated by the
    /// `collective.allgather` fault site (the communicator's session, so
    /// every rank draws the same decision and errors in lock-step).
    pub(crate) fn gather_and_load(
        &mut self,
        model: &mut impl Model,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        let _gather = tracer.span(&self.track, "all_gather");
        self.widen(p16);
        let full = self.comm.try_all_gather(&self.shard_f32, self.num_params)?;
        model.load_params_from(&full);
        stats.h2d_bytes += 2 * p16.len() as u64;
        tracer.add(&self.track, "h2d_bytes", 2 * p16.len() as u64);
        Ok(())
    }

    /// Reduce-scatters the averaged gradients so this rank receives its
    /// owned shard only (Fig. 5, line 29), then ships the shard across
    /// PCIe as fp16 with loss scaling. Returns the local overflow flag.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer(
        &mut self,
        model: &mut impl Model,
        grads: &mut [f32],
        scale: f32,
        denom: f32,
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<bool, FaultError> {
        {
            let _rs = tracer.span(&self.track, "reduce_scatter");
            model.copy_grads_to(&mut self.full_grads);
            let shard = self.comm.try_reduce_scatter_mean(&self.full_grads)?;
            grads.copy_from_slice(&shard);
        }
        // The reduced shard crosses PCIe: the per-rank wire gate.
        with_retry(faults, Site::WireD2h, tracer, &self.track, || ())?;
        let overflow = roundtrip_grads(grads, denom, scale, &mut self.wire32, &mut self.wire16);
        stats.d2h_bytes += 2 * grads.len() as u64;
        tracer.add(&self.track, "d2h_bytes", 2 * grads.len() as u64);
        Ok(overflow)
    }

    /// Overflow anywhere must skip the step everywhere.
    pub(crate) fn combine_overflow(&mut self, local: bool) -> bool {
        let mut flag = vec![if local { 1.0f32 } else { 0.0 }];
        self.comm.all_reduce_sum(&mut flag);
        flag[0] > 0.0
    }
}

/// Runs `world` ZeRO-2 ranks; `body` receives each rank's engine.
///
/// Convenience harness used by tests, examples and benches. Returns each
/// rank's output in rank order.
///
/// # Panics
///
/// Propagates panics from the ranks.
pub fn run_ranks<M, T, F>(
    world: usize,
    cfg: ZeroOffloadConfig,
    make_model: impl Fn(usize) -> M + Send + Sync,
    body: F,
) -> Vec<T>
where
    M: Model + Send,
    T: Send,
    F: Fn(&mut ZeroOffloadEngine<M>) -> T + Send + Sync,
{
    on_ranks(Communicator::group(world), |comm| {
        body(&mut ZeroOffloadEngine::zero2(
            make_model(comm.rank()),
            cfg,
            comm,
        ))
    })
}

/// Runs `f` once per rank endpoint, concurrently — collectives inside
/// `f` block until every rank arrives. Rank 0 runs on the calling thread
/// and only ranks `1..` are spawned. Returns the outputs in rank order.
///
/// # Panics
///
/// Propagates panics from the ranks.
pub(crate) fn on_ranks<T: Send>(
    comms: Vec<Communicator>,
    f: impl Fn(Communicator) -> T + Sync,
) -> Vec<T> {
    let mut comms = comms.into_iter();
    let Some(first) = comms.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let f = &f;
        let rest: Vec<_> = comms.map(|comm| scope.spawn(move || f(comm))).collect();
        let mut out = vec![f(first)];
        out.extend(rest.into_iter().map(|h| h.join().expect("rank panicked")));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_models::BigramLm;
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

    fn cfg() -> ZeroOffloadConfig {
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

    /// Global batch for a step, deterministic; rank r takes its slice.
    ///
    /// The chain (task) is fixed by one seed; `step` advances the sampling
    /// stream so every rank sees the same global batch for a given step.
    fn global_batch(step: usize, batch: usize) -> zo_models::LmBatch {
        let mut lm = BigramLm::new(16, 0.05, 1000);
        let mut b = lm.batch(batch, 8);
        for _ in 0..step {
            b = lm.batch(batch, 8);
        }
        b
    }

    #[test]
    fn ranks_stay_in_exact_sync() {
        let finals = run_ranks(
            3,
            cfg(),
            |_| tiny_model(7),
            |engine| {
                for step in 0..5 {
                    let b = global_batch(step, 3);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                p
            },
        );
        assert_eq!(finals[0], finals[1]);
        assert_eq!(finals[1], finals[2]);
    }

    #[test]
    fn partitioned_update_matches_single_process() {
        // Two ranks, each on half of a 4-sequence global batch, must match
        // a single process training on the full batch (ZeRO-2 is pure
        // systems restructuring — same math).
        let steps = 4;
        let multi = run_ranks(
            2,
            cfg(),
            |_| tiny_model(21),
            |engine| {
                for step in 0..steps {
                    let b = global_batch(step, 4);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 16..(rank + 1) * 16].to_vec();
                    let targets = b.targets[rank * 16..(rank + 1) * 16].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 2, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                p
            },
        );

        let mut single = ZeroOffloadEngine::new(tiny_model(21), cfg());
        for step in 0..steps {
            let b = global_batch(step, 4);
            single
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, 8, |_| {}))
                .unwrap();
        }
        let mut p_single = vec![0.0f32; single.model_mut().num_params()];
        single.model_mut().copy_params_to(&mut p_single);

        let max_diff = multi[0]
            .iter()
            .zip(&p_single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Summation order differs (per-rank partial sums vs one batch) and
        // parameters live in fp16 (ulp ~ 1e-3 near 1.0), so allow a few
        // fp16 ulps of drift over the run.
        assert!(
            max_diff < 6e-3,
            "partitioned vs replicated update diverged: max diff {max_diff}"
        );
    }

    #[test]
    fn each_rank_offloads_only_its_shard() {
        let stats = run_ranks(
            4,
            cfg(),
            |_| tiny_model(5),
            |engine| {
                for step in 0..3 {
                    let b = global_batch(step, 4);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                (
                    engine.master_params().len(),
                    engine.stats().d2h_bytes,
                    engine.model_mut().num_params(),
                )
            },
        );
        let n = stats[0].2;
        let total_shards: usize = stats.iter().map(|s| s.0).sum();
        assert_eq!(total_shards, n, "shards must tile the parameter space");
        for (shard_len, d2h, _) in &stats {
            // 3 steps × 2 bytes × shard: aggregate PCIe volume is constant
            // (= one full model) regardless of the DP degree.
            assert_eq!(*d2h, 3 * 2 * *shard_len as u64);
        }
    }

    #[test]
    fn multi_rank_training_converges() {
        let fast = ZeroOffloadConfig {
            adam: AdamParams {
                lr: 0.01,
                ..AdamParams::default()
            },
            ..cfg()
        };
        let losses = run_ranks(
            2,
            fast,
            |_| tiny_model(2),
            |engine| {
                let mut out = Vec::new();
                for step in 0..150 {
                    let b = global_batch(step, 4);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 16..(rank + 1) * 16].to_vec();
                    let targets = b.targets[rank * 16..(rank + 1) * 16].to_vec();
                    let o = engine
                        .step(|m| m.train_step(&inputs, &targets, 2, 8, |_| {}))
                        .unwrap();
                    out.push(o.loss());
                }
                out
            },
        );
        let head: f32 = losses[0][..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[0][140..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.9, "did not converge: {head} -> {tail}");
    }

    #[test]
    fn dpu_in_data_parallel_mode() {
        let dpu_cfg = ZeroOffloadConfig {
            dpu_warmup: Some(3),
            ..cfg()
        };
        let finals = run_ranks(
            2,
            dpu_cfg,
            |_| tiny_model(12),
            |engine| {
                for step in 0..8 {
                    let b = global_batch(step, 2);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                p
            },
        );
        assert_eq!(finals[0], finals[1], "DPU ranks must stay in sync");
    }
}
