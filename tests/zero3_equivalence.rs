//! Stage-3 equivalence: the paper-claim harness for the ZeRO-3 engine.
//!
//! ZeRO partitioning is pure systems restructuring — where data lives and
//! when it moves — so the training trajectory must be *bitwise* identical
//! to the less-partitioned stages on the same seeds. These tests pin
//! that: ZeRO-3 vs ZeRO-2 at each world size, both driven through
//! `step_streamed` vs `step`, ZeRO-3 at world 1 vs the single-GPU engine,
//! and a mid-run checkpoint/resume, all compared bit for bit over 24
//! optimizer steps.
//!
//! (Engines at *different* world sizes are only close, not bitwise equal:
//! per-rank partial sums change the fp32 summation order. Every pairing
//! here keeps the world size fixed.)

use zero_offload::{
    run_ranks, run_zero3_ranks, EngineStats, TrainingCheckpoint, ZeroOffloadConfig,
    ZeroOffloadEngine,
};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};

const GPT: GptConfig = GptConfig {
    vocab: 16,
    seq_len: 8,
    hidden: 16,
    heads: 2,
    layers: 2,
};

const STEPS: usize = 24;
const MODEL_SEED: u64 = 21;

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
fn global_batch(step: usize, batch: usize) -> zo_models::LmBatch {
    let mut lm = BigramLm::new(16, 0.05, 1000);
    let mut b = lm.batch(batch, 8);
    for _ in 0..step {
        b = lm.batch(batch, 8);
    }
    b
}

/// How each rank drives its engine: post-hoc `step`, or `step_streamed`
/// handing the gradient stream to the hooked backward.
#[derive(Clone, Copy)]
enum Drive {
    PostHoc,
    Streamed,
}

/// One rank's (shard range, master shard, per-step losses, counters).
type RankTrace = (core::ops::Range<usize>, Vec<f32>, Vec<f32>, EngineStats);

fn train_rank(
    engine: &mut ZeroOffloadEngine<GptModel>,
    world: usize,
    steps: usize,
    drive: Drive,
) -> RankTrace {
    let mut losses = Vec::new();
    for step in 0..steps {
        let b = global_batch(step, world);
        let r = engine.rank();
        let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
        let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
        let out = match drive {
            Drive::PostHoc => engine.step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {})),
            Drive::Streamed => {
                engine.step_streamed(|m, s| m.train_step_hooked(&inputs, &targets, 1, 8, s))
            }
        };
        losses.push(out.unwrap().loss());
    }
    (
        engine.shard_range(),
        engine.master_params().to_vec(),
        losses,
        *engine.stats(),
    )
}

/// Trains `steps` on `world` ZeRO-2 ranks.
fn zero2_trace(world: usize, steps: usize, drive: Drive) -> Vec<RankTrace> {
    run_ranks(
        world,
        cfg(),
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| train_rank(engine, world, steps, drive),
    )
}

fn zero3_trace(
    world: usize,
    steps: usize,
    engine_cfg: ZeroOffloadConfig,
    drive: Drive,
) -> Vec<RankTrace> {
    run_zero3_ranks(
        world,
        engine_cfg,
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| train_rank(engine, world, steps, drive),
    )
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    let diverged = a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits());
    assert_eq!(
        diverged, None,
        "{what}: first bit divergence at {diverged:?}"
    );
}

/// The acceptance claim: at every world size in {1, 2, 4}, the ZeRO-3
/// trajectory (losses and final master shards) is bitwise identical to
/// ZeRO-2 on the same seeds — parameter partitioning moved data, not
/// math.
#[test]
fn stage3_matches_zero2_bitwise_at_each_world() {
    for world in [1usize, 2, 4] {
        let z2 = zero2_trace(world, STEPS, Drive::PostHoc);
        let z3 = zero3_trace(world, STEPS, cfg(), Drive::PostHoc);
        for rank in 0..world {
            assert_eq!(z2[rank].0, z3[rank].0, "world {world} rank {rank} range");
            assert_bits_eq(
                &z2[rank].1,
                &z3[rank].1,
                &format!("world {world} rank {rank} master shard"),
            );
            assert_bits_eq(
                &z2[rank].2,
                &z3[rank].2,
                &format!("world {world} rank {rank} losses"),
            );
        }
        // Through `step_streamed` the sharded placements never arm the
        // gradient stream (reduce-scatter cannot consume it), so the step
        // is bit-equal to `step`, counters included.
        let streamed = [
            ("zero2", &z2, zero2_trace(world, STEPS, Drive::Streamed)),
            (
                "zero3",
                &z3,
                zero3_trace(world, STEPS, cfg(), Drive::Streamed),
            ),
        ];
        for (stage, post_hoc, streamed) in &streamed {
            for rank in 0..world {
                let what = format!("{stage} world {world} rank {rank} streamed");
                assert_bits_eq(
                    &post_hoc[rank].1,
                    &streamed[rank].1,
                    &format!("{what} master"),
                );
                assert_bits_eq(
                    &post_hoc[rank].2,
                    &streamed[rank].2,
                    &format!("{what} losses"),
                );
                assert_eq!(post_hoc[rank].3, streamed[rank].3, "{what} stats");
            }
        }
    }
}

/// The persistent cache and the prefetch window reorder gathers and skip
/// redundant ones — they must never change a bit of the trajectory.
#[test]
fn cache_and_prefetch_knobs_do_not_perturb_the_trajectory() {
    let base = zero3_trace(2, STEPS, cfg(), Drive::PostHoc);
    for (prefetch, budget) in [(0usize, 0usize), (3, 0), (1, usize::MAX), (3, 200)] {
        let knobs = ZeroOffloadConfig {
            prefetch_layers: prefetch,
            persistent_param_bytes: budget,
            ..cfg()
        };
        let got = zero3_trace(2, STEPS, knobs, Drive::PostHoc);
        for rank in 0..2 {
            assert_bits_eq(
                &base[rank].1,
                &got[rank].1,
                &format!("prefetch {prefetch} budget {budget} rank {rank} shard"),
            );
            assert_bits_eq(
                &base[rank].2,
                &got[rank].2,
                &format!("prefetch {prefetch} budget {budget} rank {rank} losses"),
            );
        }
    }
}

/// At world 1 the stage-3 engine collapses to the single-GPU schedule
/// (gathers become local copies) and must match [`ZeroOffloadEngine`]
/// bitwise on the same full batches.
#[test]
fn stage3_at_world_one_matches_single_gpu() {
    let z3 = zero3_trace(1, STEPS, cfg(), Drive::PostHoc);

    let mut single = ZeroOffloadEngine::new(GptModel::new(GPT, MODEL_SEED), cfg());
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let b = global_batch(step, 1);
        let out = single
            .step(|m| m.train_step(&b.inputs, &b.targets, 1, 8, |_| {}))
            .unwrap();
        losses.push(out.loss());
    }

    assert_eq!(z3[0].0, 0..single.master_params().len());
    assert_bits_eq(&z3[0].1, single.master_params(), "master params");
    assert_bits_eq(&z3[0].2, &losses, "losses");
}

/// Mid-run checkpoint/resume: each rank checkpoints its shard at step 10;
/// fresh engines restore (cache cold) and finish the run. Both the
/// uninterrupted original and the resumed run must land on bit-identical
/// shards and losses.
#[test]
fn mid_run_checkpoint_resume_is_bitwise() {
    const WORLD: usize = 2;
    const SPLIT: usize = 10;

    // Uninterrupted reference.
    let straight = zero3_trace(WORLD, STEPS, cfg(), Drive::PostHoc);

    // First half: train to the split, checkpoint, keep training.
    let halves: Vec<(TrainingCheckpoint, Vec<f32>, Vec<f32>)> = run_zero3_ranks(
        WORLD,
        cfg(),
        |_| GptModel::new(GPT, MODEL_SEED),
        |engine| {
            let mut losses = Vec::new();
            for step in 0..SPLIT {
                let b = global_batch(step, WORLD);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            let ckpt = engine.save_checkpoint();
            for step in SPLIT..STEPS {
                let b = global_batch(step, WORLD);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            (ckpt, engine.master_params().to_vec(), losses)
        },
    );

    for rank in 0..WORLD {
        assert_bits_eq(
            &halves[rank].1,
            &straight[rank].1,
            &format!("continued run rank {rank} shard"),
        );
        assert_bits_eq(
            &halves[rank].2,
            &straight[rank].2,
            &format!("continued run rank {rank} losses"),
        );
    }

    // Second half: fresh engines, restore each rank's checkpoint, resume.
    let ckpts: Vec<TrainingCheckpoint> = halves.iter().map(|h| h.0.clone()).collect();
    let ckpts_ref = &ckpts;
    let resumed = run_zero3_ranks(
        WORLD,
        cfg(),
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| {
            engine
                .restore_checkpoint(&ckpts_ref[engine.rank()])
                .unwrap();
            assert_eq!(engine.stats().steps_applied, SPLIT as u64);
            let mut losses = Vec::new();
            for step in SPLIT..STEPS {
                let b = global_batch(step, WORLD);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            (engine.master_params().to_vec(), losses)
        },
    );

    for rank in 0..WORLD {
        assert_bits_eq(
            &resumed[rank].0,
            &straight[rank].1,
            &format!("resumed run rank {rank} shard"),
        );
        assert_bits_eq(
            &resumed[rank].1,
            &straight[rank].2[SPLIT..],
            &format!("resumed run rank {rank} losses"),
        );
    }
}

/// DPU (delayed parameter update) composes with stage 3 exactly as with
/// stage 2: ranks stay in sync and the schedule is deterministic.
#[test]
fn dpu_composes_with_stage3() {
    let dpu_cfg = ZeroOffloadConfig {
        dpu_warmup: Some(3),
        ..cfg()
    };
    let a = zero3_trace(2, 10, dpu_cfg, Drive::PostHoc);
    let b = zero3_trace(2, 10, dpu_cfg, Drive::PostHoc);
    for rank in 0..2 {
        assert_bits_eq(&a[rank].1, &b[rank].1, &format!("dpu rank {rank} shard"));
    }
}
