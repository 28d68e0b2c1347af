//! ZeRO-2 + offload vs fully replicated DDP: same math, 1/N the state.

use zero_offload::{run_ranks, ZeroOffloadConfig};
use zo_baselines::DdpEngine;
use zo_collectives::Communicator;
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel, Model};
use zo_optim::{AdamParams, LossScaleConfig};

const GPT: GptConfig = GptConfig {
    vocab: 16,
    seq_len: 8,
    hidden: 16,
    heads: 2,
    layers: 2,
};
const SEED: u64 = 99;
const STEPS: usize = 5;
const WORLD: usize = 4;

fn global_batch(step: usize) -> zo_models::LmBatch {
    let mut lm = BigramLm::new(GPT.vocab, 0.05, 123);
    let mut b = lm.batch(WORLD, GPT.seq_len);
    for _ in 0..step {
        b = lm.batch(WORLD, GPT.seq_len);
    }
    b
}

fn rank_slice(b: &zo_models::LmBatch, rank: usize) -> (Vec<usize>, Vec<usize>) {
    let s = GPT.seq_len;
    (
        b.inputs[rank * s..(rank + 1) * s].to_vec(),
        b.targets[rank * s..(rank + 1) * s].to_vec(),
    )
}

fn run_zero2() -> (Vec<f32>, usize) {
    let cfg = ZeroOffloadConfig {
        adam: AdamParams::default(),
        loss_scale: LossScaleConfig {
            init_scale: 1.0,
            ..Default::default()
        },
        ..ZeroOffloadConfig::default()
    };
    let mut out = run_ranks(
        WORLD,
        cfg,
        |_| GptModel::new(GPT, SEED),
        |engine| {
            for step in 0..STEPS {
                let b = global_batch(step);
                let (inputs, targets) = rank_slice(&b, engine.rank());
                engine
                    .step(|m| m.train_step(&inputs, &targets, 1, GPT.seq_len, |_| {}))
                    .unwrap();
            }
            let mut p = vec![0.0f32; engine.model_mut().num_params()];
            engine.model_mut().copy_params_to(&mut p);
            // Rank-held optimizer state: 12 bytes/param over the shard only.
            (p, engine.master_params().len())
        },
    );
    let (params, shard_len) = out.remove(0);
    (params, shard_len)
}

fn run_ddp() -> (Vec<f32>, usize) {
    let comms = Communicator::group(WORLD);
    let mut results: Vec<(Vec<f32>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let mut engine =
                        DdpEngine::new(GptModel::new(GPT, SEED), AdamParams::default(), comm);
                    for step in 0..STEPS {
                        let b = global_batch(step);
                        let (inputs, targets) = rank_slice(&b, engine.rank());
                        engine
                            .step(|m| m.train_step(&inputs, &targets, 1, GPT.seq_len, |_| {}))
                            .unwrap();
                    }
                    let bytes = engine.state_bytes();
                    let mut p = vec![0.0f32; engine.model_mut().num_params()];
                    engine.model_mut().copy_params_to(&mut p);
                    (p, bytes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    results.remove(0)
}

#[test]
fn zero2_offload_matches_replicated_ddp_with_quarter_state() {
    let (p_zero2, shard_len) = run_zero2();
    let (p_ddp, ddp_state_bytes) = run_ddp();
    let n = GptModel::new(GPT, SEED).num_params();

    // Training math agrees (fp16 ulp tolerance: the DDP engine rounds
    // averaged grads where ZeRO-2 rounds scattered shards).
    let max_diff = p_zero2
        .iter()
        .zip(&p_ddp)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_diff < 6e-3, "trajectories diverged: {max_diff}");

    // State held per rank: DDP replicates all 12 bytes/param of fp32
    // state; ZeRO-2 holds a 1/WORLD shard.
    assert_eq!(ddp_state_bytes, 12 * n);
    let shards_total = shard_len * WORLD;
    assert!(
        (shards_total as i64 - n as i64).unsigned_abs() < WORLD as u64,
        "shards {shards_total} must tile {n}"
    );
    assert!(shard_len <= n / WORLD + 1);
}
