//! Paper-claim traffic accounting, asserted through the tracer counters.
//!
//! ZeRO-Offload's data-flow partitioning moves exactly 4·M bytes per
//! iteration over PCIe for an M-parameter model: 2·M bytes of fp16
//! gradients device-to-host and 2·M bytes of fp16 parameters back (§ 4.1).
//! Under ZeRO-2 offload each of the N ranks only ships its own partition,
//! so the per-rank volume drops to ~4·M/N (§ 4.2).

use zero_offload::{run_ranks, StepOutcome, TracerRef, ZeroOffloadConfig, ZeroOffloadEngine};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel, Model};
use zo_optim::{AdamParams, LossScaleConfig};
use zo_trace::Tracer;

const GPT: GptConfig = GptConfig {
    vocab: 32,
    seq_len: 16,
    hidden: 32,
    heads: 2,
    layers: 2,
};

fn cfg_with(tracer: &Tracer) -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        adam: AdamParams {
            lr: 1e-3,
            ..AdamParams::default()
        },
        // Modest initial scale so no step hits fp16 overflow and skips.
        loss_scale: LossScaleConfig {
            init_scale: 256.0,
            ..Default::default()
        },
        tracer: Some(TracerRef::install(tracer.clone())),
        ..ZeroOffloadConfig::default()
    }
}

#[test]
fn single_gpu_pcie_traffic_is_4m_bytes_per_iteration() {
    let tracer = Tracer::new();
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 7), cfg_with(&tracer));
    let m = engine.model().num_params() as u64;
    let mut data = BigramLm::new(GPT.vocab, 0.05, 3);
    let steps = 5u64;
    for _ in 0..steps {
        let b = data.batch(4, GPT.seq_len);
        let out = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
            .unwrap();
        assert!(
            matches!(out, StepOutcome::Applied { .. }),
            "unexpected {out:?}"
        );
    }

    // 2·M fp16 gradient bytes down and 2·M fp16 parameter bytes up, per step.
    assert_eq!(tracer.counter_on("pcie", "d2h_bytes"), steps * 2 * m);
    assert_eq!(tracer.counter_on("pcie", "h2d_bytes"), steps * 2 * m);

    // The same invariant holds step by step, not just in aggregate.
    let rows = tracer.step_metrics();
    assert_eq!(rows.len(), steps as usize);
    for row in &rows {
        assert_eq!(row.counter("d2h_bytes"), 2 * m, "step {}", row.step);
        assert_eq!(row.counter("h2d_bytes"), 2 * m, "step {}", row.step);
        assert_eq!(row.counter("steps_applied"), 1, "step {}", row.step);
        assert_eq!(row.counter("steps_skipped"), 0, "step {}", row.step);
    }

    // Loopback invariant: every byte the bucketer framed was decoded on
    // the host side, and the payload is exactly the gradient traffic.
    assert_eq!(
        tracer.counter_on("pcie", "rx_frames"),
        tracer.counter_on("pcie", "tx_frames")
    );
    assert_eq!(
        tracer.counter_on("pcie", "rx_wire_bytes"),
        tracer.counter_on("pcie", "tx_wire_bytes")
    );
    assert_eq!(tracer.counter_on("pcie", "tx_payload_bytes"), steps * 2 * m);
}

#[test]
fn zero2_per_rank_traffic_is_4m_over_n_bytes() {
    const WORLD: usize = 4;
    let tracer = Tracer::new();
    let cfg = cfg_with(&tracer);
    let steps = 3u64;
    let tracer_ref = &tracer;
    let per_rank = run_ranks(
        WORLD,
        cfg,
        |_| GptModel::new(GPT, 7),
        move |engine| {
            let track = format!("rank{}", engine.rank());
            // Construction all-gathers the initial parameters once; only
            // the ranks' own thread writes its track, so deltas taken
            // around the training loop are exact.
            let d2h0 = tracer_ref.counter_on(&track, "d2h_bytes");
            let h2d0 = tracer_ref.counter_on(&track, "h2d_bytes");
            let mut data = BigramLm::new(GPT.vocab, 0.05, 3);
            for _ in 0..steps {
                let b = data.batch(WORLD, GPT.seq_len);
                let r = engine.rank();
                let n = GPT.seq_len;
                let inputs = b.inputs[r * n..(r + 1) * n].to_vec();
                let targets = b.targets[r * n..(r + 1) * n].to_vec();
                engine
                    .step(|m| m.train_step(&inputs, &targets, 1, GPT.seq_len, |_| {}))
                    .unwrap();
            }
            (
                engine.model().num_params() as u64,
                engine.master_params().len() as u64,
                tracer_ref.counter_on(&track, "d2h_bytes") - d2h0,
                tracer_ref.counter_on(&track, "h2d_bytes") - h2d0,
            )
        },
    );

    let m = per_rank[0].0;
    // The shards tile the parameter set.
    assert_eq!(per_rank.iter().map(|r| r.1).sum::<u64>(), m);
    for (rank, &(_, shard, d2h, h2d)) in per_rank.iter().enumerate() {
        // Each rank ships only its own partition: 2 fp16 bytes per shard
        // element in each direction per step — 4·M/N, not 4·M.
        assert_eq!(d2h, steps * 2 * shard, "rank {rank} d2h");
        assert_eq!(h2d, steps * 2 * shard, "rank {rank} h2d");
        assert!(
            shard <= m.div_ceil(WORLD as u64),
            "rank {rank} shard {shard}"
        );
    }
    // Summed over ranks the total volume is still 4·M per iteration.
    let total: u64 = per_rank.iter().map(|r| r.2 + r.3).sum();
    assert_eq!(total, steps * 4 * m);
    assert_eq!(tracer.tracks_with_counter("d2h_bytes").len(), WORLD);
}
