//! Stage-3 memory-bound and gather-traffic claims, asserted through the
//! tracer counters — the ZeRO-3 analog of `traffic_accounting.rs`.
//!
//! Parameter partitioning bounds each rank's resident fp16 parameters by
//! `2M/N` (owned shard) + the persistent-cache budget + the in-flight
//! prefetch window, instead of ZeRO-2's full `2M` replica. In exchange,
//! layers are re-gathered: with no cache, each micro-batch all-gathers
//! every layer's non-owned bytes twice (forward and backward sweep); a
//! cache trades that traffic back for residency. Both sides of the trade
//! are asserted here against the live engine's `param_traffic_bytes` /
//! `param_hwm_bytes` instrumentation, with the replayable [`Zero3Plan`]
//! as the analytical model. PCIe volume must stay at ZeRO-2's `4M/N`
//! per rank — parameter collectives are not PCIe transfers.

use zero_offload::{
    run_zero3_ranks, TracerRef, Zero3Cache, Zero3Event, Zero3Plan, ZeroOffloadConfig,
};
use zo_collectives::partition_range;
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel, Model};
use zo_optim::{AdamParams, LossScaleConfig};
use zo_trace::{names, Tracer};

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

/// Trains `steps` on `world` stage-3 ranks and returns each rank's
/// (num_params, shard len, layer ranges, live peak residency).
fn train(
    world: usize,
    steps: usize,
    cfg: ZeroOffloadConfig,
) -> Vec<(u64, u64, Vec<core::ops::Range<usize>>, u64)> {
    run_zero3_ranks(
        world,
        cfg,
        |_| GptModel::new(GPT, 7),
        move |engine| {
            let mut data = BigramLm::new(GPT.vocab, 0.05, 3);
            for _ in 0..steps {
                let b = data.batch(world, GPT.seq_len);
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
                engine.model_mut().layer_ranges(),
                engine.zero3_cache().unwrap().peak_bytes(),
            )
        },
    )
}

/// fp16 bytes of layer `l` that `rank` does not own.
fn nonowned_bytes(
    layers: &[core::ops::Range<usize>],
    total: usize,
    world: usize,
    rank: usize,
) -> Vec<u64> {
    let own = partition_range(total, world, rank);
    layers
        .iter()
        .map(|r| {
            let lo = r.start.max(own.start);
            let hi = r.end.min(own.end);
            2 * (r.len() - hi.saturating_sub(lo)) as u64
        })
        .collect()
}

/// The acceptance bound: per-rank peak fp16 parameter residency never
/// exceeds owned shard + cache budget + prefetch window, measured from
/// the engine's `param_hwm_bytes` gauge.
#[test]
fn per_rank_residency_is_bounded_by_shard_cache_and_window() {
    const WORLD: usize = 4;
    const BUDGET: usize = 2000;
    const PREFETCH: usize = 1;
    let tracer = Tracer::new();
    let cfg = ZeroOffloadConfig {
        persistent_param_bytes: BUDGET,
        prefetch_layers: PREFETCH,
        ..cfg_with(&tracer)
    };
    let out = train(WORLD, 3, cfg);

    let m = out[0].0;
    let layers = &out[0].2;
    let max_layer_bytes = layers.iter().map(|r| 2 * r.len() as u64).max().unwrap();
    let bound =
        2 * m.div_ceil(WORLD as u64) + BUDGET as u64 + (PREFETCH as u64 + 1) * max_layer_bytes;
    for (rank, (_, shard, _, live_peak)) in out.iter().enumerate() {
        let gauge = format!("{}.rank{rank}", names::PARAM_HWM_BYTES);
        let peak = tracer.high_water(&gauge).expect("gauge recorded") as u64;
        assert_eq!(peak, *live_peak, "rank {rank} gauge vs cache accounting");
        assert!(
            peak <= bound,
            "rank {rank}: peak residency {peak} exceeds bound {bound}"
        );
        // And the peak is a real working set: at least the owned shard.
        assert!(peak >= 2 * shard, "rank {rank} peak below its own shard");
    }
    // Without a replica the peak must sit well below 2·M once the world
    // splits the parameters.
    let peak0 = tracer
        .high_water(&format!("{}.rank0", names::PARAM_HWM_BYTES))
        .unwrap() as u64;
    assert!(peak0 < 2 * m, "rank 0 residency reached a full replica");
}

/// The no-cache gather equation: every micro-batch all-gathers each
/// layer's non-owned bytes exactly twice (forward + backward sweep), so
/// per-rank traffic is `steps · 2 · Σ_l nonowned_fp16(l)` — measured
/// from `param_traffic_bytes`, per rank and per step row.
#[test]
fn budget_zero_gather_traffic_matches_the_closed_form() {
    const WORLD: usize = 4;
    let steps = 3u64;
    let tracer = Tracer::new();
    let cfg = ZeroOffloadConfig {
        persistent_param_bytes: 0,
        prefetch_layers: 1,
        ..cfg_with(&tracer)
    };
    let out = train(WORLD, steps as usize, cfg);

    let m = out[0].0 as usize;
    let mut total_traffic = 0;
    for (rank, (_, _, layers, _)) in out.iter().enumerate() {
        let per_sweep: u64 = nonowned_bytes(layers, m, WORLD, rank).iter().sum();
        let got = tracer.counter_on(&format!("rank{rank}"), names::PARAM_TRAFFIC_BYTES);
        assert_eq!(got, steps * 2 * per_sweep, "rank {rank} gather bytes");
        total_traffic += got;
    }
    // Rank 0 closes one step row per optimizer step. (Row *contents* are
    // not asserted here: other ranks may still be flushing counters when
    // the row closes, so only the aggregate `counter_on` totals above are
    // exact in a multi-rank run.)
    let rows = tracer.step_metrics();
    assert_eq!(rows.len(), steps as usize);
    let row_sum: u64 = rows
        .iter()
        .map(|r| r.counter(names::PARAM_TRAFFIC_BYTES))
        .sum();
    assert!(row_sum <= total_traffic, "rows exceed the aggregate");
    // Releases happened for every layer, twice a step, on every rank.
    let l = out[0].2.len() as u64;
    for rank in 0..WORLD {
        assert_eq!(
            tracer.counter_on(&format!("rank{rank}"), names::PARAM_RELEASE),
            steps * 2 * l,
            "rank {rank} releases"
        );
    }
    assert!(!tracer.spans_named(names::PARAM_ALLGATHER).is_empty());
    assert!(!tracer.spans_named(names::PARAM_RELEASE).is_empty());
}

/// The general equation: replaying the public [`Zero3Plan`] predicts the
/// live engine's gather traffic exactly, for a budget that caches some
/// layers (refresh traffic) and evicts others (re-gather traffic).
#[test]
fn plan_replay_predicts_traffic_at_any_budget() {
    const WORLD: usize = 2;
    const PREFETCH: usize = 1;
    let steps = 4u64;
    // Budget sized mid-way: big enough to cache small layers, too small
    // for the embeddings — exercises hits, evictions and refreshes.
    let layers = GptModel::new(GPT, 7).layer_ranges();
    let mid = layers.iter().map(|r| 2 * r.len()).min().unwrap() * 2;
    let tracer = Tracer::new();
    let cfg = ZeroOffloadConfig {
        persistent_param_bytes: mid,
        prefetch_layers: PREFETCH,
        ..cfg_with(&tracer)
    };
    let out = train(WORLD, steps as usize, cfg);

    let m = out[0].0 as usize;
    for (rank, (_, _, layers, _)) in out.iter().enumerate() {
        let plan = Zero3Plan::new(layers.clone(), m, WORLD, rank, PREFETCH, mid);
        let mut cache = Zero3Cache::new();
        let mut predicted = 0u64;
        for _ in 0..steps {
            for ev in plan.micro_batch_events(&mut cache) {
                if let Zero3Event::Gather { recv_bytes, .. } = ev {
                    predicted += recv_bytes;
                }
            }
            for ev in plan.publish_events(&cache) {
                if let Zero3Event::Refresh { recv_bytes, .. } = ev {
                    predicted += recv_bytes;
                }
            }
        }
        let got = tracer.counter_on(&format!("rank{rank}"), names::PARAM_TRAFFIC_BYTES);
        assert_eq!(got, predicted, "rank {rank}: plan replay must match engine");
        // The cache is genuinely in play at this budget.
        assert!(cache.cached_full_bytes() > 0, "rank {rank} cache unused");
    }
}

/// A full cache flips the trade: steady-state gather traffic collapses
/// to the per-step refresh of the cached layers, strictly below the
/// no-cache engine's.
#[test]
fn persistent_cache_reduces_steady_state_traffic() {
    const WORLD: usize = 2;
    let steps = 4u64;
    let cold_tracer = Tracer::new();
    let cold = ZeroOffloadConfig {
        persistent_param_bytes: 0,
        ..cfg_with(&cold_tracer)
    };
    train(WORLD, steps as usize, cold);
    let hot_tracer = Tracer::new();
    let hot = ZeroOffloadConfig {
        persistent_param_bytes: usize::MAX,
        ..cfg_with(&hot_tracer)
    };
    let out = train(WORLD, steps as usize, hot);

    let m = out[0].0 as usize;
    for (rank, (_, _, layers, _)) in out.iter().enumerate() {
        let track = format!("rank{rank}");
        let per_sweep: u64 = nonowned_bytes(layers, m, WORLD, rank).iter().sum();
        // Cold: 2 sweeps/step. Hot: one cold-start sweep + one refresh
        // per step (the backward sweep is all cache hits).
        let cold_bytes = cold_tracer.counter_on(&track, names::PARAM_TRAFFIC_BYTES);
        let hot_bytes = hot_tracer.counter_on(&track, names::PARAM_TRAFFIC_BYTES);
        assert_eq!(cold_bytes, steps * 2 * per_sweep, "rank {rank} cold");
        assert_eq!(hot_bytes, (steps + 1) * per_sweep, "rank {rank} hot");
        assert!(hot_bytes < cold_bytes, "rank {rank}: cache did not help");
    }
}

/// Stage 3 must not touch the PCIe story: per rank and per step, 2·M/N
/// gradient bytes go device-to-host and 2·M/N parameter bytes come back —
/// identical to ZeRO-2. Parameter all-gathers ride the interconnect, not
/// the PCIe counters.
#[test]
fn pcie_traffic_stays_at_4m_over_n() {
    const WORLD: usize = 2;
    let steps = 3u64;
    let tracer = Tracer::new();
    let out = train(WORLD, steps as usize, cfg_with(&tracer));

    let m = out[0].0;
    assert_eq!(out.iter().map(|r| r.1).sum::<u64>(), m);
    for (rank, (_, shard, _, _)) in out.iter().enumerate() {
        let track = format!("rank{rank}");
        assert_eq!(
            tracer.counter_on(&track, "d2h_bytes"),
            steps * 2 * shard,
            "rank {rank} d2h"
        );
        assert_eq!(
            tracer.counter_on(&track, "h2d_bytes"),
            steps * 2 * shard,
            "rank {rank} h2d"
        );
    }
    let total: u64 = (0..WORLD)
        .map(|r| {
            let t = format!("rank{r}");
            tracer.counter_on(&t, "d2h_bytes") + tracer.counter_on(&t, "h2d_bytes")
        })
        .sum();
    assert_eq!(total, steps * 4 * m);
}
