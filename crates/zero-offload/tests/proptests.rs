//! Property-based tests for the PCIe wire format and gradient bucketer.
//!
//! The offload path's correctness rests on two mechanical invariants:
//! gradient frames survive the encode/decode round-trip bit-exactly (and
//! any framed payload decodes to a value or a typed error), and the
//! bucketer's scatter/gather is lossless for any parameter count and
//! bucket budget (including a ragged final bucket).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use zero_offload::bucket::{scatter_frames, GradBucketer};
use zero_offload::checkpoint::{FILE_MAGIC, FILE_VERSION, PAYLOAD_HEADER_BYTES};
use zero_offload::framing;
use zero_offload::wire::{
    decode_grad_frame, encode_grad_frame, frame_bytes, GRAD_FRAME, HEADER_BYTES,
};
use zero_offload::FrameError;
use zero_offload::{
    decode_checkpoint_bytes, encode_checkpoint_bytes, CheckpointError, DpuCheckpoint,
    TrainingCheckpoint,
};
use zero_offload::{run_zero3_ranks, Zero3Cache, Zero3Event, Zero3Plan, ZeroOffloadConfig};
use zo_optim::AdamState;
use zo_tensor::F16;

/// Records the largest single allocation the current thread makes, so a
/// property can bound what a decoder allocates.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call carries the caller's guarantees; the bookkeeping only touches a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

fn f16_vec(max_len: usize) -> impl Strategy<Value = Vec<F16>> {
    prop::collection::vec(0u16..=u16::MAX, 0..max_len)
        .prop_map(|bits| bits.into_iter().map(F16::from_bits).collect())
}

proptest! {
    /// Any (offset, payload) round-trips bit-exactly through the wire
    /// format, and the frame is exactly `frame_bytes` long.
    #[test]
    fn frame_roundtrip_is_bit_exact(
        offset in 0u64..1_000_000_000_000,
        values in f16_vec(200),
    ) {
        let frame = encode_grad_frame(offset, &values);
        prop_assert_eq!(frame.len(), frame_bytes(values.len()));
        let decoded = decode_grad_frame(&frame).unwrap();
        prop_assert_eq!(decoded.offset, offset);
        prop_assert_eq!(decoded.len(), values.len());
        let mut widened = vec![0.0f32; values.len()];
        decoded.widen_into(&mut widened);
        for (a, b) in widened.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_f32().to_bits());
        }
    }

    /// Corrupting any payload byte (offset or values) is caught by the
    /// checksum.
    #[test]
    fn corrupted_payload_fails_checksum(
        values in f16_vec(32),
        victim in 0usize..1024,
        flip in 1u8..=255,
    ) {
        let mut raw = encode_grad_frame(0, &values);
        let victim = framing::HEADER_BYTES + victim % (raw.len() - framing::HEADER_BYTES);
        raw[victim] ^= flip;
        let err = decode_grad_frame(&raw).unwrap_err();
        prop_assert!(matches!(err, FrameError::Corrupted { .. }), "{err:?}");
    }

    /// A truncated buffer never decodes.
    #[test]
    fn truncated_frame_is_rejected(values in f16_vec(32), keep in 0usize..1024) {
        let frame = encode_grad_frame(0, &values);
        let keep = keep % frame.len();
        let err = decode_grad_frame(&frame[..keep]).unwrap_err();
        prop_assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");
    }

    /// Arbitrary bytes inside a *valid* gradient frame (checksum
    /// recomputed) decode to `Ok` or a typed error, never a panic. A
    /// payload too short for the offset, or with an odd number of value
    /// bytes, is torn (`Truncated`); anything else decodes, widens, and
    /// re-encodes to the same bytes.
    #[test]
    fn grad_frame_decode_of_framed_arbitrary_payload_is_typed(payload in byte_vec(48)) {
        let raw = framing::encode_frame(GRAD_FRAME, &payload);
        match decode_grad_frame(&raw) {
            Ok(frame) => {
                prop_assert!(payload.len() >= 8 && payload.len().is_multiple_of(2));
                let values: Vec<F16> = frame
                    .values
                    .chunks_exact(2)
                    .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
                    .collect();
                let mut widened = vec![0.0f32; frame.len()];
                frame.widen_into(&mut widened);
                for (w, v) in widened.iter().zip(&values) {
                    prop_assert_eq!(w.to_bits(), v.to_f32().to_bits());
                }
                prop_assert_eq!(encode_grad_frame(frame.offset, &values), raw);
            }
            Err(err) => {
                prop_assert!(payload.len() < 8 || !payload.len().is_multiple_of(2), "{err:?}");
                prop_assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");
            }
        }
    }

    /// Bucketing a contiguous gradient buffer into arbitrary bucket
    /// budgets and pushing it in arbitrary chunk sizes loses nothing:
    /// scatter reassembles the exact fp16 values, frames respect the
    /// bucket capacity (only the final one may be ragged), offsets tile
    /// the buffer in order and byte accounting matches.
    #[test]
    fn bucketer_scatter_gather_roundtrip(
        n in 1usize..400,
        cap_elems in 1usize..48,
        chunk in 1usize..64,
    ) {
        let src: Vec<F16> = (0..n).map(|i| F16::from_f32((i % 97) as f32 * 0.25)).collect();
        let mut b = GradBucketer::new(2 * cap_elems);
        let mut off = 0usize;
        while off < n {
            let take = chunk.min(n - off);
            b.push(off as u64, &src[off..off + take]);
            off += take;
        }
        b.flush();
        let raw = b.take_frames();
        let frames: Vec<_> = raw.iter().map(|f| decode_grad_frame(f).unwrap()).collect();

        // Capacity: every frame but the last is exactly full.
        prop_assert_eq!(frames.len(), n.div_ceil(cap_elems));
        for f in &frames[..frames.len() - 1] {
            prop_assert_eq!(f.len(), cap_elems);
        }
        let last = &frames[frames.len() - 1];
        prop_assert_eq!(last.len(), n - (frames.len() - 1) * cap_elems);

        // Contiguous offsets in emission order.
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(f.offset, (i * cap_elems) as u64);
        }

        // Lossless reassembly.
        let mut dst = vec![f32::NAN; n];
        let written = scatter_frames(&frames, &mut dst);
        prop_assert_eq!(written, n);
        for (d, s) in dst.iter().zip(&src) {
            prop_assert_eq!(*d, s.to_f32());
        }

        // Byte accounting: payload is 2·n, wire adds one header per frame.
        prop_assert_eq!(b.payload_bytes(), 2 * n as u64);
        prop_assert_eq!(
            b.wire_bytes(),
            (2 * n + frames.len() * HEADER_BYTES) as u64
        );
        prop_assert_eq!(b.frames_emitted() as usize, frames.len());
    }

    /// A discontinuous push closes the open bucket: the emitted frames
    /// still reassemble both spans exactly.
    #[test]
    fn discontinuous_spans_reassemble(
        a_len in 1usize..40,
        gap in 1u64..100,
        b_len in 1usize..40,
        cap_elems in 1usize..32,
    ) {
        let mk = |len: usize, base: f32| -> Vec<F16> {
            (0..len).map(|i| F16::from_f32(base + i as f32)).collect()
        };
        let (a, c) = (mk(a_len, 1.0), mk(b_len, 500.0));
        let b_off = a_len as u64 + gap;
        let mut bk = GradBucketer::new(2 * cap_elems);
        bk.push(0, &a);
        bk.push(b_off, &c);
        bk.flush();
        let raw = bk.take_frames();
        let frames: Vec<_> = raw.iter().map(|f| decode_grad_frame(f).unwrap()).collect();
        let total = b_off as usize + b_len;
        let mut dst = vec![0.0f32; total];
        prop_assert_eq!(scatter_frames(&frames, &mut dst), a_len + b_len);
        for (i, v) in a.iter().enumerate() {
            prop_assert_eq!(dst[i], v.to_f32());
        }
        // The gap stays untouched.
        for v in &dst[a_len..b_off as usize] {
            prop_assert_eq!(*v, 0.0);
        }
        for (i, v) in c.iter().enumerate() {
            prop_assert_eq!(dst[b_off as usize + i], v.to_f32());
        }
    }
}

fn byte_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=u8::MAX, 0..max_len)
}

proptest! {
    /// Any truncation of a framed blob — torn header or torn payload —
    /// decodes to the typed `Truncated` error, for any frame family.
    #[test]
    fn framing_truncation_is_always_typed(
        payload in byte_vec(96),
        magic in 0u32..=u32::MAX,
        version in 0u32..=u32::MAX,
        cut in 0usize..1024,
    ) {
        let spec = framing::FrameSpec { magic, version };
        let blob = framing::encode_frame(spec, &payload);
        let cut = cut % blob.len(); // blob.len() >= HEADER_BYTES > 0
        let err = framing::decode_frame(spec, &blob[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, FrameError::Truncated { .. }),
            "cut at {}: {:?}", cut, err
        );
    }

    /// Flipping any single byte of a framed blob decodes to the typed
    /// error of the region hit — never a panic, never silent success:
    /// magic bytes to `BadMagic`, version bytes to `BadVersion`, length
    /// bytes to `Truncated` (longer) or `Corrupted` (shorter), checksum
    /// and payload bytes to `Corrupted`.
    #[test]
    fn framing_single_byte_flip_is_typed_by_region(
        payload in byte_vec(64),
        magic in 0u32..=u32::MAX,
        victim in 0usize..1024,
        flip in 1u8..=255,
    ) {
        let spec = framing::FrameSpec { magic, version: 1 };
        let blob = framing::encode_frame(spec, &payload);
        let victim = victim % blob.len();
        let mut raw = blob.clone();
        raw[victim] ^= flip;
        let err = framing::decode_frame(spec, &raw).unwrap_err();
        let ok = match victim {
            0..=3 => matches!(err, FrameError::BadMagic { .. }),
            4..=7 => matches!(err, FrameError::BadVersion { .. }),
            8..=15 => matches!(
                err,
                FrameError::Truncated { .. } | FrameError::Corrupted { .. }
            ),
            _ => matches!(err, FrameError::Corrupted { .. }),
        };
        prop_assert!(ok, "flip {:#04x} at byte {}: {:?}", flip, victim, err);
    }

    /// Decoding arbitrary bytes never panics, and only succeeds when the
    /// blob really is a well-formed frame of the expected family (the
    /// returned payload then re-encodes to a decodable frame).
    #[test]
    fn framing_decode_of_arbitrary_bytes_never_panics(
        raw in byte_vec(256),
        magic in 0u32..=u32::MAX,
        version in 0u32..=u32::MAX,
    ) {
        let spec = framing::FrameSpec { magic, version };
        if let Ok(payload) = framing::decode_frame(spec, &raw) {
            prop_assert!(raw.len() >= framing::HEADER_BYTES + payload.len());
            let reframed = framing::encode_frame(spec, payload);
            prop_assert_eq!(framing::decode_frame(spec, &reframed).unwrap(), payload);
        }
    }
}

/// f32s drawn from every bit pattern, with NaN, ±inf and −0.0 forced in
/// often.
fn f32_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u8..8, 0u32..=u32::MAX), 0..max_len).prop_map(|xs| {
        xs.into_iter()
            .map(|(pick, bits)| match pick {
                0 => f32::NAN,
                1 => f32::from_bits(0x7f80_0001), // signalling NaN
                2 => -0.0,
                3 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                _ => f32::from_bits(bits),
            })
            .collect()
    })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A checkpoint whose sections split `vals` four ways; `dpu` picks no DPU
/// state, DPU without a pending gradient, or DPU with one.
fn checkpoint_of(vals: &[f32], scalars: (u64, u32, u32, u64), dpu: u8) -> TrainingCheckpoint {
    let n = vals.len() / 4;
    let (step, scale_bits, good, counter) = scalars;
    TrainingCheckpoint {
        master: vals[..n].to_vec(),
        optim: AdamState {
            m: vals[n..2 * n].to_vec(),
            v: vals[2 * n..3 * n].to_vec(),
            step,
        },
        loss_scale: (f32::from_bits(scale_bits), good),
        dpu: match dpu {
            0 => None,
            1 => Some(DpuCheckpoint {
                steps_seen: counter ^ 0x5555,
                pending: None,
            }),
            _ => Some(DpuCheckpoint {
                steps_seen: counter ^ 0x5555,
                pending: Some(vals[3 * n..4 * n].to_vec()),
            }),
        },
        steps_applied: counter,
        steps_skipped: counter.rotate_left(7),
    }
}

proptest! {
    /// Any checkpoint round-trips bit-exactly through the v2 file format,
    /// and re-encoding the decoded checkpoint gives back the same bytes.
    #[test]
    fn checkpoint_roundtrip_is_bit_exact(
        vals in f32_vec(160),
        scalars in (0u64..=u64::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u64..=u64::MAX),
        dpu in 0u8..3,
    ) {
        let ckpt = checkpoint_of(&vals, scalars, dpu);
        let bytes = encode_checkpoint_bytes(&ckpt);
        let back = decode_checkpoint_bytes(&bytes).unwrap();
        prop_assert_eq!(bits(&back.master), bits(&ckpt.master));
        prop_assert_eq!(bits(&back.optim.m), bits(&ckpt.optim.m));
        prop_assert_eq!(bits(&back.optim.v), bits(&ckpt.optim.v));
        prop_assert_eq!(back.optim.step, ckpt.optim.step);
        prop_assert_eq!(back.loss_scale.0.to_bits(), ckpt.loss_scale.0.to_bits());
        prop_assert_eq!(back.loss_scale.1, ckpt.loss_scale.1);
        prop_assert_eq!(back.steps_applied, ckpt.steps_applied);
        prop_assert_eq!(back.steps_skipped, ckpt.steps_skipped);
        let dpu_of = |c: &TrainingCheckpoint| {
            c.dpu.as_ref().map(|d| (d.steps_seen, d.pending.as_deref().map(bits)))
        };
        prop_assert_eq!(dpu_of(&back), dpu_of(&ckpt));
        prop_assert_eq!(encode_checkpoint_bytes(&back), bytes);
    }

    /// Arbitrary payload bytes in a valid frame (checksum recomputed, so
    /// only the payload decoder stands in the way) decode to `Ok` or
    /// `Malformed`: never a panic, and no allocation larger than the
    /// payload. Half the cases carry a plausible header, with a body that
    /// is sometimes exactly the size it declares.
    #[test]
    fn checkpoint_decode_of_framed_arbitrary_payload_is_typed(
        tail in byte_vec(200),
        fields in (0u64..=u64::MAX, 0u64..12, 0u32..5, 0u64..3),
        header in any::<bool>(),
        exact in any::<bool>(),
    ) {
        let (big, small, flags, seen) = fields;
        let mut payload = Vec::new();
        if header {
            let params = if exact || big % 2 == 0 { small } else { big };
            payload.extend_from_slice(&params.to_le_bytes());
            // Adam step, loss scale, good steps, applied and skipped counters.
            payload.extend(big.to_le_bytes().iter().cycle().take(PAYLOAD_HEADER_BYTES - 20));
            payload.extend_from_slice(&flags.to_le_bytes());
            payload.extend_from_slice(&seen.to_le_bytes());
            let sections = if flags & 2 != 0 { 4 } else { 3 };
            let body = if exact { 4 * sections * small as usize } else { tail.len() };
            payload.extend((0..body).map(|i| tail.get(i % tail.len().max(1)).copied().unwrap_or(0)));
        } else {
            payload.extend_from_slice(&tail);
        }
        let spec = framing::FrameSpec { magic: FILE_MAGIC, version: FILE_VERSION };
        let blob = framing::encode_frame(spec, &payload);
        LARGEST.with(|l| l.set(0));
        let decoded = decode_checkpoint_bytes(&blob);
        let largest = LARGEST.with(|l| l.get());
        prop_assert!(
            largest <= payload.len().max(256),
            "decoding a {}-byte payload allocated {} bytes at once", payload.len(), largest
        );
        match decoded {
            Ok(ckpt) => prop_assert_eq!(encode_checkpoint_bytes(&ckpt), blob),
            Err(CheckpointError::Malformed { .. }) => {}
            Err(other) => prop_assert!(false, "expected Ok or Malformed, got {:?}", other),
        }
    }
}

#[test]
fn checkpoint_file_is_headers_plus_four_bytes_per_f32() {
    let vals: Vec<f32> = (0..20).map(|i| i as f32 * 0.5).collect();
    for (dpu, sections) in [(0u8, 3usize), (1, 3), (2, 4)] {
        let ckpt = checkpoint_of(&vals, (7, 0x4380_0000, 3, 11), dpu);
        let bytes = encode_checkpoint_bytes(&ckpt);
        assert_eq!(FILE_VERSION, 2);
        assert_eq!(&bytes[4..8], &2u32.to_le_bytes());
        assert_eq!(
            bytes.len(),
            framing::HEADER_BYTES + PAYLOAD_HEADER_BYTES + 4 * sections * 5,
            "dpu case {dpu}"
        );
    }
}

/// Cumulative layer ranges over random per-layer sizes.
fn layer_ranges(sizes: &[usize]) -> Vec<core::ops::Range<usize>> {
    let mut out = Vec::with_capacity(sizes.len());
    let mut at = 0;
    for &s in sizes {
        out.push(at..at + s);
        at += s;
    }
    out
}

proptest! {
    /// For any layer-size vector and world size, the stage-3 shard
    /// ownership is a disjoint exact cover of the parameter space: every
    /// index is owned by exactly one rank, ranges are contiguous and in
    /// rank order.
    #[test]
    fn stage3_ownership_is_a_disjoint_exact_cover(
        sizes in prop::collection::vec(1usize..60, 1..12),
        world in 1usize..6,
    ) {
        let layers = layer_ranges(&sizes);
        let total: usize = sizes.iter().sum();
        let mut at = 0;
        for rank in 0..world {
            let plan = Zero3Plan::new(layers.clone(), total, world, rank, 0, 0);
            let own = plan.owned_range();
            prop_assert_eq!(own.start, at, "rank {} starts where rank {} ended", rank, rank.max(1) - 1);
            prop_assert!(own.end >= own.start);
            at = own.end;
        }
        prop_assert_eq!(at, total, "ranks must tile the whole parameter space");
    }

    /// Replaying the gather/release schedule for any layer sizes, world,
    /// prefetch and cache budget: resident non-owned bytes never exceed
    /// cache budget + prefetch window, the LRU never admits past its
    /// budget, every transient is released by sweep end, and the cache's
    /// high-water mark equals the replayed maximum.
    #[test]
    fn stage3_schedule_never_exceeds_the_residency_budget(
        sizes in prop::collection::vec(1usize..60, 1..12),
        world in 1usize..6,
        rank_pick in 0usize..6,
        prefetch in 0usize..4,
        budget in 0usize..4000,
        steps in 1usize..4,
    ) {
        let layers = layer_ranges(&sizes);
        let total: usize = sizes.iter().sum();
        let rank = rank_pick % world;
        let plan = Zero3Plan::new(layers.clone(), total, world, rank, prefetch, budget);
        let max_layer_bytes = layers.iter().map(|r| 2 * r.len() as u64).max().unwrap();
        let window = (prefetch as u64 + 1) * max_layer_bytes;

        let mut cache = Zero3Cache::new();
        let mut running = 0u64; // non-owned fp16 bytes currently resident
        let mut replayed_peak = 0u64;
        for _ in 0..steps {
            for ev in plan.micro_batch_events(&mut cache) {
                match ev {
                    Zero3Event::Gather { layer, recv_bytes } => {
                        prop_assert_eq!(recv_bytes, plan.layer_nonowned_bytes(layer));
                        running += recv_bytes;
                    }
                    Zero3Event::Release { freed_bytes, .. } => {
                        prop_assert!(freed_bytes <= running, "released more than resident");
                        running -= freed_bytes;
                    }
                    Zero3Event::Hit { .. } | Zero3Event::Refresh { .. } => {}
                }
                prop_assert!(
                    running <= budget as u64 + window,
                    "resident non-owned {} exceeds budget {} + window {}",
                    running, budget, window
                );
                replayed_peak = replayed_peak.max(2 * plan.owned_range().len() as u64 + running);
            }
            // Sweep done: only cache-resident layers remain materialised.
            let cached_nonowned: u64 = cache
                .cached_layers()
                .iter()
                .map(|&l| plan.layer_nonowned_bytes(l))
                .sum();
            prop_assert_eq!(running, cached_nonowned, "transients leaked past the sweep");
            prop_assert!(cache.cached_full_bytes() <= budget as u64, "LRU admitted past its budget");
            // The refresh schedule touches exactly the cached layers.
            for ev in plan.publish_events(&cache) {
                match ev {
                    Zero3Event::Refresh { layer, recv_bytes } => {
                        prop_assert!(cache.cached_layers().contains(&layer));
                        prop_assert_eq!(recv_bytes, plan.layer_nonowned_bytes(layer));
                    }
                    other => prop_assert!(false, "unexpected publish event {other:?}"),
                }
            }
        }
        prop_assert_eq!(cache.peak_bytes(), replayed_peak, "high-water mark drifted from replay");
    }
}

proptest! {
    // Engine runs are costly; a handful of random seeds is plenty to pin
    // the invariant on top of the deterministic tests in
    // `tests/zero3_equivalence.rs`.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The prefetch depth is pure scheduling: for any model seed, worlds
    /// of 2 with prefetch 0, 1 and 3 produce bit-identical shards and
    /// losses.
    #[test]
    fn stage3_prefetch_depth_is_bitwise_invariant(seed in 0u64..1_000_000) {
        let gpt = zo_nn::GptConfig { vocab: 16, seq_len: 8, hidden: 8, heads: 2, layers: 1 };
        let run = |prefetch: usize| {
            let cfg = ZeroOffloadConfig {
                prefetch_layers: prefetch,
                ..ZeroOffloadConfig::default()
            };
            run_zero3_ranks(
                2,
                cfg,
                move |_| zo_nn::GptModel::new(gpt, seed),
                move |engine| {
                    let mut data = zo_models::BigramLm::new(16, 0.05, seed.wrapping_add(1));
                    let mut losses = Vec::new();
                    for _ in 0..3 {
                        let b = data.batch(2, 8);
                        let r = engine.rank();
                        let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                        let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                        let out = engine
                            .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                            .unwrap();
                        losses.push(out.loss().to_bits());
                    }
                    let shard: Vec<u32> =
                        engine.master_params().iter().map(|v| v.to_bits()).collect();
                    (shard, losses)
                },
            )
        };
        let base = run(0);
        for prefetch in [1usize, 3] {
            let got = run(prefetch);
            prop_assert_eq!(&base, &got, "prefetch {} diverged", prefetch);
        }
    }
}
