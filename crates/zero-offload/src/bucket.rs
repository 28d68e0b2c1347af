//! Gradient bucketing for the overlapped device→host offload.
//!
//! "ZeRO-Offload can transfer these gradients for each parameter
//! individually or in small groups to the CPU memory immediately after
//! they are computed" (Sec. 4.1). The bucketer is that grouping: gradient
//! spans arrive in backward order, are packed into buckets of a fixed byte
//! budget, and each full bucket is emitted as a wire frame that the
//! transfer path can ship while backward continues.
//!
//! Buckets bound the transient GPU staging memory (the `GRAD_BUCKET_BYTES`
//! of the memory model): only the open bucket lives on the device.

use zo_tensor::F16;

use crate::wire::{encode_grad_frame, GradFrame};

/// Packs gradient spans into fixed-size wire frames.
pub struct GradBucketer {
    capacity_elems: usize,
    frames: u32,
    /// Flat offset of the first staged element, if any.
    open_offset: Option<u64>,
    staged: Vec<F16>,
    emitted: Vec<Vec<u8>>,
    total_payload_bytes: u64,
    total_wire_bytes: u64,
    tracer: zo_trace::Tracer,
    track: String,
}

impl GradBucketer {
    /// Creates a bucketer with a byte budget per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes < 2` (smaller than one fp16 element).
    pub fn new(capacity_bytes: usize) -> GradBucketer {
        GradBucketer::traced(capacity_bytes, zo_trace::Tracer::disabled(), "pcie")
    }

    /// Like [`GradBucketer::new`], additionally recording send-side
    /// counters on `track` as each frame is emitted: `tx_wire_bytes`,
    /// `tx_payload_bytes` and `tx_frames`.
    pub fn traced(
        capacity_bytes: usize,
        tracer: zo_trace::Tracer,
        track: impl Into<String>,
    ) -> GradBucketer {
        assert!(capacity_bytes >= 2, "bucket must hold at least one element");
        GradBucketer {
            capacity_elems: capacity_bytes / 2,
            frames: 0,
            open_offset: None,
            staged: Vec::new(),
            emitted: Vec::new(),
            total_payload_bytes: 0,
            total_wire_bytes: 0,
            tracer,
            track: track.into(),
        }
    }

    /// Elements the open bucket can still take.
    pub fn remaining(&self) -> usize {
        self.capacity_elems - self.staged.len()
    }

    /// Stages a gradient span starting at flat `offset`.
    ///
    /// Spans must arrive with offsets that are contiguous within a bucket;
    /// a non-contiguous span closes the open bucket first.
    pub fn push(&mut self, offset: u64, values: &[F16]) {
        let mut offset = offset;
        let mut values = values;
        // Close the bucket on discontinuity.
        if let Some(open) = self.open_offset {
            if open + self.staged.len() as u64 != offset {
                self.flush();
            }
        }
        while !values.is_empty() {
            if self.open_offset.is_none() {
                self.open_offset = Some(offset);
            }
            let take = self.remaining().min(values.len());
            self.staged.extend_from_slice(&values[..take]);
            values = &values[take..];
            offset += take as u64;
            if self.remaining() == 0 {
                self.flush();
            }
        }
    }

    /// Closes the open bucket (if non-empty), emitting its frame.
    pub fn flush(&mut self) {
        if self.staged.is_empty() {
            self.open_offset = None;
            return;
        }
        let offset = self.open_offset.take().expect("staged implies open");
        let frame = encode_grad_frame(offset, &self.staged);
        self.total_payload_bytes += 2 * self.staged.len() as u64;
        self.total_wire_bytes += frame.len() as u64;
        self.tracer
            .add(&self.track, "tx_wire_bytes", frame.len() as u64);
        self.tracer.add(
            &self.track,
            "tx_payload_bytes",
            2 * self.staged.len() as u64,
        );
        self.tracer.add(&self.track, "tx_frames", 1);
        self.emitted.push(frame);
        self.frames += 1;
        self.staged.clear();
    }

    /// Takes all frames emitted so far.
    pub fn take_frames(&mut self) -> Vec<Vec<u8>> {
        core::mem::take(&mut self.emitted)
    }

    /// fp16 payload bytes emitted (2 per element).
    pub fn payload_bytes(&self) -> u64 {
        self.total_payload_bytes
    }

    /// Total on-the-wire bytes including frame headers.
    pub fn wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// Frames emitted so far.
    pub fn frames_emitted(&self) -> u32 {
        self.frames
    }
}

/// Reassembles decoded frames into a flat fp32 gradient buffer, widening
/// each frame's fp16 bytes straight into place.
///
/// Returns the number of elements written. Overlapping frames overwrite —
/// callers send disjoint spans.
///
/// # Panics
///
/// Panics if a frame extends past `dst.len()`.
pub fn scatter_frames(frames: &[GradFrame<'_>], dst: &mut [f32]) -> usize {
    let mut written = 0;
    for f in frames {
        let start = usize::try_from(f.offset).unwrap_or(usize::MAX);
        let end = start.saturating_add(f.len());
        assert!(
            end <= dst.len(),
            "frame [{start}, {end}) exceeds buffer {}",
            dst.len()
        );
        f.widen_into(&mut dst[start..end]);
        written += f.len();
    }
    written
}

/// Picks a bucket byte budget: large enough that headers are negligible,
/// small enough that at most two buckets bound the staging memory.
pub fn default_bucket_bytes() -> usize {
    32 * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_grad_frame, frame_bytes};

    fn vals(range: core::ops::Range<usize>) -> Vec<F16> {
        range.map(|i| F16::from_f32(i as f32 * 0.5)).collect()
    }

    fn decode_all(raw: &[Vec<u8>]) -> Vec<GradFrame<'_>> {
        raw.iter().map(|f| decode_grad_frame(f).unwrap()).collect()
    }

    #[test]
    fn contiguous_spans_merge_into_buckets() {
        // Capacity 8 elements (16 bytes): 20 contiguous elements emit
        // frames of 8 + 8, with 4 left staged until flush.
        let mut b = GradBucketer::new(16);
        b.push(0, &vals(0..10));
        b.push(10, &vals(10..20));
        assert_eq!(b.frames_emitted(), 2);
        b.flush();
        let raw = b.take_frames();
        let frames = decode_all(&raw);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].offset, 0);
        assert_eq!(frames[0].len(), 8);
        assert_eq!(frames[1].offset, 8);
        assert_eq!(frames[2].offset, 16);
        assert_eq!(frames[2].len(), 4);
    }

    #[test]
    fn discontinuity_closes_bucket() {
        let mut b = GradBucketer::new(1024);
        b.push(0, &vals(0..3));
        b.push(100, &vals(0..3)); // Gap: first bucket must close.
        b.flush();
        let raw = b.take_frames();
        let frames = decode_all(&raw);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].offset, 0);
        assert_eq!(frames[1].offset, 100);
    }

    #[test]
    fn byte_accounting() {
        let mut b = GradBucketer::new(8); // 4 elements per bucket
        b.push(0, &vals(0..4));
        assert_eq!(b.payload_bytes(), 8);
        assert_eq!(b.wire_bytes(), frame_bytes(4) as u64);
        assert_eq!(frame_bytes(4), 28 + 8);
    }

    #[test]
    fn scatter_reassembles_exactly() {
        let mut b = GradBucketer::new(10); // 5 elements
        let src: Vec<F16> = (0..13).map(|i| F16::from_f32(i as f32)).collect();
        b.push(7, &src);
        b.flush();
        let raw = b.take_frames();
        let mut dst = vec![0.0f32; 32];
        let written = scatter_frames(&decode_all(&raw), &mut dst);
        assert_eq!(written, 13);
        for i in 0..13 {
            assert_eq!(dst[7 + i], i as f32);
        }
        assert_eq!(dst[6], 0.0);
        assert_eq!(dst[20], 0.0);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut b = GradBucketer::new(64);
        b.flush();
        assert!(b.take_frames().is_empty());
        assert_eq!(b.frames_emitted(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn scatter_bounds_checked() {
        let raw = encode_grad_frame(30, &[F16::ONE; 5]);
        let mut dst = vec![0.0f32; 32];
        scatter_frames(&decode_all(&[raw]), &mut dst);
    }
}
