//! The PCIe wire format for gradient offload.
//!
//! Gradients leave the device as fp16 and arrive in host memory (paper
//! Sec. 4.1). This module gives that transfer a concrete byte format so
//! the emulated link moves real framed bytes. A gradient frame is a
//! [`framing`] frame of the [`GRAD_FRAME`] family — the same header,
//! checksum and typed [`FrameError`]s as checkpoints and tier partitions —
//! whose payload is the flat offset of the first element (u64 LE)
//! followed by the little-endian fp16 values. Frames are the unit the
//! gradient bucketer emits and the host-side consumer validates.

use zo_tensor::F16;

use crate::framing::{self, FrameError, FrameSpec};

/// The gradient frame family: magic "ZOfl".
pub const GRAD_FRAME: FrameSpec = FrameSpec {
    magic: 0x5A4F_666C,
    version: 1,
};

/// Bytes a frame adds to its fp16 values: the frame header plus the
/// u64 offset.
pub const HEADER_BYTES: usize = framing::HEADER_BYTES + OFFSET_BYTES;

const OFFSET_BYTES: usize = 8;

/// Elements widened per batch when decoding straight from payload bytes:
/// a fixed stack buffer keeps [`F16::to_f32_slice`]'s vector path.
const WIDEN_BATCH: usize = 64;

/// A decoded gradient frame: a view into the validated frame bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradFrame<'a> {
    /// Flat offset of the first element in the parameter space.
    pub offset: u64,
    /// The fp16 values, two little-endian bytes each.
    pub values: &'a [u8],
}

impl GradFrame<'_> {
    /// Number of fp16 values in the frame.
    pub fn len(&self) -> usize {
        self.values.len() / 2
    }

    /// Whether the frame carries no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Widens the values into `dst`, which must hold exactly
    /// [`len`](Self::len) elements.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn widen_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.len(), "widen length mismatch");
        let mut lanes = [F16::ZERO; WIDEN_BATCH];
        for (src, out) in self
            .values
            .chunks(2 * WIDEN_BATCH)
            .zip(dst.chunks_mut(WIDEN_BATCH))
        {
            for (lane, b) in lanes.iter_mut().zip(src.chunks_exact(2)) {
                *lane = F16::from_bits(u16::from_le_bytes([b[0], b[1]]));
            }
            F16::to_f32_slice(&lanes[..out.len()], out);
        }
    }
}

/// Encodes the fp16 `values` starting at flat `offset` as one frame.
pub fn encode_grad_frame(offset: u64, values: &[F16]) -> Vec<u8> {
    let mut payload = vec![0u8; OFFSET_BYTES + 2 * values.len()];
    payload[..OFFSET_BYTES].copy_from_slice(&offset.to_le_bytes());
    for (dst, v) in payload[OFFSET_BYTES..].chunks_exact_mut(2).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    framing::encode_frame(GRAD_FRAME, &payload)
}

/// Decodes one frame through [`framing::decode_frame`]. A payload too
/// short for the offset, or with an odd number of value bytes, is a torn
/// payload and decodes to [`FrameError::Truncated`].
pub fn decode_grad_frame(bytes: &[u8]) -> Result<GradFrame<'_>, FrameError> {
    let payload = framing::decode_frame(GRAD_FRAME, bytes)?;
    let torn = |need: usize| FrameError::Truncated {
        have: payload.len(),
        need,
    };
    if payload.len() < OFFSET_BYTES {
        return Err(torn(OFFSET_BYTES));
    }
    if !payload.len().is_multiple_of(2) {
        return Err(torn(payload.len() + 1));
    }
    let (offset, values) = payload.split_at(OFFSET_BYTES);
    Ok(GradFrame {
        offset: u64::from_le_bytes(offset.try_into().expect("8 bytes")),
        values,
    })
}

/// Scales `grads` by `scale / denom` into `scratch` and narrows the whole
/// batch to fp16 into `wire` with the slice codec ([`F16::from_f32_slice`]).
/// Returns `true` if any narrowed value is non-finite (loss-scale overflow).
///
/// The scale loop is element-independent and the slice codec is bit-identical
/// to the scalar [`F16::from_f32`] path, so callers that replace per-element
/// quantize loops with this helper produce byte-identical wire traffic.
pub fn quantize_grads(
    grads: &[f32],
    denom: f32,
    scale: f32,
    scratch: &mut Vec<f32>,
    wire: &mut Vec<F16>,
) -> bool {
    scratch.clear();
    scratch.extend(grads.iter().map(|&g| g / denom * scale));
    wire.resize(grads.len(), F16::ZERO);
    F16::from_f32_slice(scratch, wire);
    wire.iter().any(|w| !w.is_finite())
}

/// Quantizes `grads` as [`quantize_grads`] does, then immediately widens the
/// fp16 values back and unscales in place (`g = widen(narrow(g * scale /
/// denom)) / scale`) — the post-hoc H2D/D2H round trip the non-streaming
/// engines apply to emulate gradients crossing the PCIe link. Returns the
/// overflow flag.
pub fn roundtrip_grads(
    grads: &mut [f32],
    denom: f32,
    scale: f32,
    scratch: &mut Vec<f32>,
    wire: &mut Vec<F16>,
) -> bool {
    let overflow = quantize_grads(grads, denom, scale, scratch, wire);
    F16::to_f32_slice(wire, grads);
    for g in grads.iter_mut() {
        *g /= scale;
    }
    overflow
}

/// Decodes one frame and records receive-side counters on `track`:
/// `rx_wire_bytes` (full frame size), `rx_payload_bytes` (fp16 payload)
/// and `rx_frames`. Failed frames count nothing.
pub fn decode_frame_traced<'a>(
    tracer: &zo_trace::Tracer,
    track: &str,
    bytes: &'a [u8],
) -> Result<GradFrame<'a>, FrameError> {
    let frame = decode_grad_frame(bytes)?;
    tracer.add(track, "rx_wire_bytes", bytes.len() as u64);
    tracer.add(track, "rx_payload_bytes", frame.values.len() as u64);
    tracer.add(track, "rx_frames", 1);
    Ok(frame)
}

/// Total wire bytes for `elements` fp16 values in one frame.
pub fn frame_bytes(elements: usize) -> usize {
    HEADER_BYTES + 2 * elements
}

/// Carries one staged frame across the emulated link under a fault
/// session: the frame passes the `wire.d2h` gate with bounded
/// exponential-backoff retry before delivery.
///
/// A recovered transient retransmits the *same* bytes (retries never
/// change what was staged), so transient faults cannot perturb the
/// decoded gradients. A fatal or retry-exhausted fault surfaces as a
/// typed [`zo_fault::FaultError`]; the frame is considered lost.
pub fn ship_frame(
    frame: Vec<u8>,
    faults: &mut zo_fault::FaultSession,
    tracer: &zo_trace::Tracer,
    track: &str,
) -> Result<Vec<u8>, zo_fault::FaultError> {
    zo_fault::with_retry(faults, zo_fault::Site::WireD2h, tracer, track, || frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<F16> {
        (0..n)
            .map(|i| F16::from_f32(i as f32 * 0.25 - 4.0))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let v = values(137);
        let frame = encode_grad_frame(1234, &v);
        assert_eq!(frame.len(), frame_bytes(137));
        assert_eq!(HEADER_BYTES, 28);
        let decoded = decode_grad_frame(&frame).unwrap();
        assert_eq!(decoded.offset, 1234);
        assert_eq!(decoded.len(), 137);
        let mut widened = vec![0.0f32; 137];
        decoded.widen_into(&mut widened);
        let want: Vec<f32> = v.iter().map(|x| x.to_f32()).collect();
        assert_eq!(widened, want);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = encode_grad_frame(0, &[]);
        let decoded = decode_grad_frame(&frame).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_header_rejected() {
        let frame = encode_grad_frame(0, &values(4));
        assert!(matches!(
            decode_grad_frame(&frame[..HEADER_BYTES - 1]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let frame = encode_grad_frame(0, &values(4));
        assert!(matches!(
            decode_grad_frame(&frame[..HEADER_BYTES + 3]),
            Err(FrameError::Truncated { .. })
        ));
        // A valid frame whose payload is torn: no room for the offset, or
        // an odd number of value bytes.
        for payload in [&b"short"[..], &[0u8; 9][..]] {
            let frame = framing::encode_frame(GRAD_FRAME, payload);
            assert!(matches!(
                decode_grad_frame(&frame),
                Err(FrameError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_grad_frame(0, &values(2));
        frame[0] ^= 0xFF;
        match decode_grad_frame(&frame) {
            Err(FrameError::BadMagic { found }) => assert_ne!(found, GRAD_FRAME.magic),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut frame = encode_grad_frame(0, &values(8));
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode_grad_frame(&frame),
            Err(FrameError::Corrupted { .. })
        ));
    }

    #[test]
    fn error_display() {
        let torn = framing::encode_frame(GRAD_FRAME, b"short");
        let e = decode_grad_frame(&torn).unwrap_err();
        assert_eq!(e.to_string(), "truncated frame: have 5 bytes, need 8");
    }

    #[test]
    fn ship_frame_retries_transients_and_surfaces_fatals() {
        use zo_fault::{FaultKind, FaultPlan, FaultSession, Site, SiteSpec};
        let tracer = zo_trace::Tracer::new();
        let frame = encode_grad_frame(8, &values(4));

        let transient = std::sync::Arc::new(
            FaultPlan::builder(2)
                .site(
                    Site::WireD2h,
                    SiteSpec {
                        kind: FaultKind::Transient,
                        prob: 1.0,
                        depth: 2,
                    },
                )
                .build(),
        );
        let mut session = FaultSession::new(transient, 1);
        let shipped = ship_frame(frame.clone(), &mut session, &tracer, "pcie").unwrap();
        assert_eq!(shipped, frame, "retries must retransmit identical bytes");
        assert_eq!(tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS), 2);

        let fatal = std::sync::Arc::new(
            FaultPlan::builder(2)
                .site(
                    Site::WireD2h,
                    SiteSpec {
                        kind: FaultKind::Fatal,
                        prob: 1.0,
                        depth: 1,
                    },
                )
                .build(),
        );
        let mut session = FaultSession::new(fatal, 1);
        assert_eq!(
            ship_frame(frame, &mut session, &tracer, "pcie"),
            Err(zo_fault::FaultError::Fatal {
                site: Site::WireD2h
            })
        );
    }
}
