//! Shared `magic | version | length | checksum` frame codec.
//!
//! Checkpoint files and memory-tier partition blobs carry the same
//! failure mode: a write that dies partway (crash, injected fault, torn
//! page) must be *detected* at read time as a typed error, never handed
//! to a deserializer or — worse — silently accepted. Both paths frame
//! their payload with this 20-byte header:
//!
//! ```text
//! magic (u32 LE) | version (u32 LE) | payload_len (u64 LE) | fnv1a (u32 LE)
//! ```
//!
//! The codec is parameterized by a [`FrameSpec`] (magic + version), so
//! each consumer keeps its own file identity while sharing one decoder —
//! and one proptest suite — for the torn/corrupt/foreign cases.
//!
//! Both payloads are mostly fp32 state, which [`put_f32_sections`] and
//! [`get_f32_sections`] store as back-to-back little-endian sections: a
//! lossless byte image, so state read back is bit-identical.

/// Frame header size: magic, version, payload length, checksum.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 4;

/// A frame family: the magic and version a consumer stamps its blobs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// Four-byte file magic (little-endian u32).
    pub magic: u32,
    /// Format version the consumer currently writes.
    pub version: u32,
}

/// Typed decode failures; every malformed input maps to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The blob ends before the framed payload does — a torn write.
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header (or the fixed header size) promised.
        need: usize,
    },
    /// The blob does not start with the expected magic.
    BadMagic {
        /// The value found.
        found: u32,
    },
    /// The magic matched but the version is not one this build reads.
    BadVersion {
        /// The value found.
        found: u32,
    },
    /// The payload checksum does not match the header.
    Corrupted {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x}")
            }
            FrameError::BadVersion { found } => {
                write!(f, "unsupported frame version {found}")
            }
            FrameError::Corrupted { expected, computed } => write!(
                f,
                "frame corrupted: checksum header {expected:#010x}, payload {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over the payload bytes (same recurrence as the wire frames).
pub fn fnv1a(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in payload {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encodes `payload` into a framed blob under `spec`.
pub fn encode_frame(spec: FrameSpec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&spec.magic.to_le_bytes());
    out.extend_from_slice(&spec.version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes a framed blob, validating magic, version, length and checksum
/// before returning a view of the payload. Trailing bytes beyond the
/// framed length are ignored (a frame knows its own extent).
pub fn decode_frame(spec: FrameSpec, bytes: &[u8]) -> Result<&[u8], FrameError> {
    if bytes.len() < HEADER_BYTES {
        return Err(FrameError::Truncated {
            have: bytes.len(),
            need: HEADER_BYTES,
        });
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let magic = word(0);
    if magic != spec.magic {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = word(4);
    if version != spec.version {
        return Err(FrameError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let expected = word(16);
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() < len {
        return Err(FrameError::Truncated {
            have: payload.len(),
            need: len,
        });
    }
    let payload = &payload[..len];
    let computed = fnv1a(payload);
    if computed != expected {
        return Err(FrameError::Corrupted { expected, computed });
    }
    Ok(payload)
}

/// The bytes do not hold exactly four per f32 the sections expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionLenError {
    /// Bytes present.
    pub have: usize,
    /// Bytes the sections need.
    pub need: usize,
}

impl core::fmt::Display for SectionLenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "f32 sections need {} bytes, payload holds {}",
            self.need, self.have
        )
    }
}

impl std::error::Error for SectionLenError {}

/// Appends each of `sections` to `out`, back to back, as little-endian
/// f32s.
pub fn put_f32_sections(out: &mut Vec<u8>, sections: &[&[f32]]) {
    let total: usize = sections.iter().map(|s| s.len()).sum();
    out.reserve(4 * total);
    for series in sections {
        let start = out.len();
        out.resize(start + 4 * series.len(), 0);
        for (dst, x) in out[start..].chunks_exact_mut(4).zip(series.iter()) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

/// Inverse of [`put_f32_sections`]: fills each of `sections` in order
/// from `bytes`, which must hold exactly four bytes per value. Nothing is
/// written on a length mismatch.
pub fn get_f32_sections(bytes: &[u8], sections: &mut [&mut [f32]]) -> Result<(), SectionLenError> {
    let need = 4 * sections.iter().map(|s| s.len()).sum::<usize>();
    if bytes.len() != need {
        return Err(SectionLenError {
            have: bytes.len(),
            need,
        });
    }
    let mut rest = bytes;
    for series in sections.iter_mut() {
        let (head, tail) = rest.split_at(4 * series.len());
        for (x, src) in series.iter_mut().zip(head.chunks_exact(4)) {
            *x = f32::from_le_bytes(src.try_into().expect("4 bytes"));
        }
        rest = tail;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FrameSpec = FrameSpec {
        magic: 0x5A4F_7465,
        version: 1,
    };

    #[test]
    fn roundtrip() {
        let payload = b"twelve bytes";
        let blob = encode_frame(SPEC, payload);
        assert_eq!(blob.len(), HEADER_BYTES + payload.len());
        assert_eq!(decode_frame(SPEC, &blob).unwrap(), payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let blob = encode_frame(SPEC, b"");
        assert_eq!(decode_frame(SPEC, &blob).unwrap(), b"");
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut blob = encode_frame(SPEC, b"payload");
        blob.extend_from_slice(b"junk after the frame");
        assert_eq!(decode_frame(SPEC, &blob).unwrap(), b"payload");
    }

    #[test]
    fn every_truncation_is_typed() {
        let blob = encode_frame(SPEC, b"some payload bytes");
        for cut in 0..blob.len() {
            let err = decode_frame(SPEC, &blob[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let blob = encode_frame(SPEC, b"payload");
        let other = FrameSpec {
            magic: 0x1111_2222,
            ..SPEC
        };
        assert!(matches!(
            decode_frame(other, &blob),
            Err(FrameError::BadMagic { .. })
        ));
        let vnext = FrameSpec { version: 2, ..SPEC };
        assert!(matches!(
            decode_frame(vnext, &blob),
            Err(FrameError::BadVersion { found: 1 })
        ));
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let mut blob = encode_frame(SPEC, b"payload under test");
        let at = HEADER_BYTES + 3;
        blob[at] ^= 0x01;
        assert!(matches!(
            decode_frame(SPEC, &blob),
            Err(FrameError::Corrupted { .. })
        ));
    }

    #[test]
    fn f32_sections_roundtrip_bit_patterns() {
        let a = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        let b = [f32::from_bits(0x7fc0_0001), f32::MIN_POSITIVE, 1.5];
        let mut bytes = vec![0xAA]; // appends after existing bytes
        put_f32_sections(&mut bytes, &[&a, &b, &[]]);
        assert_eq!(bytes.len(), 1 + 4 * 7);
        assert_eq!(&bytes[1..5], &0.0f32.to_le_bytes());
        let (mut a2, mut b2) = ([1.0f32; 4], [1.0f32; 3]);
        get_f32_sections(&bytes[1..], &mut [&mut a2, &mut b2, &mut []]).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a2), bits(&a));
        assert_eq!(bits(&b2), bits(&b));
        assert_eq!(
            get_f32_sections(&bytes, &mut [&mut a2, &mut b2]),
            Err(SectionLenError { have: 29, need: 28 })
        );
    }
}
