//! Training-state checkpointing: save and resume a run exactly.
//!
//! A checkpoint captures everything the host side owns under the offload
//! strategy — the fp32 master parameters, the Adam momentum/variance, the
//! step counter, loss-scaler state, and any pending DPU gradient — which
//! is by construction sufficient to resume: the fp16 device parameters are
//! a pure function of the master copy (`float2half`).
//!
//! The on-disk file frames a binary payload with a validated header
//! (`magic | version | payload length | FNV-1a checksum`), so a write
//! that died partway — e.g. under an injected `checkpoint.write` fault —
//! is *detected* at restore time as a typed error instead of a decoder
//! panic or, worse, a silently-wrong resume. The payload (version 2) is a
//! fixed [`PAYLOAD_HEADER_BYTES`]-byte header followed by the fp32
//! sections, all little-endian:
//!
//! ```text
//! params u64 | adam_step u64 | scale f32 | good_steps u32
//!   | steps_applied u64 | steps_skipped u64 | dpu_flags u32 | steps_seen u64
//! master[params] | m[params] | v[params] | pending[params] (if flagged)
//! ```
//!
//! so a file is exactly `framing::HEADER_BYTES + PAYLOAD_HEADER_BYTES +
//! 4 × (3 or 4) × params` bytes.

use zo_nn::Model;
use zo_optim::AdamState;

use crate::engine::ZeroOffloadEngine;
use crate::framing::{
    decode_frame, encode_frame, get_f32_sections, put_f32_sections, FrameError, FrameSpec,
};

/// Snapshot of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// fp32 master parameters.
    pub master: Vec<f32>,
    /// Optimizer state (momentum, variance, step counter).
    pub optim: AdamState,
    /// Loss-scaler state: (scale, good-step counter).
    pub loss_scale: (f32, u32),
    /// DPU bookkeeping: steps seen and stashed gradient, when enabled.
    pub dpu: Option<DpuCheckpoint>,
    /// Steps applied so far (for bookkeeping continuity).
    pub steps_applied: u64,
    /// Steps skipped so far.
    pub steps_skipped: u64,
}

/// DPU portion of a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuCheckpoint {
    /// Steps the DPU wrapper has observed.
    pub steps_seen: u64,
    /// The stashed gradient awaiting application.
    pub pending: Option<Vec<f32>>,
}

/// Errors when saving or restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint covers a different parameter count.
    SizeMismatch {
        /// Parameters in the checkpoint.
        checkpoint: usize,
        /// Parameters in the engine.
        engine: usize,
    },
    /// The checkpoint has DPU state but the engine is not in DPU mode (or
    /// vice versa).
    ModeMismatch,
    /// The file could not be read or written.
    Io {
        /// The underlying I/O error, stringified (keeps this type `Eq`).
        detail: String,
    },
    /// The file ends before the framed payload does — a write died partway
    /// (torn write / crashed process).
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header promised.
        need: usize,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
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
    /// The framing validated but the payload does not decode (or the file
    /// is a format version this build does not read).
    Malformed {
        /// Parser diagnostic.
        detail: String,
    },
    /// An injected `checkpoint.write` fault killed the save mid-write.
    Fault(zo_fault::FaultError),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::SizeMismatch { checkpoint, engine } => write!(
                f,
                "checkpoint holds {checkpoint} parameters, engine expects {engine}"
            ),
            CheckpointError::ModeMismatch => {
                write!(
                    f,
                    "checkpoint DPU state does not match the engine's DPU mode"
                )
            }
            CheckpointError::Io { detail } => write!(f, "checkpoint i/o failed: {detail}"),
            CheckpointError::Truncated { have, need } => {
                write!(f, "truncated checkpoint: have {have} bytes, need {need}")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:#010x})")
            }
            CheckpointError::Corrupted { expected, computed } => write!(
                f,
                "checkpoint corrupted: checksum header {expected:#010x}, payload {computed:#010x}"
            ),
            CheckpointError::Malformed { detail } => {
                write!(f, "malformed checkpoint payload: {detail}")
            }
            CheckpointError::Fault(fault) => write!(f, "checkpoint write fault: {fault}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Checkpoint file magic: "ZOck".
pub const FILE_MAGIC: u32 = 0x5A4F_636B;

/// Current checkpoint file format version.
pub const FILE_VERSION: u32 = 2;

/// The checkpoint frame family (shared codec, checkpoint identity).
const FILE_FRAME: FrameSpec = FrameSpec {
    magic: FILE_MAGIC,
    version: FILE_VERSION,
};

impl From<FrameError> for CheckpointError {
    fn from(err: FrameError) -> CheckpointError {
        match err {
            FrameError::Truncated { have, need } => CheckpointError::Truncated { have, need },
            FrameError::BadMagic { found } => CheckpointError::BadMagic { found },
            FrameError::BadVersion { found } => CheckpointError::Malformed {
                detail: format!("unsupported checkpoint version {found}"),
            },
            FrameError::Corrupted { expected, computed } => {
                CheckpointError::Corrupted { expected, computed }
            }
        }
    }
}

/// Bytes of the fixed payload header that precedes the f32 sections.
pub const PAYLOAD_HEADER_BYTES: usize = 8 + 8 + 4 + 4 + 8 + 8 + 4 + 8;

/// `dpu_flags` bit: the checkpoint carries DPU state.
const FLAG_DPU: u32 = 1;
/// `dpu_flags` bit: the DPU state holds a pending gradient section.
const FLAG_PENDING: u32 = 2;

/// Encodes a checkpoint into the framed on-disk byte format (see the
/// module docs for the layout).
///
/// # Panics
///
/// If the momentum, variance or pending gradient length differs from
/// `master`'s: one parameter count sizes every section.
pub fn encode_checkpoint_bytes(ckpt: &TrainingCheckpoint) -> Vec<u8> {
    let n = ckpt.master.len();
    let pending = ckpt.dpu.as_ref().and_then(|d| d.pending.as_deref());
    let mut sections = vec![&ckpt.master[..], &ckpt.optim.m, &ckpt.optim.v];
    sections.extend(pending);
    assert!(
        sections.iter().all(|s| s.len() == n),
        "every checkpoint section must hold {n} values"
    );
    let flags = match &ckpt.dpu {
        None => 0,
        Some(d) if d.pending.is_none() => FLAG_DPU,
        Some(_) => FLAG_DPU | FLAG_PENDING,
    };
    let mut payload = Vec::with_capacity(PAYLOAD_HEADER_BYTES + 4 * n * sections.len());
    payload.extend_from_slice(&(n as u64).to_le_bytes());
    payload.extend_from_slice(&ckpt.optim.step.to_le_bytes());
    payload.extend_from_slice(&ckpt.loss_scale.0.to_le_bytes());
    payload.extend_from_slice(&ckpt.loss_scale.1.to_le_bytes());
    payload.extend_from_slice(&ckpt.steps_applied.to_le_bytes());
    payload.extend_from_slice(&ckpt.steps_skipped.to_le_bytes());
    payload.extend_from_slice(&flags.to_le_bytes());
    let steps_seen = ckpt.dpu.as_ref().map_or(0, |d| d.steps_seen);
    payload.extend_from_slice(&steps_seen.to_le_bytes());
    put_f32_sections(&mut payload, &sections);
    encode_frame(FILE_FRAME, &payload)
}

/// Decodes a framed checkpoint, validating magic, version, length and
/// checksum, then the payload header against the section bytes present,
/// before allocating any state — a torn, bit-flipped or inconsistent file
/// surfaces as a typed [`CheckpointError`], never a panic.
pub fn decode_checkpoint_bytes(bytes: &[u8]) -> Result<TrainingCheckpoint, CheckpointError> {
    let payload = decode_frame(FILE_FRAME, bytes)?;
    let malformed = |detail: String| CheckpointError::Malformed { detail };
    if payload.len() < PAYLOAD_HEADER_BYTES {
        return Err(malformed(format!(
            "payload holds {} bytes, less than its {PAYLOAD_HEADER_BYTES}-byte header",
            payload.len()
        )));
    }
    let (mut head, body) = payload.split_at(PAYLOAD_HEADER_BYTES);
    let mut word = |width: usize| {
        let (w, rest) = head.split_at(width);
        head = rest;
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(w);
        u64::from_le_bytes(le)
    };
    let params = word(8);
    let adam_step = word(8);
    let scale = f32::from_bits(word(4) as u32);
    let good_steps = word(4) as u32;
    let steps_applied = word(8);
    let steps_skipped = word(8);
    let flags = word(4) as u32;
    let steps_seen = word(8);
    if ![0, FLAG_DPU, FLAG_DPU | FLAG_PENDING].contains(&flags) {
        return Err(malformed(format!("unknown DPU flags {flags:#x}")));
    }
    if flags == 0 && steps_seen != 0 {
        return Err(malformed(format!(
            "{steps_seen} DPU steps seen without DPU state"
        )));
    }
    let sections = if flags & FLAG_PENDING != 0 { 4 } else { 3 };
    let n = usize::try_from(params)
        .ok()
        .filter(|n| n.checked_mul(4 * sections) == Some(body.len()))
        .ok_or_else(|| {
            malformed(format!(
                "{params} parameters in {sections} sections do not fit the {}-byte body",
                body.len()
            ))
        })?;
    let (mut master, mut m, mut v) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut pending = (sections == 4).then(|| vec![0.0; n]);
    let mut dst: Vec<&mut [f32]> = vec![&mut master, &mut m, &mut v];
    dst.extend(pending.as_deref_mut());
    get_f32_sections(body, &mut dst).map_err(|e| malformed(e.to_string()))?;
    Ok(TrainingCheckpoint {
        master,
        optim: AdamState {
            m,
            v,
            step: adam_step,
        },
        loss_scale: (scale, good_steps),
        dpu: (flags & FLAG_DPU != 0).then_some(DpuCheckpoint {
            steps_seen,
            pending,
        }),
        steps_applied,
        steps_skipped,
    })
}

impl<M: Model> ZeroOffloadEngine<M> {
    /// Captures the current training state (shard-sized on a ZeRO-2/3
    /// rank: every rank checkpoints its own shard, and restoring all
    /// shards restores the run).
    pub fn save_checkpoint(&self) -> TrainingCheckpoint {
        self.pipe.capture_state()
    }

    /// Restores a checkpoint saved by an engine of the same configuration
    /// (the same rank of an identically configured group, under ZeRO-2/3).
    ///
    /// The model is reloaded with the fp16 view of the restored master
    /// parameters, so the next step continues the original trajectory
    /// exactly (verified bitwise by the resume tests). Under ZeRO-2 the
    /// reload is an all-gather, so **all ranks must restore
    /// concurrently**, like [`ZeroOffloadEngine::step`].
    pub fn restore_checkpoint(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CheckpointError> {
        self.pipe.restore_state(ckpt)?;
        let pipe = &mut self.pipe;
        self.placement
            .load(&mut self.model, &pipe.p16, &mut pipe.stats, &pipe.tracer)
            .map_err(CheckpointError::Fault)
    }

    /// Writes the framed checkpoint file at `path`.
    ///
    /// The write passes the `checkpoint.write` fault gate: transients are
    /// retried with bounded backoff; a fatal or retry-exhausted fault
    /// simulates a crash mid-write — a *truncated* file is left on disk
    /// and [`CheckpointError::Fault`] returned, so recovery paths can
    /// prove they detect (not deserialize) the torn file.
    pub fn save_checkpoint_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        let bytes = encode_checkpoint_bytes(&self.save_checkpoint());
        let gate = zo_fault::with_retry(
            &mut self.pipe.faults,
            zo_fault::Site::CheckpointWrite,
            &self.pipe.tracer,
            "checkpoint",
            || (),
        );
        if let Err(fault) = gate {
            let torn = &bytes[..bytes.len() / 2];
            std::fs::write(path, torn).map_err(|e| CheckpointError::Io {
                detail: e.to_string(),
            })?;
            return Err(CheckpointError::Fault(fault));
        }
        std::fs::write(path, &bytes).map_err(|e| CheckpointError::Io {
            detail: e.to_string(),
        })
    }

    /// Restores from a file written by
    /// [`ZeroOffloadEngine::save_checkpoint_file`], validating the framing
    /// (magic, version, length, checksum) before any state is touched.
    pub fn restore_checkpoint_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            detail: e.to_string(),
        })?;
        let ckpt = decode_checkpoint_bytes(&bytes)?;
        self.restore_checkpoint(&ckpt)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ZeroOffloadConfig;
    use crate::engine::ZeroOffloadEngine;
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

    fn cfg() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            adam: AdamParams {
                lr: 3e-3,
                ..AdamParams::default()
            },
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        }
    }

    fn run(engine: &mut ZeroOffloadEngine<GptModel>, from: usize, steps: usize) -> Vec<f32> {
        let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
        let mut batches = Vec::new();
        for _ in 0..from + steps {
            batches.push(data.batch(4, GPT.seq_len));
        }
        batches[from..]
            .iter()
            .map(|b| {
                engine
                    .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
                    .unwrap()
                    .loss()
            })
            .collect()
    }

    #[test]
    fn resume_is_bitwise_identical() {
        // Continuous run of 20 steps...
        let mut continuous = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
        let losses_all = run(&mut continuous, 0, 20);

        // ...vs 10 steps, checkpoint, restore into a FRESH engine, 10 more.
        let mut first = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
        run(&mut first, 0, 10);
        let ckpt = first.save_checkpoint();

        let mut resumed = ZeroOffloadEngine::new(GptModel::new(GPT, 99), cfg());
        resumed.restore_checkpoint(&ckpt).unwrap();
        let losses_tail = run(&mut resumed, 10, 10);

        assert_eq!(&losses_all[10..], &losses_tail[..]);
        assert_eq!(continuous.master_params(), resumed.master_params());
    }

    #[test]
    fn dpu_pending_gradient_survives_checkpoint() {
        let dpu_cfg = ZeroOffloadConfig {
            dpu_warmup: Some(2),
            ..cfg()
        };
        let mut continuous = ZeroOffloadEngine::new(GptModel::new(GPT, 5), dpu_cfg);
        let all = run(&mut continuous, 0, 12);

        let mut first = ZeroOffloadEngine::new(GptModel::new(GPT, 5), dpu_cfg);
        run(&mut first, 0, 6); // Past warm-up: a gradient is stashed.
        let ckpt = first.save_checkpoint();
        assert!(ckpt.dpu.as_ref().unwrap().pending.is_some());

        let mut resumed = ZeroOffloadEngine::new(GptModel::new(GPT, 5), dpu_cfg);
        resumed.restore_checkpoint(&ckpt).unwrap();
        let tail = run(&mut resumed, 6, 6);
        assert_eq!(&all[6..], &tail[..]);
        assert_eq!(continuous.master_params(), resumed.master_params());
    }

    #[test]
    fn size_mismatch_rejected() {
        let engine = ZeroOffloadEngine::new(GptModel::new(GPT, 1), cfg());
        let ckpt = engine.save_checkpoint();
        let small = GptConfig { layers: 1, ..GPT };
        let mut other = ZeroOffloadEngine::new(GptModel::new(small, 1), cfg());
        assert!(other.restore_checkpoint(&ckpt).is_err());
    }

    #[test]
    fn mode_mismatch_rejected() {
        let mut plain = ZeroOffloadEngine::new(GptModel::new(GPT, 1), cfg());
        run(&mut plain, 0, 2);
        let ckpt = plain.save_checkpoint();
        assert!(ckpt.dpu.is_none());
        let mut dpu_engine = ZeroOffloadEngine::new(
            GptModel::new(GPT, 1),
            ZeroOffloadConfig {
                dpu_warmup: Some(0),
                ..cfg()
            },
        );
        assert!(matches!(
            dpu_engine.restore_checkpoint(&ckpt),
            Err(super::CheckpointError::ModeMismatch)
        ));
    }

    /// Unique scratch file path for a test (no timestamps needed).
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("zo-ckpt-{}-{name}.bin", std::process::id()))
    }

    #[test]
    fn file_roundtrip_resumes_bitwise() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
        run(&mut engine, 0, 5);
        let path = scratch("roundtrip");
        engine.save_checkpoint_file(&path).unwrap();
        let mut other = ZeroOffloadEngine::new(GptModel::new(GPT, 99), cfg());
        other.restore_checkpoint_file(&path).unwrap();
        assert_eq!(engine.master_params(), other.master_params());
        assert_eq!(engine.loss_scale(), other.loss_scale());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error_not_a_panic() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 7), cfg());
        run(&mut engine, 0, 3);
        let path = scratch("truncated");
        engine.save_checkpoint_file(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // A partial write at any cut point must be *detected*.
        for cut in [3usize, 19, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut victim = ZeroOffloadEngine::new(GptModel::new(GPT, 7), cfg());
            let before = victim.master_params().to_vec();
            let err = victim.restore_checkpoint_file(&path).unwrap_err();
            assert!(
                matches!(err, super::CheckpointError::Truncated { .. }),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
            assert_eq!(
                victim.master_params(),
                &before[..],
                "failed restore must not touch engine state"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 8), cfg());
        run(&mut engine, 0, 2);
        let path = scratch("corrupt");
        engine.save_checkpoint_file(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut victim = ZeroOffloadEngine::new(GptModel::new(GPT, 8), cfg());
        assert!(matches!(
            victim.restore_checkpoint_file(&path),
            Err(super::CheckpointError::Corrupted { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_rejected_by_magic() {
        let err = super::decode_checkpoint_bytes(b"definitely not a checkpoint").unwrap_err();
        assert!(matches!(err, super::CheckpointError::BadMagic { .. }));
    }

    #[test]
    fn version_1_file_is_unsupported() {
        let v1 = crate::framing::FrameSpec {
            magic: super::FILE_MAGIC,
            version: 1,
        };
        let bytes = crate::framing::encode_frame(v1, br#"{"master":[]}"#);
        let err = super::decode_checkpoint_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            super::CheckpointError::Malformed {
                detail: "unsupported checkpoint version 1".into()
            }
        );
    }

    #[test]
    fn checkpoint_counters_roundtrip() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 3), cfg());
        run(&mut engine, 0, 4);
        let ckpt = engine.save_checkpoint();
        assert_eq!(ckpt.steps_applied, 4);
        let mut other = ZeroOffloadEngine::new(GptModel::new(GPT, 3), cfg());
        other.restore_checkpoint(&ckpt).unwrap();
        assert_eq!(other.stats().steps_applied, 4);
        let mut model_params = vec![0.0f32; other.model_mut().num_params()];
        other.model_mut().copy_params_to(&mut model_params);
        // Model carries the fp16 view of the restored master.
        for (mp, m) in model_params.iter().zip(other.master_params()) {
            assert_eq!(*mp, zo_tensor::F16::from_f32(*m).to_f32());
        }
    }
}
