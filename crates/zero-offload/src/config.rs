//! Engine configuration (the analog of the DeepSpeed JSON config).

use zo_optim::{AdamParams, LossScaleConfig};
use zo_trace::json::{self, Value};

use crate::tier::TierKind;

/// A `Copy` handle to an installed [`zo_trace::Tracer`].
///
/// The engine config must stay `Copy` (it is captured by value in the
/// per-rank closures of [`run_ranks`](crate::run_ranks) and
/// [`run_zero3_ranks`](crate::run_zero3_ranks)), so it
/// cannot hold a `Tracer` directly; instead it carries an index into the
/// process-wide tracer registry.
///
/// ```
/// use zero_offload::{TracerRef, ZeroOffloadConfig};
///
/// let tracer = zo_trace::Tracer::new();
/// let cfg = ZeroOffloadConfig {
///     tracer: Some(TracerRef::install(tracer.clone())),
///     ..ZeroOffloadConfig::default()
/// };
/// assert!(cfg.tracer.unwrap().resolve().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerRef(pub usize);

impl TracerRef {
    /// Pins `tracer` into the registry and returns its handle.
    pub fn install(tracer: zo_trace::Tracer) -> TracerRef {
        TracerRef(zo_trace::install(tracer))
    }

    /// Resolves the handle (`None` if the index was never installed).
    pub fn resolve(&self) -> Option<zo_trace::Tracer> {
        zo_trace::lookup(self.0)
    }
}

/// Resolves an optional handle to a concrete tracer, falling back to the
/// inert disabled tracer.
pub(crate) fn resolve_tracer(tracer: Option<TracerRef>) -> zo_trace::Tracer {
    tracer
        .and_then(|t| t.resolve())
        .unwrap_or_else(zo_trace::Tracer::disabled)
}

/// A `Copy` handle to an installed [`zo_fault::FaultPlan`], mirroring
/// [`TracerRef`]: the config stays `Copy` while referencing a shared plan
/// through the process-wide fault registry.
///
/// ```
/// use zero_offload::{FaultsRef, ZeroOffloadConfig};
///
/// let cfg = ZeroOffloadConfig {
///     faults: Some(FaultsRef::install(zo_fault::FaultPlan::transient_heavy())),
///     ..ZeroOffloadConfig::default()
/// };
/// assert!(cfg.faults.unwrap().resolve().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultsRef(pub usize);

impl FaultsRef {
    /// Pins `plan` into the registry and returns its handle.
    pub fn install(plan: zo_fault::FaultPlan) -> FaultsRef {
        FaultsRef(zo_fault::install(plan))
    }

    /// Resolves the handle (`None` if the index was never installed).
    pub fn resolve(&self) -> Option<std::sync::Arc<zo_fault::FaultPlan>> {
        zo_fault::lookup(self.0)
    }
}

/// Resolves the engine's fault plan: an installed handle wins; otherwise
/// the `ZO_FAULTS` environment variable decides (disabled when unset) —
/// which is how the CI fault matrix drives unmodified binaries.
pub(crate) fn resolve_fault_plan(faults: Option<FaultsRef>) -> std::sync::Arc<zo_fault::FaultPlan> {
    faults
        .and_then(|f| f.resolve())
        .unwrap_or_else(|| std::sync::Arc::new(zo_fault::FaultPlan::from_env()))
}

/// Where the optimizer states and step live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadDevice {
    /// No offload: everything on the accelerator (baseline behaviour).
    None,
    /// ZeRO-Offload: gradients, fp32 states and the update on the host.
    Cpu,
}

/// Configuration for [`ZeroOffloadEngine`](crate::ZeroOffloadEngine), at every stage.
///
/// Readable from JSON with every field optional (the DeepSpeed
/// `ds_config.json` usability model — paper Fig. 1):
///
/// ```
/// use zero_offload::ZeroOffloadConfig;
///
/// let cfg = ZeroOffloadConfig::from_json(r#"{"dpu_warmup": 40}"#).unwrap();
/// assert_eq!(cfg.dpu_warmup, Some(40));
/// assert_eq!(cfg.grad_accumulation, 1); // defaulted
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ZeroOffloadConfig {
    /// Offload target.
    pub offload: OffloadDevice,
    /// Adam hyper-parameters.
    pub adam: AdamParams,
    /// One-step delayed parameter update: `None` disables, `Some(n)`
    /// enables after `n` warm-up steps (the paper uses 40).
    pub dpu_warmup: Option<u64>,
    /// Dynamic fp16 loss scaling.
    pub loss_scale: LossScaleConfig,
    /// Global gradient-norm clip (0 disables).
    pub max_grad_norm: f64,
    /// Micro-batches accumulated per optimizer step.
    pub grad_accumulation: u32,
    /// CPU optimizer worker threads: the partition count CPU-Adam submits
    /// to the shared worker pool. `0` means "auto" — use the pool's size
    /// (`ZO_THREADS` or the machine's available parallelism). Results are
    /// bit-identical at every setting; this only changes scheduling.
    pub optimizer_threads: usize,
    /// Elements per copy-back tile (Algorithm 1 line 15).
    pub tile_width: usize,
    /// Byte budget per gradient wire bucket (bounds the transient device
    /// staging memory; Sec. 4.1's "small groups").
    pub bucket_bytes: usize,
    /// Step-timeline tracer handle (`None` disables tracing).
    pub tracer: Option<TracerRef>,
    /// Fault-injection plan handle. `None` defers to the `ZO_FAULTS`
    /// environment variable (disabled when unset).
    pub faults: Option<FaultsRef>,
    /// Consecutive overflow-skipped steps tolerated before the engine
    /// surfaces a typed overflow-storm error (`0` disables the detector).
    pub overflow_storm_limit: u32,
    /// Stage-3 prefetch window: how many upcoming non-resident layers the
    /// parameter-partitioned engine gathers ahead of the one it is about
    /// to run. `0` means strictly just-in-time. Only read by the ZeRO-3
    /// placement ([`ZeroOffloadEngine::zero3`](crate::ZeroOffloadEngine::zero3));
    /// prefetching changes wall-clock overlap, never values.
    pub prefetch_layers: usize,
    /// Stage-3 persistent-parameter byte budget: gathered layers whose
    /// full fp16 footprint fits in this LRU budget stay resident across
    /// steps instead of being released after use (DeepSpeed's
    /// "persistent parameters"). `0` releases every non-owned shard
    /// immediately after each sweep.
    pub persistent_param_bytes: usize,
    /// Which memory tier holds the fp32 optimizer states (paper Sec. 3's
    /// model-state placement, generalized past DRAM). [`TierKind::Dram`]
    /// keeps them resident in host memory — the classic ZeRO-Offload
    /// placement; [`TierKind::Nvme`] spills them to framed files under
    /// `ZO_TIER_DIR` (system temp dir when unset) and streams the Adam
    /// update through a bounded DRAM scratch each step. The trajectory is
    /// bit-identical across tiers; only residency and wall-clock change.
    /// Ignored when DPU is active (`dpu_warmup`), which requires
    /// DRAM-resident states.
    pub optimizer_tier: TierKind,
    /// DRAM scratch byte budget for the tiered optimizer's streaming
    /// schedule (three tile slots of decoded fp32 state plus their encoded
    /// payloads). Smaller budgets mean more, smaller tiles; the peak is
    /// observable as the `tier_hwm_bytes` gauge. Only read when
    /// `optimizer_tier` is not DRAM-resident.
    pub tier_scratch_bytes: usize,
}

impl Default for ZeroOffloadConfig {
    fn default() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            offload: OffloadDevice::Cpu,
            adam: AdamParams::default(),
            dpu_warmup: None,
            loss_scale: LossScaleConfig::default(),
            max_grad_norm: 0.0,
            grad_accumulation: 1,
            // Auto: follow the shared pool (ZO_THREADS / machine cores).
            optimizer_threads: 0,
            tile_width: 2 * 1024 * 1024,
            bucket_bytes: crate::bucket::default_bucket_bytes(),
            tracer: None,
            faults: None,
            overflow_storm_limit: 0,
            prefetch_layers: 1,
            persistent_param_bytes: 0,
            optimizer_tier: TierKind::Dram,
            tier_scratch_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why a JSON config was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The text is not JSON.
    Json(json::Error),
    /// A key that names no config field (`adam.lr2` for a nested one).
    UnknownKey(String),
    /// A field whose value has the wrong type or range.
    BadValue {
        /// The field's key, dotted for nested ones.
        key: String,
        /// What the field accepts.
        expected: &'static str,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::Json(e) => e.fmt(f),
            ConfigError::UnknownKey(key) => write!(f, "unknown config key \"{key}\""),
            ConfigError::BadValue { key, expected } if key.is_empty() => {
                write!(f, "config expects {expected}")
            }
            ConfigError::BadValue { key, expected } => {
                write!(f, "config key \"{key}\" expects {expected}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<json::Error> for ConfigError {
    fn from(e: json::Error) -> ConfigError {
        ConfigError::Json(e)
    }
}

/// One `key: value` entry of a config object, keyed by its dotted path.
struct Field<'a> {
    name: &'a str,
    key: String,
    value: &'a Value,
}

impl<'a> Field<'a> {
    /// The entries of `value`, which must be an object, under `prefix`.
    fn entries(value: &'a Value, prefix: &str) -> Result<Vec<Field<'a>>, ConfigError> {
        let entries = value.as_object().ok_or_else(|| ConfigError::BadValue {
            key: prefix.trim_end_matches('.').to_string(),
            expected: "an object",
        })?;
        Ok(entries
            .iter()
            .map(|(name, value)| Field {
                name,
                key: format!("{prefix}{name}"),
                value,
            })
            .collect())
    }

    fn bad(&self, expected: &'static str) -> ConfigError {
        ConfigError::BadValue {
            key: self.key.clone(),
            expected,
        }
    }

    fn unknown(&self) -> ConfigError {
        ConfigError::UnknownKey(self.key.clone())
    }

    fn num(&self) -> Result<f64, ConfigError> {
        self.value.as_f64().ok_or_else(|| self.bad("a number"))
    }

    fn int<T: TryFrom<u64>>(&self) -> Result<T, ConfigError> {
        self.value
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| self.bad("a non-negative integer in range"))
    }

    fn bool(&self) -> Result<bool, ConfigError> {
        self.value
            .as_bool()
            .ok_or_else(|| self.bad("true or false"))
    }

    fn variant<T: Copy>(
        &self,
        variants: &[(&str, T)],
        expected: &'static str,
    ) -> Result<T, ConfigError> {
        variants
            .iter()
            .find(|(name, _)| Some(*name) == self.value.as_str())
            .map(|&(_, v)| v)
            .ok_or_else(|| self.bad(expected))
    }
}

fn read_adam(value: &Value, adam: &mut AdamParams) -> Result<(), ConfigError> {
    for f in Field::entries(value, "adam.")? {
        match f.name {
            "lr" => adam.lr = f.num()? as f32,
            "beta1" => adam.beta1 = f.num()? as f32,
            "beta2" => adam.beta2 = f.num()? as f32,
            "eps" => adam.eps = f.num()? as f32,
            "weight_decay" => adam.weight_decay = f.num()? as f32,
            "decoupled_weight_decay" => adam.decoupled_weight_decay = f.bool()?,
            _ => return Err(f.unknown()),
        }
    }
    Ok(())
}

fn read_loss_scale(value: &Value, ls: &mut LossScaleConfig) -> Result<(), ConfigError> {
    for f in Field::entries(value, "loss_scale.")? {
        match f.name {
            "init_scale" => ls.init_scale = f.num()? as f32,
            "growth_factor" => ls.growth_factor = f.num()? as f32,
            "backoff_factor" => ls.backoff_factor = f.num()? as f32,
            "growth_interval" => ls.growth_interval = f.int()?,
            "min_scale" => ls.min_scale = f.num()? as f32,
            _ => return Err(f.unknown()),
        }
    }
    Ok(())
}

impl ZeroOffloadConfig {
    /// Parses a JSON config. Absent fields, nested ones included, take
    /// their defaults; an unknown key is an error that names it. The
    /// `tracer` and `faults` handles index the in-process registries, so
    /// a file cannot set them.
    pub fn from_json(text: &str) -> Result<ZeroOffloadConfig, ConfigError> {
        let doc = json::parse(text)?;
        let mut cfg = ZeroOffloadConfig::default();
        for f in Field::entries(&doc, "")? {
            match f.name {
                "offload" => {
                    cfg.offload = f.variant(
                        &[("None", OffloadDevice::None), ("Cpu", OffloadDevice::Cpu)],
                        "\"None\" or \"Cpu\"",
                    )?
                }
                "adam" => read_adam(f.value, &mut cfg.adam)?,
                "dpu_warmup" if f.value.is_null() => cfg.dpu_warmup = None,
                "dpu_warmup" => cfg.dpu_warmup = Some(f.int()?),
                "loss_scale" => read_loss_scale(f.value, &mut cfg.loss_scale)?,
                "max_grad_norm" => cfg.max_grad_norm = f.num()?,
                "grad_accumulation" => cfg.grad_accumulation = f.int()?,
                "optimizer_threads" => cfg.optimizer_threads = f.int()?,
                "tile_width" => cfg.tile_width = f.int()?,
                "bucket_bytes" => cfg.bucket_bytes = f.int()?,
                "overflow_storm_limit" => cfg.overflow_storm_limit = f.int()?,
                "prefetch_layers" => cfg.prefetch_layers = f.int()?,
                "persistent_param_bytes" => cfg.persistent_param_bytes = f.int()?,
                "optimizer_tier" => {
                    cfg.optimizer_tier = f.variant(
                        &[("Dram", TierKind::Dram), ("Nvme", TierKind::Nvme)],
                        "\"Dram\" or \"Nvme\"",
                    )?
                }
                "tier_scratch_bytes" => cfg.tier_scratch_bytes = f.int()?,
                _ => return Err(f.unknown()),
            }
        }
        Ok(cfg)
    }

    /// Enables DPU with the paper's 40-step warm-up.
    #[must_use]
    pub fn with_dpu(mut self) -> ZeroOffloadConfig {
        self.dpu_warmup = Some(40);
        self
    }

    /// Disables offload (plain mixed-precision Adam on-device).
    #[must_use]
    pub fn without_offload(mut self) -> ZeroOffloadConfig {
        self.offload = OffloadDevice::None;
        self
    }

    /// The effective optimizer partition count: `optimizer_threads`, with
    /// `0` resolved to the shared pool's thread count.
    pub fn resolved_optimizer_threads(&self) -> usize {
        if self.optimizer_threads == 0 {
            zo_tensor::pool::global().threads()
        } else {
            self.optimizer_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_partial_parse() {
        // Every field a file can set reads back into the struct.
        let full = ZeroOffloadConfig::from_json(
            r#"{"offload": "Cpu", "dpu_warmup": 40, "max_grad_norm": 1.5,
                "adam": {"lr": 0.01, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6,
                         "weight_decay": 0.1, "decoupled_weight_decay": true},
                "loss_scale": {"init_scale": 128.0, "growth_factor": 4.0,
                               "backoff_factor": 0.25, "growth_interval": 10, "min_scale": 2.0},
                "grad_accumulation": 2, "optimizer_threads": 3, "tile_width": 64,
                "bucket_bytes": 4096, "overflow_storm_limit": 5, "prefetch_layers": 0,
                "persistent_param_bytes": 8, "optimizer_tier": "Nvme",
                "tier_scratch_bytes": 1024}"#,
        )
        .unwrap();
        assert_eq!(full.dpu_warmup, Some(40));
        assert_eq!(full.max_grad_norm, 1.5);
        assert_eq!(
            full.adam,
            AdamParams {
                lr: 0.01,
                beta1: 0.8,
                beta2: 0.99,
                eps: 1e-6,
                weight_decay: 0.1,
                decoupled_weight_decay: true
            }
        );
        assert_eq!(
            full.loss_scale,
            LossScaleConfig {
                init_scale: 128.0,
                growth_factor: 4.0,
                backoff_factor: 0.25,
                growth_interval: 10,
                min_scale: 2.0
            }
        );
        assert_eq!(
            (
                full.grad_accumulation,
                full.optimizer_threads,
                full.tile_width
            ),
            (2, 3, 64)
        );
        assert_eq!((full.bucket_bytes, full.overflow_storm_limit), (4096, 5));
        assert_eq!((full.prefetch_layers, full.persistent_param_bytes), (0, 8));
        assert_eq!(full.optimizer_tier, TierKind::Nvme);
        assert_eq!(full.tier_scratch_bytes, 1024);
        // Partial config: unknown-but-valid subset with defaults.
        let partial =
            ZeroOffloadConfig::from_json(r#"{"offload": "None", "grad_accumulation": 8}"#).unwrap();
        assert_eq!(partial.offload, OffloadDevice::None);
        assert_eq!(partial.grad_accumulation, 8);
        assert!(partial.dpu_warmup.is_none());
        // Nested structs are partially specifiable too.
        let nested = ZeroOffloadConfig::from_json(
            r#"{"adam": {"lr": 0.01}, "loss_scale": {"init_scale": 128.0}}"#,
        )
        .unwrap();
        assert_eq!(nested.adam.lr, 0.01);
        assert_eq!(nested.adam.beta1, 0.9); // defaulted
        assert_eq!(nested.loss_scale.init_scale, 128.0);
        // Malformed JSON is an error, not a default.
        assert!(ZeroOffloadConfig::from_json("{nope").is_err());
        // A typo is an error that names the key, top-level or nested.
        for (text, key) in [
            (r#"{"dpu_warmpu": 40}"#, "dpu_warmpu"),
            (r#"{"adam": {"lr2": 0.1}}"#, "adam.lr2"),
            (r#"{"loss_scale": {"init": 1}}"#, "loss_scale.init"),
            (r#"{"tracer": 0}"#, "tracer"),
        ] {
            let err = ZeroOffloadConfig::from_json(text).unwrap_err();
            assert_eq!(err, ConfigError::UnknownKey(key.into()));
            assert!(err.to_string().contains(key), "{err}");
        }
        // Wrong types are errors too.
        for bad in [
            r#"{"grad_accumulation": -1}"#,
            r#"{"grad_accumulation": 1.5}"#,
            r#"{"offload": "Gpu"}"#,
            r#"{"adam": 1}"#,
            r#"[]"#,
        ] {
            assert!(
                matches!(
                    ZeroOffloadConfig::from_json(bad),
                    Err(ConfigError::BadValue { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn default_is_offload_without_dpu() {
        let c = ZeroOffloadConfig::default();
        assert_eq!(c.offload, OffloadDevice::Cpu);
        assert!(c.dpu_warmup.is_none());
        assert_eq!(c.grad_accumulation, 1);
    }

    #[test]
    fn builders_compose() {
        let c = ZeroOffloadConfig::default().with_dpu().without_offload();
        assert_eq!(c.dpu_warmup, Some(40));
        assert_eq!(c.offload, OffloadDevice::None);
    }
}
