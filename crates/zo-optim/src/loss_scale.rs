//! Dynamic loss scaling for fp16 mixed-precision training.
//!
//! The paper's recipe ("mixed precision training with Adam optimizer", Sec.
//! 3) stores gradients in fp16, whose narrow exponent range underflows for
//! small gradient values. Loss scaling multiplies the loss by a large
//! factor before backward (shifting gradients up into the representable
//! range) and divides it back out before the optimizer step. The dynamic
//! variant grows the scale while gradients stay finite and shrinks it on
//! overflow, skipping the affected step.

/// Configuration for [`DynamicLossScaler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossScaleConfig {
    /// Initial scale (power of two).
    pub init_scale: f32,
    /// Multiplier applied after `growth_interval` clean steps.
    pub growth_factor: f32,
    /// Divisor applied on overflow.
    pub backoff_factor: f32,
    /// Number of consecutive overflow-free steps before growing.
    pub growth_interval: u32,
    /// Smallest allowed scale.
    pub min_scale: f32,
}

impl Default for LossScaleConfig {
    fn default() -> LossScaleConfig {
        LossScaleConfig {
            init_scale: 65536.0,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            min_scale: 1.0,
        }
    }
}

/// Dynamic loss scaler state machine.
///
/// # Examples
///
/// ```
/// use zo_optim::DynamicLossScaler;
///
/// let mut scaler = DynamicLossScaler::default();
/// let s0 = scaler.scale();
/// scaler.update(true); // overflow detected: halve and skip
/// assert_eq!(scaler.scale(), s0 / 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicLossScaler {
    cfg: LossScaleConfig,
    scale: f32,
    good_steps: u32,
    overflow_count: u64,
    skipped_steps: u64,
    consecutive_skips: u32,
}

impl Default for DynamicLossScaler {
    fn default() -> DynamicLossScaler {
        DynamicLossScaler::new(LossScaleConfig::default())
    }
}

impl DynamicLossScaler {
    /// Creates a scaler with the given configuration.
    pub fn new(cfg: LossScaleConfig) -> DynamicLossScaler {
        DynamicLossScaler {
            cfg,
            scale: cfg.init_scale,
            good_steps: 0,
            overflow_count: 0,
            skipped_steps: 0,
            consecutive_skips: 0,
        }
    }

    /// The current loss scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Inverse scale, for unscaling gradients.
    pub fn inv_scale(&self) -> f32 {
        1.0 / self.scale
    }

    /// Total overflows observed.
    pub fn overflow_count(&self) -> u64 {
        self.overflow_count
    }

    /// Total steps skipped due to overflow.
    pub fn skipped_steps(&self) -> u64 {
        self.skipped_steps
    }

    /// Consecutive overflow-skipped steps since the last applied step —
    /// the "overflow storm" detector. A healthy run occasionally skips
    /// one step while the scale backs off; a run whose gradients are
    /// genuinely non-finite skips every step, and this counter lets the
    /// engine surface that as a typed error instead of silently training
    /// nothing (resets to zero when an update applies, and on restore).
    pub fn consecutive_skips(&self) -> u32 {
        self.consecutive_skips
    }

    /// Checks a gradient buffer for overflow (NaN/Inf after unscaling).
    pub fn check_overflow(&self, grads: &[f32]) -> bool {
        zo_tensor::ops::has_non_finite(grads)
    }

    /// Advances the state machine after a step.
    ///
    /// Returns `true` if the optimizer step should be applied, `false` if
    /// it must be skipped because this step overflowed.
    pub fn update(&mut self, overflow: bool) -> bool {
        if overflow {
            self.overflow_count += 1;
            self.skipped_steps += 1;
            self.consecutive_skips += 1;
            self.good_steps = 0;
            self.scale = (self.scale * self.cfg.backoff_factor).max(self.cfg.min_scale);
            false
        } else {
            self.consecutive_skips = 0;
            self.good_steps += 1;
            if self.good_steps >= self.cfg.growth_interval {
                self.good_steps = 0;
                self.scale *= self.cfg.growth_factor;
            }
            true
        }
    }

    /// Unscales gradients in place (`g *= 1/scale`).
    pub fn unscale(&self, grads: &mut [f32]) {
        zo_tensor::ops::scale(grads, self.inv_scale());
    }

    /// Snapshot of the mutable state, for checkpointing.
    pub fn snapshot(&self) -> (f32, u32) {
        (self.scale, self.good_steps)
    }

    /// Restores a [`DynamicLossScaler::snapshot`]. The storm detector
    /// restarts from zero: a resume is a fresh chance to make progress.
    pub fn restore(&mut self, snapshot: (f32, u32)) {
        self.scale = snapshot.0.max(self.cfg.min_scale);
        self.good_steps = snapshot.1;
        self.consecutive_skips = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_halves_and_skips() {
        let mut s = DynamicLossScaler::default();
        assert_eq!(s.scale(), 65536.0);
        assert!(!s.update(true));
        assert_eq!(s.scale(), 32768.0);
        assert_eq!(s.overflow_count(), 1);
        assert_eq!(s.skipped_steps(), 1);
    }

    #[test]
    fn growth_after_interval() {
        let cfg = LossScaleConfig {
            growth_interval: 3,
            init_scale: 4.0,
            ..Default::default()
        };
        let mut s = DynamicLossScaler::new(cfg);
        assert!(s.update(false));
        assert!(s.update(false));
        assert_eq!(s.scale(), 4.0);
        assert!(s.update(false));
        assert_eq!(s.scale(), 8.0);
    }

    #[test]
    fn overflow_resets_growth_counter() {
        let cfg = LossScaleConfig {
            growth_interval: 2,
            init_scale: 4.0,
            ..Default::default()
        };
        let mut s = DynamicLossScaler::new(cfg);
        s.update(false);
        s.update(true); // Back to 2.0, counter reset.
        assert_eq!(s.scale(), 2.0);
        s.update(false);
        assert_eq!(s.scale(), 2.0); // One good step is not enough yet.
        s.update(false);
        assert_eq!(s.scale(), 4.0);
    }

    #[test]
    fn consecutive_skips_track_storms_and_reset() {
        let mut s = DynamicLossScaler::default();
        assert_eq!(s.consecutive_skips(), 0);
        s.update(true);
        s.update(true);
        s.update(true);
        assert_eq!(s.consecutive_skips(), 3);
        assert_eq!(s.skipped_steps(), 3);
        s.update(false); // A good step breaks the storm...
        assert_eq!(s.consecutive_skips(), 0);
        assert_eq!(s.skipped_steps(), 3); // ...but the total persists.
        s.update(true);
        assert_eq!(s.consecutive_skips(), 1);
        let snap = s.snapshot();
        s.restore(snap); // A resume restarts the detector.
        assert_eq!(s.consecutive_skips(), 0);
    }

    #[test]
    fn scale_floor() {
        let cfg = LossScaleConfig {
            init_scale: 2.0,
            min_scale: 1.0,
            ..Default::default()
        };
        let mut s = DynamicLossScaler::new(cfg);
        for _ in 0..10 {
            s.update(true);
        }
        assert_eq!(s.scale(), 1.0);
    }

    #[test]
    fn unscale_and_overflow_check() {
        let s = DynamicLossScaler::new(LossScaleConfig {
            init_scale: 4.0,
            ..Default::default()
        });
        let mut g = vec![4.0f32, 8.0];
        s.unscale(&mut g);
        assert_eq!(g, vec![1.0, 2.0]);
        assert!(!s.check_overflow(&g));
        assert!(s.check_overflow(&[f32::NAN]));
    }
}
