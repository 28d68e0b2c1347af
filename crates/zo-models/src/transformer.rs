//! GPT-2-like transformer accounting: parameters, FLOPs, activations.
//!
//! The evaluation workloads (paper Sec. 6.1) are GPT-2-like models whose
//! depth and hidden size are varied to reach 1–70B parameters (Table 3).
//! Throughput and model-scale experiments need exact parameter counts,
//! per-iteration FLOPs, and activation footprints; this module provides
//! the standard accounting formulas for a pre-LN transformer LM trained
//! with activation checkpointing (which the paper uses — Fig. 2 caption).

/// Configuration of a GPT-2-like decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Sequence length.
    pub seq_len: u32,
}

impl TransformerConfig {
    /// GPT-2 defaults for vocabulary (50257, rounded to 50304 for
    /// alignment) and sequence length (1024), with `hidden/64` heads.
    pub fn gpt2_like(num_layers: u32, hidden: u32) -> TransformerConfig {
        TransformerConfig {
            num_layers,
            hidden,
            heads: (hidden / 64).max(1),
            vocab: 50304,
            seq_len: 1024,
        }
    }

    /// Parameters in one transformer layer: `12·h² + 13·h`.
    ///
    /// Attention QKV + output projection contribute `4h² + 4h`, the MLP
    /// (4× expansion) `8h² + 5h`, and the two layer norms `4h`.
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        12 * h * h + 13 * h
    }

    /// Total parameter count, including token and position embeddings.
    pub fn total_params(&self) -> u64 {
        let h = self.hidden as u64;
        let emb = (self.vocab as u64 + self.seq_len as u64) * h;
        // Final layer norm.
        let final_ln = 2 * h;
        self.num_layers as u64 * self.params_per_layer() + emb + final_ln
    }

    /// FLOPs for one iteration at `micro_batch` sequences, with activation
    /// checkpointing.
    ///
    /// Dense-work approximation: 2·P FLOPs/token forward, 4·P backward,
    /// plus a forward recompute for checkpointing = 8·P per token, plus
    /// the attention score term `12·L·B·s²·h` (fwd+bwd+recompute of the
    /// two s×s matmuls).
    pub fn flops_per_iter(&self, micro_batch: u64) -> f64 {
        let tokens = micro_batch as f64 * self.seq_len as f64;
        let dense = 8.0 * self.total_params() as f64 * tokens;
        let attn = 12.0
            * self.num_layers as f64
            * micro_batch as f64
            * (self.seq_len as f64 * self.seq_len as f64)
            * self.hidden as f64;
        dense + attn
    }

    /// Activation bytes resident on GPU at `micro_batch`, with
    /// checkpointing (one fp16 checkpoint per layer plus one layer's
    /// working set).
    pub fn activation_bytes(&self, micro_batch: u64) -> u64 {
        let b = micro_batch;
        let s = self.seq_len as u64;
        let h = self.hidden as u64;
        let heads = self.heads as u64;
        // One fp16 checkpoint (b·s·h) per layer boundary.
        let checkpoints = (self.num_layers as u64 + 1) * b * s * h * 2;
        // Working set of the layer being (re)computed: QKV + scores +
        // context + MLP intermediates, all fp16; ~16·b·s·h plus the two
        // attention score tensors b·heads·s².
        let working = 16 * b * s * h * 2 + 2 * b * heads * s * s * 2;
        // Logits + loss working memory (fp16 + fp32 softmax): counted once.
        let logits = b * s * self.vocab as u64 * (2 + 4);
        checkpoints + working + logits
    }

    /// Model-state byte totals per the paper's 16M rule.
    pub fn state_bytes(&self) -> ModelStateBytes {
        ModelStateBytes::for_params(self.total_params())
    }
}

/// The four model-state components of mixed-precision Adam training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStateBytes {
    /// fp16 parameters (2 bytes each).
    pub p16: u64,
    /// fp16 gradients (2 bytes each).
    pub g16: u64,
    /// fp32 master parameters (4 bytes each).
    pub p32: u64,
    /// fp32 momentum + variance (8 bytes each).
    pub optim: u64,
}

impl ModelStateBytes {
    /// Byte budget for `params` parameters.
    pub fn for_params(params: u64) -> ModelStateBytes {
        ModelStateBytes {
            p16: 2 * params,
            g16: 2 * params,
            p32: 4 * params,
            optim: 8 * params,
        }
    }

    /// Total: the paper's 16M bytes.
    pub fn total(&self) -> u64 {
        self.p16 + self.g16 + self.p32 + self.optim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_one_billion_config() {
        // 20 layers × 2048 hidden ≈ 1B (Table 3 row 1).
        let cfg = TransformerConfig::gpt2_like(20, 2048);
        let p = cfg.total_params();
        assert!((0.9e9..1.2e9).contains(&(p as f64)), "got {p}");
    }

    #[test]
    fn table3_thirteen_billion_config() {
        // 65 layers × 4096 hidden ≈ 13B (Table 3): the single-GPU maximum.
        let cfg = TransformerConfig::gpt2_like(65, 4096);
        let p = cfg.total_params() as f64;
        assert!((12.5e9..13.8e9).contains(&p), "got {p}");
    }

    #[test]
    fn table3_seventy_billion_config() {
        let cfg = TransformerConfig::gpt2_like(69, 9216);
        let p = cfg.total_params() as f64;
        assert!((68e9..72e9).contains(&p), "got {p}");
    }

    #[test]
    fn sixteen_m_rule() {
        let cfg = TransformerConfig::gpt2_like(20, 2048);
        let st = cfg.state_bytes();
        assert_eq!(st.total(), 16 * cfg.total_params());
        assert_eq!(st.p16, 2 * cfg.total_params());
        assert_eq!(st.optim, 8 * cfg.total_params());
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let cfg = TransformerConfig::gpt2_like(20, 2048);
        let f1 = cfg.flops_per_iter(1);
        let f8 = cfg.flops_per_iter(8);
        assert!((f8 / f1 - 8.0).abs() < 1e-9);
        // Dense term dominates for large hidden: ~8·P·tokens.
        let approx = 8.0 * cfg.total_params() as f64 * 1024.0;
        assert!(f1 > approx && f1 < 1.4 * approx);
    }

    #[test]
    fn activation_memory_grows_with_batch_and_depth() {
        let small = TransformerConfig::gpt2_like(20, 2048);
        let deep = TransformerConfig::gpt2_like(40, 2048);
        assert!(deep.activation_bytes(8) > small.activation_bytes(8));
        assert!(small.activation_bytes(16) > small.activation_bytes(8));
        // Checkpointing keeps it far below the no-checkpoint footprint
        // (~L·16·b·s·h bytes): for 20 layers the ratio should be large.
        let no_ckpt = 20 * 16 * 8 * 1024 * 2048 * 2u64;
        assert!(small.activation_bytes(8) < no_ckpt / 2);
    }

    #[test]
    fn heads_default_follows_hidden() {
        assert_eq!(TransformerConfig::gpt2_like(2, 2048).heads, 32);
        assert_eq!(TransformerConfig::gpt2_like(2, 64).heads, 1);
    }
}
