//! The evaluation model zoo of Table 3, plus BERT-large (Sec. 6.1).

use crate::transformer::TransformerConfig;

/// One row of Table 3: a model size with its evaluation settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Nominal parameter count label, in billions (e.g. 10 for "10B").
    pub label_b: f64,
    /// Micro-batch size per GPU used in the paper's runs.
    pub batch_per_gpu: u32,
    /// Model-parallel degree used with ZeRO-Offload.
    pub mp_degree: u32,
    /// The architecture.
    pub model: TransformerConfig,
}

impl EvalConfig {
    fn new(label_b: f64, batch_per_gpu: u32, mp_degree: u32, layers: u32, hidden: u32) -> Self {
        EvalConfig {
            label_b,
            batch_per_gpu,
            mp_degree,
            model: TransformerConfig::gpt2_like(layers, hidden),
        }
    }
}

/// All rows of Table 3, in order.
pub fn table3() -> Vec<EvalConfig> {
    vec![
        EvalConfig::new(1.0, 32, 1, 20, 2048),
        EvalConfig::new(2.0, 32, 1, 40, 2048),
        EvalConfig::new(4.0, 32, 1, 64, 2304),
        EvalConfig::new(6.0, 16, 1, 53, 3072),
        EvalConfig::new(8.0, 16, 1, 72, 3072),
        EvalConfig::new(10.0, 10, 1, 50, 4096),
        EvalConfig::new(11.0, 8, 1, 55, 4096),
        EvalConfig::new(12.0, 4, 1, 60, 4096),
        EvalConfig::new(13.0, 4, 1, 65, 4096),
        EvalConfig::new(15.0, 8, 2, 78, 4096),
        EvalConfig::new(20.0, 8, 2, 25, 8192),
        EvalConfig::new(40.0, 8, 2, 50, 8192),
        EvalConfig::new(60.0, 8, 2, 75, 8192),
        EvalConfig::new(70.0, 8, 8, 69, 9216),
    ]
}

/// Looks up a Table 3 row by its nominal size in billions.
pub fn by_label(label_b: f64) -> Option<EvalConfig> {
    table3()
        .into_iter()
        .find(|c| (c.label_b - label_b).abs() < 1e-9)
}

/// BERT-large (24 layers, 1024 hidden, 16 heads, ~336M parameters), used
/// for the SQuAD fine-tuning convergence experiment (Fig. 13).
pub fn bert_large() -> TransformerConfig {
    TransformerConfig {
        num_layers: 24,
        hidden: 1024,
        heads: 16,
        vocab: 30522,
        seq_len: 384,
    }
}

/// The total training batch size used in the throughput experiments.
pub const TOTAL_BATCH: u32 = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_fourteen_rows() {
        assert_eq!(table3().len(), 14);
    }

    #[test]
    fn labels_are_close_to_actual_counts() {
        for cfg in table3() {
            let actual_b = cfg.model.total_params() as f64 / 1e9;
            let rel = (actual_b - cfg.label_b).abs() / cfg.label_b;
            assert!(
                rel < 0.15,
                "{}B row has {actual_b:.2}B actual parameters",
                cfg.label_b
            );
        }
    }

    #[test]
    fn lookup_by_label() {
        let c = by_label(10.0).unwrap();
        assert_eq!(c.batch_per_gpu, 10);
        assert_eq!(c.model.hidden, 4096);
        assert!(by_label(3.0).is_none());
    }

    #[test]
    fn mp_degree_only_for_large_models() {
        for cfg in table3() {
            if cfg.label_b <= 13.0 {
                assert_eq!(cfg.mp_degree, 1, "{}B", cfg.label_b);
            } else {
                assert!(cfg.mp_degree >= 2, "{}B", cfg.label_b);
            }
        }
    }

    #[test]
    fn bert_large_parameter_count() {
        let p = bert_large().total_params() as f64;
        // ~336M (ours counts embeddings slightly differently; allow 10%).
        assert!((300e6..380e6).contains(&p), "got {p}");
    }
}
