//! ZeRO-Offload + model parallelism, for real: a 2×2 grid of thread ranks
//! (MP degree 2 × DP degree 2) trains a tensor-sliced MLP under the
//! ZeRO-2 + offload engine, and the result matches a single-process run
//! of the unsliced model (paper Sec. 4.2, "Model Parallel training").
//!
//! Topology: rank (d, m) belongs to MP group d (slicing the weights with
//! rank m's shard) and DP group m (partitioning the optimizer state of
//! that shard). Each thread therefore holds 1/MP of the parameters and
//! 1/(MP·DP) of the optimizer state — the paper's Fig. 4 placement.

use zero_offload::{StepOutcome, ZeroOffloadConfig, ZeroOffloadEngine};
use zo_collectives::Communicator;
use zo_nn::{Activation, ColumnParallelLinear, Linear, Model, ParamVisitor, RowParallelLinear};
use zo_optim::{AdamParams, LossScaleConfig};
use zo_tensor::{Init, Tensor};

const HIDDEN: usize = 8;
const ROWS_PER_DP: usize = 4;
const MP: usize = 2;
const DP: usize = 2;
const STEPS: usize = 4;

/// A tensor-sliced 2-layer MLP (column → GELU → row) with an MSE head.
struct MpMlp {
    col: ColumnParallelLinear,
    row: RowParallelLinear,
}

impl MpMlp {
    fn new(mp_comm: Communicator) -> MpMlp {
        MpMlp {
            col: ColumnParallelLinear::new(HIDDEN, 4 * HIDDEN, 1, mp_comm.clone()),
            row: RowParallelLinear::new(4 * HIDDEN, HIDDEN, 2, mp_comm),
        }
    }

    /// MSE training step; gradients accumulate into the local shards.
    fn train_step(&mut self, x: &Tensor, target: &Tensor) -> Result<f32, zo_tensor::TensorError> {
        let (h1, c1) = self.col.forward(x)?;
        let (a1, ca) = Activation::Gelu.forward(&h1);
        let (y, c2) = self.row.forward(&a1)?;
        let rows = y.rows() as f32;
        let mut dy = y.clone();
        zo_tensor::ops::sub_assign(dy.data_mut(), target.data())?;
        let loss = 0.5 * dy.data().iter().map(|v| v * v).sum::<f32>() / rows;
        zo_tensor::ops::scale(dy.data_mut(), 1.0 / rows);
        let da = self.row.backward(&c2, &dy)?;
        let dh = Activation::Gelu.backward(&ca, &da);
        self.col.backward(&c1, &dh)?;
        Ok(loss)
    }
}

impl Model for MpMlp {
    fn num_layer_buckets(&self) -> usize {
        2
    }

    fn num_params(&self) -> usize {
        self.col.local.num_params() + self.row.local.num_params()
    }

    fn visit_mut(&mut self, f: &mut ParamVisitor) {
        f(0, self.col.local.w.data_mut(), self.col.local.dw.data_mut());
        f(0, &mut self.col.local.b, &mut self.col.local.db);
        f(1, self.row.local.w.data_mut(), self.row.local.dw.data_mut());
    }

    fn zero_grads(&mut self) {
        self.col.local.zero_grads();
        self.row.local.zero_grads();
    }
}

/// A full (unsliced) reference model with the same seeds and MSE head.
struct SerialMlp {
    fc1: Linear,
    fc2: Linear,
}

impl SerialMlp {
    fn new() -> SerialMlp {
        let fc1 = Linear::new(HIDDEN, 4 * HIDDEN, &mut Init::new(1));
        let mut fc2 = Linear::new(4 * HIDDEN, HIDDEN, &mut Init::new(2));
        fc2.b = vec![0.0; HIDDEN];
        SerialMlp { fc1, fc2 }
    }

    fn train_step(&mut self, x: &Tensor, target: &Tensor) -> Result<f32, zo_tensor::TensorError> {
        let (h1, c1) = self.fc1.forward(x)?;
        let (a1, ca) = Activation::Gelu.forward(&h1);
        let (y, c2) = self.fc2.forward(&a1)?;
        let rows = y.rows() as f32;
        let mut dy = y.clone();
        zo_tensor::ops::sub_assign(dy.data_mut(), target.data())?;
        let loss = 0.5 * dy.data().iter().map(|v| v * v).sum::<f32>() / rows;
        zo_tensor::ops::scale(dy.data_mut(), 1.0 / rows);
        let da = self.fc2.backward(&c2, &dy)?;
        let dh = Activation::Gelu.backward(&ca, &da);
        self.fc1.backward(&c1, &dh)?;
        Ok(loss)
    }
}

impl Model for SerialMlp {
    fn num_layer_buckets(&self) -> usize {
        2
    }

    fn num_params(&self) -> usize {
        self.fc1.num_params() + self.fc2.num_params()
    }

    fn visit_mut(&mut self, f: &mut ParamVisitor) {
        f(0, self.fc1.w.data_mut(), self.fc1.dw.data_mut());
        f(0, &mut self.fc1.b, &mut self.fc1.db);
        f(1, self.fc2.w.data_mut(), self.fc2.dw.data_mut());
    }

    fn zero_grads(&mut self) {
        self.fc1.zero_grads();
        self.fc2.zero_grads();
    }
}

fn engine_cfg() -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        adam: AdamParams {
            lr: 1e-2,
            ..AdamParams::default()
        },
        loss_scale: LossScaleConfig {
            init_scale: 64.0,
            ..Default::default()
        },
        ..ZeroOffloadConfig::default()
    }
}

/// Global batch for a step; DP rank `d` takes its row slice (MP ranks of
/// the same DP position see identical data).
fn global_batch(step: usize) -> (Tensor, Tensor) {
    let mut rng = Init::new(900 + step as u64);
    let x = rng.normal_tensor(ROWS_PER_DP * DP, HIDDEN, 1.0);
    let t = rng.normal_tensor(ROWS_PER_DP * DP, HIDDEN, 0.5);
    (x, t)
}

fn take_rows(t: &Tensor, d: usize) -> Tensor {
    t.slice_rows(d * ROWS_PER_DP..(d + 1) * ROWS_PER_DP)
}

#[test]
fn mp_times_dp_grid_matches_single_process() {
    // Build the communicator grid: MP groups connect ranks of one DP
    // position; DP groups connect the same MP shard across positions.
    let mut mp_groups: Vec<Vec<Communicator>> = (0..DP).map(|_| Communicator::group(MP)).collect();
    let mut dp_groups: Vec<Vec<Communicator>> = (0..MP).map(|_| Communicator::group(DP)).collect();

    let results: Vec<(usize, usize, Vec<f32>, usize)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for d in (0..DP).rev() {
            for m in (0..MP).rev() {
                let mp_comm = mp_groups[d].pop().expect("mp endpoint");
                let dp_comm = dp_groups[m].pop().expect("dp endpoint");
                debug_assert_eq!(mp_comm.rank(), m);
                debug_assert_eq!(dp_comm.rank(), d);
                handles.push(scope.spawn(move || {
                    let model = MpMlp::new(mp_comm);
                    let mut engine = ZeroOffloadEngine::zero2(model, engine_cfg(), dp_comm);
                    for step in 0..STEPS {
                        let (x, t) = global_batch(step);
                        let (xs, ts) = (take_rows(&x, d), take_rows(&t, d));
                        let out = engine.step(|mdl| mdl.train_step(&xs, &ts)).unwrap();
                        assert!(matches!(out, StepOutcome::Applied { .. }));
                    }
                    let mut p = vec![0.0f32; engine.model_mut().num_params()];
                    engine.model_mut().copy_params_to(&mut p);
                    (d, m, p, engine.master_params().len())
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("grid rank"))
            .collect()
    });

    // Reference: the unsliced model on the full batch, single process.
    let mut reference = ZeroOffloadEngine::new(SerialMlp::new(), engine_cfg());
    for step in 0..STEPS {
        let (x, t) = global_batch(step);
        reference.step(|m| m.train_step(&x, &t)).unwrap();
    }
    let mut ref_params = vec![0.0f32; reference.model_mut().num_params()];
    reference.model_mut().copy_params_to(&mut ref_params);
    // Reference layout: fc1.w (h x 4h), fc1.b (4h), fc2.w (4h x h).
    let fc1_w = &ref_params[..HIDDEN * 4 * HIDDEN];
    let fc1_b = &ref_params[HIDDEN * 4 * HIDDEN..HIDDEN * 4 * HIDDEN + 4 * HIDDEN];
    let fc2_w = &ref_params[HIDDEN * 4 * HIDDEN + 4 * HIDDEN..];

    for (d, m, p, shard_len) in &results {
        // DP replicas of the same MP shard are identical.
        let twin = results
            .iter()
            .find(|(d2, m2, _, _)| d2 != d && m2 == m)
            .expect("other DP replica");
        assert_eq!(&twin.2, p, "DP replicas of MP shard {m} diverged");
        // Each rank holds 1/(MP*DP) of the optimizer state for its shard.
        assert_eq!(
            *shard_len,
            p.len().div_ceil(DP).max(p.len() / DP),
            "shard sizing"
        );

        // The MP shard matches the reference's corresponding columns/rows.
        let cols = 4 * HIDDEN / MP;
        let col_range = m * cols..(m + 1) * cols;
        let mut max_diff = 0.0f32;
        // col.local.w: (HIDDEN, cols) taken from fc1.w's columns.
        for r in 0..HIDDEN {
            for (lc, fc) in col_range.clone().enumerate() {
                let got = p[r * cols + lc];
                let want = fc1_w[r * 4 * HIDDEN + fc];
                max_diff = max_diff.max((got - want).abs());
            }
        }
        // col.local.b from fc1.b's slice.
        let b_off = HIDDEN * cols;
        for (lc, fc) in col_range.clone().enumerate() {
            max_diff = max_diff.max((p[b_off + lc] - fc1_b[fc]).abs());
        }
        // row.local.w: (cols, HIDDEN) taken from fc2.w's rows.
        let row_off = b_off + cols;
        for (lr, fr) in col_range.clone().enumerate() {
            for c in 0..HIDDEN {
                let got = p[row_off + lr * HIDDEN + c];
                let want = fc2_w[fr * HIDDEN + c];
                max_diff = max_diff.max((got - want).abs());
            }
        }
        assert!(
            max_diff < 6e-3,
            "rank (d={d}, m={m}): MP+DP trajectory diverged from serial by {max_diff}"
        );
    }
}
