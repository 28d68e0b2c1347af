//! Real CPU/compute overlap for DPU: the optimizer on its own thread.
//!
//! The synchronous [`DelayedUpdate`](zo_optim::DelayedUpdate) reproduces
//! DPU's *semantics*; this module reproduces its *mechanism*: the CPU-Adam
//! step for step *i*'s gradients runs on a dedicated optimizer thread
//! while the caller computes step *i+1*'s forward/backward, exactly the
//! overlap of paper Fig. 6.
//!
//! Protocol per step (after warm-up):
//!
//! 1. [`AsyncDpu::submit`] hands the freshly transferred gradients to the
//!    optimizer thread and returns immediately — the caller goes on to
//!    compute the next micro-batch;
//! 2. before the *following* parameter sync, [`AsyncDpu::wait_params`]
//!    blocks until the in-flight update finishes and returns the fresh
//!    fp16 parameters.
//!
//! Correctness is pinned by tests showing bit-identical trajectories to
//! the synchronous [`DelayedUpdate`], and liveness by a test that submits
//! work and observes the caller thread making progress before collecting.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use zo_optim::{AdamState, CpuAdam, CpuAdamConfig};
use zo_tensor::F16;

enum Job {
    /// Run one Adam step with these (unscaled fp32) gradients.
    Step(Vec<f32>),
    /// Shut down.
    Stop,
}

/// The result of one asynchronous optimizer step, snapshotted on the
/// worker thread right after the update.
///
/// Carrying the full `(p16, master, state)` triple — not just the fp16
/// view — is what lets the caller keep a checkpoint-consistent mirror of
/// the optimizer-side state without ever blocking on the worker outside
/// the pipeline's natural wait point.
pub struct DpuUpdate {
    /// fp16 snapshot of the master parameters after the update.
    pub p16: Vec<F16>,
    /// fp32 master parameters after the update.
    pub master: Vec<f32>,
    /// Adam moment state after the update.
    pub state: AdamState,
    /// Optimizer steps completed so far.
    pub steps: u64,
}

/// An optimizer thread owning the fp32 master parameters.
pub struct AsyncDpu {
    tx: SyncSender<Job>,
    rx: Receiver<DpuUpdate>,
    worker: Option<std::thread::JoinHandle<Vec<f32>>>,
    in_flight: bool,
}

impl AsyncDpu {
    /// Spawns the optimizer thread, transferring ownership of the master
    /// parameters to it (they live in "CPU memory").
    pub fn spawn(master: Vec<f32>, cfg: CpuAdamConfig) -> AsyncDpu {
        AsyncDpu::spawn_traced(master, cfg, zo_trace::Tracer::disabled())
    }

    /// Like [`AsyncDpu::spawn`], additionally recording each update as a
    /// `cpu_adam_step` span on the `optimizer` track (plus an
    /// `optimizer_steps` counter). Because the span is recorded from the
    /// worker thread against the tracer's shared epoch, its wall-clock
    /// overlap with caller-side spans is directly checkable — the Fig. 6
    /// overlap becomes an assertable fact rather than a diagram.
    pub fn spawn_traced(
        master: Vec<f32>,
        cfg: CpuAdamConfig,
        tracer: zo_trace::Tracer,
    ) -> AsyncDpu {
        AsyncDpu::spawn_on_track(master, cfg, None, tracer, "optimizer")
    }

    /// The general constructor: optionally restores a previous
    /// [`AdamState`] (checkpoint resume) and records worker spans on
    /// `track` so several workers (e.g. one per ZeRO-2 rank) stay apart.
    ///
    /// # Panics
    ///
    /// Panics if `state` is given with a length other than `master.len()`.
    pub fn spawn_on_track(
        master: Vec<f32>,
        cfg: CpuAdamConfig,
        state: Option<AdamState>,
        tracer: zo_trace::Tracer,
        track: &str,
    ) -> AsyncDpu {
        if let Some(s) = &state {
            assert_eq!(s.len(), master.len(), "restored state length");
        }
        let track = track.to_string();
        let (job_tx, job_rx) = sync_channel::<Job>(1);
        let (done_tx, done_rx) = sync_channel::<DpuUpdate>(1);
        let worker = std::thread::spawn(move || {
            let mut master = master;
            let mut opt = CpuAdam::new(cfg, master.len());
            if let Some(s) = state {
                opt.load_state(s).expect("state length checked above");
            }
            let mut p16 = vec![F16::ZERO; master.len()];
            while let Ok(job) = job_rx.recv() {
                match job {
                    Job::Step(grads) => {
                        {
                            let _update = tracer.span(&track, "cpu_adam_step");
                            opt.step_mixed(&mut master, &grads, &mut p16)
                                .expect("worker buffers are sized together");
                        }
                        tracer.add(&track, "optimizer_steps", 1);
                        let done = DpuUpdate {
                            p16: p16.clone(),
                            master: master.clone(),
                            state: opt.state().clone(),
                            steps: opt.step_count(),
                        };
                        if done_tx.send(done).is_err() {
                            break;
                        }
                    }
                    Job::Stop => break,
                }
            }
            master
        });
        AsyncDpu {
            tx: job_tx,
            rx: done_rx,
            worker: Some(worker),
            in_flight: false,
        }
    }

    /// Submits gradients for an asynchronous update; returns immediately.
    ///
    /// # Panics
    ///
    /// Panics if an update is already in flight (callers must
    /// [`AsyncDpu::wait_params`] first) or the worker died.
    pub fn submit(&mut self, grads: Vec<f32>) {
        assert!(!self.in_flight, "an update is already in flight");
        self.tx
            .send(Job::Step(grads))
            .expect("optimizer thread alive");
        self.in_flight = true;
    }

    /// Whether an update is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Blocks until the in-flight update completes; returns the full
    /// update snapshot (fp16 and fp32 parameters, Adam state, step count).
    ///
    /// # Panics
    ///
    /// Panics if no update is in flight or the worker died.
    pub fn wait_update(&mut self) -> DpuUpdate {
        assert!(self.in_flight, "no update in flight");
        let done = self.rx.recv().expect("optimizer thread alive");
        self.in_flight = false;
        done
    }

    /// Blocks until the in-flight update completes; returns the fp16
    /// parameters and the optimizer step count.
    ///
    /// # Panics
    ///
    /// Panics if no update is in flight or the worker died.
    pub fn wait_params(&mut self) -> (Vec<F16>, u64) {
        let done = self.wait_update();
        (done.p16, done.steps)
    }

    /// The single shutdown path shared by [`AsyncDpu::shutdown`] and
    /// `Drop`: drain any in-flight update, stop the worker, join it.
    /// Returns `None` if the worker was already gone or panicked.
    fn shutdown_inner(&mut self) -> Option<Vec<f32>> {
        let worker = self.worker.take()?;
        if self.in_flight {
            let _ = self.rx.recv();
            self.in_flight = false;
        }
        let _ = self.tx.send(Job::Stop);
        worker.join().ok()
    }

    /// Stops the worker and returns the final master parameters.
    ///
    /// Drains any in-flight update first (its result is the final state).
    pub fn shutdown(mut self) -> Vec<f32> {
        self.shutdown_inner().expect("optimizer thread panicked")
    }
}

impl Drop for AsyncDpu {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_optim::DelayedUpdate;

    fn grads_for(step: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((step * 13 + i * 7) % 19) as f32 - 9.0) * 0.02)
            .collect()
    }

    #[test]
    fn matches_synchronous_dpu_bitwise() {
        let n = 97;
        let steps = 6;
        let master: Vec<f32> = (0..n).map(|i| 0.1 * i as f32 - 4.0).collect();

        // Async pipeline: submit step i, compute "next batch", wait.
        let mut dpu = AsyncDpu::spawn(master.clone(), CpuAdamConfig::default());
        let mut last_p16 = None;
        for step in 0..steps {
            dpu.submit(grads_for(step, n));
            // (The caller would run forward/backward here, overlapped.)
            let (p16, count) = dpu.wait_params();
            assert_eq!(count, step as u64 + 1);
            last_p16 = Some(p16);
        }
        let final_master = dpu.shutdown();

        // Synchronous reference: DelayedUpdate with warm-up 0 applies the
        // same gradients one call later; emulate the same effective order
        // by applying each gradient eagerly (the async path above is
        // eager within a submit/wait pair).
        let mut opt = CpuAdam::new(CpuAdamConfig::default(), n);
        let mut p_ref = master;
        let mut p16_ref = vec![F16::ZERO; n];
        for step in 0..steps {
            opt.step_mixed(&mut p_ref, &grads_for(step, n), &mut p16_ref)
                .unwrap();
        }
        assert_eq!(final_master, p_ref);
        assert_eq!(last_p16.unwrap(), p16_ref);
    }

    #[test]
    fn pipelined_use_matches_delayed_update_semantics() {
        // True DPU pipeline: keep one update in flight across steps, so
        // the parameters used at step i+1 come from step i-1's gradients —
        // exactly DelayedUpdate with warm-up 0.
        let n = 40;
        let steps = 7;
        let master: Vec<f32> = (0..n).map(|i| 0.05 * i as f32).collect();

        let mut dpu = AsyncDpu::spawn(master.clone(), CpuAdamConfig::default());
        let mut applied_p16: Vec<Vec<F16>> = Vec::new();
        for step in 0..steps {
            if dpu.in_flight() {
                let (p16, _) = dpu.wait_params();
                applied_p16.push(p16);
            }
            dpu.submit(grads_for(step, n));
            // Caller computes step `step + 1`'s batch here, overlapped with
            // the update of step `step`'s gradients.
        }
        let final_master = dpu.shutdown();

        // Synchronous DPU reference.
        let mut sync = DelayedUpdate::new(CpuAdam::new(CpuAdamConfig::default(), n), 0);
        let mut p_ref = master;
        for step in 0..steps {
            sync.step(&mut p_ref, &grads_for(step, n)).unwrap();
        }
        sync.flush(&mut p_ref).unwrap();
        assert_eq!(final_master, p_ref);
        // The pipeline produced steps-1 parameter snapshots while running
        // (the last gradient was drained at shutdown).
        assert_eq!(applied_p16.len(), steps - 1);
    }

    #[test]
    fn caller_progresses_while_update_in_flight() {
        // Liveness: submit returns before the update completes; the caller
        // can do real work in between. Use a large buffer so the update
        // takes measurable time even on a fast machine.
        let n = 1 << 21;
        let mut dpu = AsyncDpu::spawn(vec![0.5; n], CpuAdamConfig::default());
        dpu.submit(vec![0.01; n]);
        assert!(dpu.in_flight());
        // Caller-side "forward pass" while the optimizer thread works.
        let mut acc = 0.0f64;
        for i in 0..100_000 {
            acc += (i as f64).sqrt();
        }
        assert!(acc > 0.0);
        let (p16, steps) = dpu.wait_params();
        assert_eq!(steps, 1);
        assert_eq!(p16.len(), n);
        assert!(!dpu.in_flight());
        dpu.shutdown();
    }

    #[test]
    fn traced_update_overlaps_callers_next_forward() {
        // Fig. 6 as a wall-clock fact: the optimizer span for step i's
        // gradients must run concurrently with the caller-side span that
        // stands in for step i+1's forward/backward. Spans from both
        // threads share the tracer's epoch, so overlap is checkable.
        let tracer = zo_trace::Tracer::new();
        let n = 1 << 21;
        let steps = 3;
        let mut dpu =
            AsyncDpu::spawn_traced(vec![0.5; n], CpuAdamConfig::default(), tracer.clone());
        for step in 0..steps {
            dpu.submit(grads_for(step, n));
            {
                let _fwd = tracer.span("gpu", "fwd_bwd");
                // Caller-side compute while the update is in flight; big
                // enough to take real time even on a fast machine.
                let mut acc = 0.0f64;
                for i in 0..2_000_000u64 {
                    acc += (i as f64).sqrt();
                }
                assert!(acc > 0.0);
            }
            let _ = dpu.wait_params();
        }
        dpu.shutdown();

        let updates = tracer.spans_named("cpu_adam_step");
        let forwards = tracer.spans_named("fwd_bwd");
        assert_eq!(updates.len(), steps);
        assert_eq!(forwards.len(), steps);
        assert_eq!(
            tracer.counter_on("optimizer", "optimizer_steps"),
            steps as u64
        );
        // Each step's update should overlap that step's caller-side work;
        // demand a majority so one unlucky scheduling stall cannot flake
        // the test, while genuinely serial execution still fails it.
        let overlapped = updates
            .iter()
            .zip(&forwards)
            .filter(|(u, f)| u.overlaps(f))
            .count();
        assert!(
            overlapped * 2 > steps,
            "only {overlapped}/{steps} updates overlapped the next forward"
        );
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_submit_rejected() {
        let mut dpu = AsyncDpu::spawn(vec![0.0; 4], CpuAdamConfig::default());
        dpu.submit(vec![0.1; 4]);
        dpu.submit(vec![0.1; 4]);
    }

    #[test]
    fn drop_with_in_flight_update_is_clean() {
        let mut dpu = AsyncDpu::spawn(vec![0.0; 1024], CpuAdamConfig::default());
        dpu.submit(vec![0.1; 1024]);
        drop(dpu); // Must not hang or panic.
    }
}
