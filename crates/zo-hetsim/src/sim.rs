//! Stream-ordered discrete-event simulation core.
//!
//! The execution model mirrors how GPU runtimes actually behave: every
//! hardware engine (a GPU's compute stream, each direction of its PCIe
//! link, the CPU worker pool, the NVLink/IB fabric) is an **in-order
//! stream**. Work items are submitted in program order and start when both
//! (a) all their cross-stream dependencies have finished and (b) the
//! previous item on the same stream has finished.
//!
//! This captures precisely the overlap effects the paper's schedules rely
//! on: gradient transfers overlapping backward compute (Sec. 4.1), the
//! tiled parameter copy overlapping the CPU Adam of the next tile
//! (Sec. 5.1), and DPU overlapping the CPU step with the next
//! forward+backward (Sec. 5.2).

use crate::error::SimError;

/// Identifies a stream (an in-order hardware engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// Identifies a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

/// One scheduled work item in the completed simulation.
#[derive(Debug, Clone)]
pub struct ScheduledTask {
    /// The task id.
    pub id: TaskId,
    /// The stream it ran on.
    pub stream: StreamId,
    /// Human-readable label (for traces).
    pub label: String,
    /// Start time in seconds.
    pub start: f64,
    /// Finish time in seconds.
    pub finish: f64,
}

struct PendingTask {
    stream: StreamId,
    duration: f64,
    deps: Vec<TaskId>,
    label: String,
    earliest: f64,
}

/// A stream-ordered simulator.
///
/// # Examples
///
/// ```
/// use zo_hetsim::Sim;
///
/// let mut sim = Sim::new();
/// let gpu = sim.stream("gpu0.compute");
/// let pcie = sim.stream("gpu0.d2h");
/// let bwd = sim.task(gpu, 1.0, &[], "backward").unwrap();
/// // The gradient copy depends on backward but runs on the PCIe stream,
/// // so a following GPU task overlaps with it.
/// let copy = sim.task(pcie, 0.5, &[bwd], "grad offload").unwrap();
/// let next = sim.task(gpu, 1.0, &[], "next fwd").unwrap();
/// let timeline = sim.run().unwrap();
/// assert_eq!(timeline.finish_of(copy), 1.5);
/// assert_eq!(timeline.finish_of(next), 2.0); // overlapped with the copy
/// ```
#[derive(Default)]
pub struct Sim {
    streams: Vec<String>,
    tasks: Vec<PendingTask>,
}

impl Sim {
    /// Creates an empty simulator.
    pub fn new() -> Sim {
        Sim::default()
    }

    /// Registers a named stream and returns its id.
    pub fn stream(&mut self, name: impl Into<String>) -> StreamId {
        self.streams.push(name.into());
        StreamId(self.streams.len() - 1)
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Submits a task of `duration` seconds on `stream`, starting no
    /// earlier than all of `deps` have finished.
    ///
    /// Dependencies must refer to already-submitted tasks (program order),
    /// like CUDA events recorded earlier.
    pub fn task(
        &mut self,
        stream: StreamId,
        duration: f64,
        deps: &[TaskId],
        label: impl Into<String>,
    ) -> Result<TaskId, SimError> {
        self.task_after(stream, duration, deps, 0.0, label)
    }

    /// Like [`Sim::task`] but additionally constrained to start no earlier
    /// than the absolute time `earliest`.
    pub fn task_after(
        &mut self,
        stream: StreamId,
        duration: f64,
        deps: &[TaskId],
        earliest: f64,
        label: impl Into<String>,
    ) -> Result<TaskId, SimError> {
        if stream.0 >= self.streams.len() {
            return Err(SimError::UnknownResource { id: stream.0 });
        }
        if !duration.is_finite() || duration < 0.0 {
            return Err(SimError::InvalidDuration { duration });
        }
        let id = TaskId(self.tasks.len());
        for d in deps {
            if d.0 >= id.0 {
                return Err(SimError::UnknownTask { id: d.0 });
            }
        }
        self.tasks.push(PendingTask {
            stream,
            duration,
            deps: deps.to_vec(),
            label: label.into(),
            earliest,
        });
        Ok(id)
    }

    /// Runs the simulation, consuming the submitted tasks.
    pub fn run(&mut self) -> Result<Timeline, SimError> {
        let mut stream_free = vec![0.0f64; self.streams.len()];
        let mut finished = Vec::with_capacity(self.tasks.len());
        let mut scheduled = Vec::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            let mut start = stream_free[t.stream.0].max(t.earliest);
            for d in &t.deps {
                let f: f64 = finished[d.0];
                start = start.max(f);
            }
            let finish = start + t.duration;
            stream_free[t.stream.0] = finish;
            finished.push(finish);
            scheduled.push(ScheduledTask {
                id: TaskId(i),
                stream: t.stream,
                label: t.label.clone(),
                start,
                finish,
            });
        }
        Ok(Timeline {
            streams: self.streams.clone(),
            tasks: scheduled,
        })
    }
}

/// The completed schedule: every task with its start/finish times.
#[derive(Debug, Clone)]
pub struct Timeline {
    streams: Vec<String>,
    tasks: Vec<ScheduledTask>,
}

impl Timeline {
    /// Total makespan (finish time of the last task), 0 if empty.
    pub fn makespan(&self) -> f64 {
        self.tasks.iter().map(|t| t.finish).fold(0.0, f64::max)
    }

    /// Finish time of a task.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from the producing [`Sim`].
    pub fn finish_of(&self, id: TaskId) -> f64 {
        self.tasks[id.0].finish
    }

    /// Start time of a task.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from the producing [`Sim`].
    pub fn start_of(&self, id: TaskId) -> f64 {
        self.tasks[id.0].start
    }

    /// Busy seconds accumulated on a stream.
    pub fn busy_secs(&self, stream: StreamId) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.stream == stream)
            .map(|t| t.finish - t.start)
            .sum()
    }

    /// Utilization of a stream over the makespan (0 for an empty timeline).
    pub fn utilization(&self, stream: StreamId) -> f64 {
        let total = self.makespan();
        if total == 0.0 {
            0.0
        } else {
            self.busy_secs(stream) / total
        }
    }

    /// All scheduled tasks, in submission order.
    pub fn tasks(&self) -> &[ScheduledTask] {
        &self.tasks
    }

    /// Stream names, indexed by [`StreamId`].
    pub fn stream_names(&self) -> &[String] {
        &self.streams
    }

    /// Converts the schedule into plain [`zo_trace::TraceEvent`]s — the
    /// same event type real engine runs record — with each stream as a
    /// track and simulated seconds mapped to microseconds.
    pub fn to_trace_events(&self) -> Vec<zo_trace::TraceEvent> {
        self.tasks
            .iter()
            .map(|t| {
                let start_us = (t.start * 1e6).round() as u64;
                let end_us = (t.finish * 1e6).round() as u64;
                zo_trace::TraceEvent {
                    track: self.streams[t.stream.0].clone(),
                    name: t.label.clone(),
                    start_us,
                    dur_us: end_us.saturating_sub(start_us),
                }
            })
            .collect()
    }

    /// Renders the simulated schedule as Chrome trace format JSON,
    /// identical in shape to a real run's
    /// `zo_trace::Tracer::chrome_trace_json` export.
    pub fn chrome_trace_json(&self) -> String {
        zo_trace::chrome_trace_json_from(&self.to_trace_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_serializes_tasks() {
        let mut sim = Sim::new();
        let s = sim.stream("s");
        let a = sim.task(s, 1.0, &[], "a").unwrap();
        let b = sim.task(s, 2.0, &[], "b").unwrap();
        let tl = sim.run().unwrap();
        assert_eq!(tl.finish_of(a), 1.0);
        assert_eq!(tl.start_of(b), 1.0);
        assert_eq!(tl.finish_of(b), 3.0);
        assert_eq!(tl.makespan(), 3.0);
        assert_eq!(tl.busy_secs(s), 3.0);
        assert_eq!(tl.utilization(s), 1.0);
    }

    #[test]
    fn cross_stream_dependency_gates_start() {
        let mut sim = Sim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        let a = sim.task(s1, 2.0, &[], "a").unwrap();
        let b = sim.task(s2, 1.0, &[a], "b").unwrap();
        let tl = sim.run().unwrap();
        assert_eq!(tl.start_of(b), 2.0);
        assert_eq!(tl.finish_of(b), 3.0);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut sim = Sim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        sim.task(s1, 5.0, &[], "long").unwrap();
        let b = sim.task(s2, 1.0, &[], "short").unwrap();
        let tl = sim.run().unwrap();
        assert_eq!(tl.finish_of(b), 1.0);
        assert_eq!(tl.makespan(), 5.0);
        assert!((tl.utilization(s2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn earliest_constraint_applies() {
        let mut sim = Sim::new();
        let s = sim.stream("s");
        let a = sim.task_after(s, 1.0, &[], 10.0, "late").unwrap();
        let tl = sim.run().unwrap();
        assert_eq!(tl.start_of(a), 10.0);
        assert_eq!(tl.finish_of(a), 11.0);
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut sim = Sim::new();
        let s = sim.stream("s");
        let err = sim.task(s, 1.0, &[TaskId(5)], "bad");
        assert!(matches!(err, Err(SimError::UnknownTask { id: 5 })));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut sim = Sim::new();
        let s = sim.stream("s");
        assert!(matches!(
            sim.task(StreamId(9), 1.0, &[], "x"),
            Err(SimError::UnknownResource { id: 9 })
        ));
        assert!(matches!(
            sim.task(s, -1.0, &[], "x"),
            Err(SimError::InvalidDuration { .. })
        ));
        assert!(matches!(
            sim.task(s, f64::NAN, &[], "x"),
            Err(SimError::InvalidDuration { .. })
        ));
    }

    #[test]
    fn empty_timeline() {
        let mut sim = Sim::new();
        let tl = sim.run().unwrap();
        assert_eq!(tl.makespan(), 0.0);
    }

    #[test]
    fn models_gradient_offload_overlap() {
        // The paper's single-GPU schedule: backward is a chain of per-layer
        // compute tasks; each layer's gradient copy runs on the d2h stream
        // as soon as that layer finishes. With copy time <= layer compute
        // time, the total overhead is just the final copy's tail.
        let mut sim = Sim::new();
        let gpu = sim.stream("gpu");
        let d2h = sim.stream("d2h");
        let layers = 10;
        let mut prev: Option<TaskId> = None;
        let mut last_copy = None;
        for i in 0..layers {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let bwd = sim.task(gpu, 1.0, &deps, format!("bwd{i}")).unwrap();
            last_copy = Some(sim.task(d2h, 0.5, &[bwd], format!("copy{i}")).unwrap());
            prev = Some(bwd);
        }
        let tl = sim.run().unwrap();
        // Backward chain: 10 s; final copy starts at 10.0, ends 10.5.
        assert_eq!(tl.finish_of(prev.unwrap()), 10.0);
        assert_eq!(tl.finish_of(last_copy.unwrap()), 10.5);
        // 9 of the 10 copies were fully hidden.
        assert_eq!(tl.makespan(), 10.5);
    }
}
