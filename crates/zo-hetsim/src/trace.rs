//! Timeline inspection: utilization summaries and text Gantt rendering.
//!
//! The schedules the perf models build are only trustworthy if their
//! overlap behaviour can be inspected; this module renders a [`Timeline`]
//! as a per-stream utilization report and an ASCII Gantt chart, and both
//! are exercised by tests against hand-computable schedules.

use crate::sim::{StreamId, Timeline};

/// Per-stream utilization summary.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream name.
    pub name: String,
    /// Busy seconds.
    pub busy: f64,
    /// Busy / makespan.
    pub utilization: f64,
    /// Number of tasks executed.
    pub tasks: usize,
}

/// Builds the utilization report for every stream.
pub fn utilization_report(tl: &Timeline) -> Vec<StreamReport> {
    tl.stream_names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let id = StreamId(i);
            StreamReport {
                name: name.clone(),
                busy: tl.busy_secs(id),
                utilization: tl.utilization(id),
                tasks: tl.tasks().iter().filter(|t| t.stream == id).count(),
            }
        })
        .collect()
}

/// Renders the report as an aligned table.
pub fn render_report(tl: &Timeline) -> String {
    let mut out = format!("makespan: {:.6} s\n", tl.makespan());
    out.push_str(&format!(
        "{:<20} {:>10} {:>8} {:>7}\n",
        "stream", "busy (s)", "util", "tasks"
    ));
    for r in utilization_report(tl) {
        out.push_str(&format!(
            "{:<20} {:>10.6} {:>7.1}% {:>7}\n",
            r.name,
            r.busy,
            r.utilization * 100.0,
            r.tasks
        ));
    }
    out
}

/// Renders an ASCII Gantt chart with `width` character columns.
///
/// Each stream gets one row; a `#` marks a busy column, `.` idle. Columns
/// map linearly onto `[0, makespan]`.
pub fn render_gantt(tl: &Timeline, width: usize) -> String {
    let width = width.max(1);
    let span = tl.makespan();
    let mut out = String::new();
    if span == 0.0 {
        return out;
    }
    let name_w = tl.stream_names().iter().map(|n| n.len()).max().unwrap_or(0);
    for (i, name) in tl.stream_names().iter().enumerate() {
        let mut row = vec!['.'; width];
        for t in tl.tasks().iter().filter(|t| t.stream == StreamId(i)) {
            // Half-open column range touched by [start, finish).
            let c0 = ((t.start / span) * width as f64).floor() as usize;
            let c1 = ((t.finish / span) * width as f64).ceil() as usize;
            for c in row.iter_mut().take(c1.min(width)).skip(c0.min(width)) {
                *c = '#';
            }
        }
        out.push_str(&format!("{name:<name_w$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;

    fn two_stream_timeline() -> Timeline {
        let mut sim = Sim::new();
        let a = sim.stream("gpu");
        let b = sim.stream("pcie");
        let t1 = sim.task(a, 2.0, &[], "compute").unwrap();
        sim.task(b, 1.0, &[t1], "copy").unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn report_totals() {
        let tl = two_stream_timeline();
        let report = utilization_report(&tl);
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "gpu");
        assert_eq!(report[0].busy, 2.0);
        assert_eq!(report[0].tasks, 1);
        assert!((report[0].utilization - 2.0 / 3.0).abs() < 1e-12);
        assert!((report[1].utilization - 1.0 / 3.0).abs() < 1e-12);
        let text = render_report(&tl);
        assert!(text.contains("makespan: 3.0"));
        assert!(text.contains("gpu"));
        assert!(text.contains("66.7%"));
    }

    #[test]
    fn gantt_shape() {
        let tl = two_stream_timeline();
        let g = render_gantt(&tl, 12);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        // GPU busy for the first 2/3 of columns, PCIe the last 1/3.
        let gpu_row = lines[0].split('|').nth(1).unwrap();
        let pcie_row = lines[1].split('|').nth(1).unwrap();
        assert_eq!(&gpu_row[..8], "########");
        assert_eq!(&gpu_row[8..], "....");
        assert_eq!(&pcie_row[..8], "........");
        assert_eq!(&pcie_row[8..], "####");
    }

    #[test]
    fn empty_timeline_renders_empty() {
        let mut sim = Sim::new();
        sim.stream("s");
        let tl = sim.run().unwrap();
        assert_eq!(render_gantt(&tl, 10), "");
        let report = utilization_report(&tl);
        assert_eq!(report[0].busy, 0.0);
        assert_eq!(report[0].utilization, 0.0);
    }

    #[test]
    fn chrome_trace_export_is_valid_and_scaled() {
        let tl = two_stream_timeline();
        let events = tl.to_trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].track, "gpu");
        assert_eq!(events[0].dur_us, 2_000_000); // 2 simulated seconds
        let json = tl.chrome_trace_json();
        let parsed = zo_trace::json::parse(&json).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata records + 2 complete events.
        assert_eq!(evs.len(), 4);
        let complete: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|ph| ph.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert!(complete
            .iter()
            .all(|e| e.get("dur").and_then(|d| d.as_u64()).is_some()));
    }
}
