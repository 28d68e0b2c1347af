//! Persisted criterion artifact: `BENCH_criterion.json`.
//!
//! The vendored criterion shim appends one NDJSON record per finished
//! bench to the file named by `CRITERION_JSON`. CI sweeps every bench
//! target under `CRITERION_QUICK=1`, then the `criterion_report` binary
//! aggregates the NDJSON into a single validated JSON artifact — the
//! same emit-then-assert pattern `kernel_bench` uses for
//! `BENCH_kernels.json`, so a silently-empty or truncated sweep can
//! never upload.

/// One bench measurement as recorded by the criterion shim's sink.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full bench name (`group/function/param`).
    pub name: String,
    /// Mean wall time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Throughput annotation, if the bench declared one:
    /// (`"elements"` or `"bytes"`, units per iteration).
    pub throughput: Option<(String, u64)>,
}

/// Parses the NDJSON stream the criterion shim appends under
/// `CRITERION_JSON`. Blank lines are skipped; any malformed line is an
/// error (a torn write means the sweep cannot be trusted).
pub fn parse_ndjson(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = zo_trace::json::parse(line)
            .map_err(|e| format!("line {}: does not parse: {e}", i + 1))?;
        let name = v
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("line {}: missing name", i + 1))?
            .to_string();
        let mean_ns = v
            .get("mean_ns")
            .and_then(|m| m.as_f64())
            .ok_or_else(|| format!("line {}: missing mean_ns", i + 1))?;
        let throughput = match v.get("throughput").and_then(|t| t.as_str()) {
            Some(kind) => {
                let per_iter = v
                    .get("per_iter")
                    .and_then(|p| p.as_f64())
                    .ok_or_else(|| format!("line {}: throughput without per_iter", i + 1))?;
                Some((kind.to_string(), per_iter as u64))
            }
            None => None,
        };
        out.push(BenchRecord {
            name,
            mean_ns,
            throughput,
        });
    }
    Ok(out)
}

/// Renders `BENCH_criterion.json` from the aggregated records. Flat
/// hand-rendered JSON in the style of `BENCH_kernels.json`;
/// `criterion_report --assert` re-parses it through
/// [`zo_trace::json`], so the two ends cross-check each other.
pub fn render_criterion_json(records: &[BenchRecord]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"zo-criterion-bench/1\",\n");
    s.push_str(&format!("  \"bench_count\": {},\n", records.len()));
    s.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        let tp = match &r.throughput {
            Some((kind, per_iter)) => {
                format!(", \"throughput\": \"{kind}\", \"per_iter\": {per_iter}")
            }
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"name\": {}, \"mean_ns\": {:.1}{}}}{}\n",
            zo_trace::json::quote(&r.name),
            r.mean_ns,
            tp,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Validates an emitted `BENCH_criterion.json`: it must parse, carry the
/// schema tag, at least one bench, unique non-empty names, and every
/// `mean_ns` finite and strictly positive. Returns a description of the
/// first problem found.
pub fn validate_criterion_json(text: &str) -> Result<(), String> {
    let v = zo_trace::json::parse(text).map_err(|e| format!("JSON does not parse: {e}"))?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some("zo-criterion-bench/1") => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing schema tag".into()),
    }
    let benches = v
        .get("benches")
        .and_then(|b| b.as_array())
        .ok_or("missing benches array")?;
    if benches.is_empty() {
        return Err("empty benches array: the sweep measured nothing".into());
    }
    let count = v
        .get("bench_count")
        .and_then(|c| c.as_f64())
        .ok_or("missing bench_count")?;
    if count as usize != benches.len() {
        return Err(format!(
            "bench_count {count} disagrees with {} benches",
            benches.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (i, b) in benches.iter().enumerate() {
        let name = b
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("benches[{i}]: missing name"))?;
        if name.is_empty() {
            return Err(format!("benches[{i}]: empty name"));
        }
        if !seen.insert(name.to_string()) {
            return Err(format!("benches[{i}]: duplicate name {name:?}"));
        }
        let mean = b
            .get("mean_ns")
            .and_then(|m| m.as_f64())
            .ok_or_else(|| format!("benches[{i}] ({name}): missing mean_ns"))?;
        if !mean.is_finite() || mean <= 0.0 {
            return Err(format!(
                "benches[{i}] ({name}): mean_ns {mean} is not a positive finite time"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchRecord> {
        vec![
            BenchRecord {
                name: "adam/step/1048576".into(),
                mean_ns: 1.25e6,
                throughput: Some(("elements".into(), 1 << 20)),
            },
            BenchRecord {
                name: "codec \"fast\"".into(),
                mean_ns: 512.0,
                throughput: None,
            },
        ]
    }

    #[test]
    fn ndjson_roundtrips_into_valid_artifact() {
        let ndjson = "\
{\"name\":\"adam/step/1048576\",\"mean_ns\":1250000.0,\"throughput\":\"elements\",\"per_iter\":1048576}\n\
\n\
{\"name\":\"codec \\\"fast\\\"\",\"mean_ns\":512.0,\"throughput\":null,\"per_iter\":0}\n";
        let records = parse_ndjson(ndjson).expect("parse");
        assert_eq!(records, sample());
        let json = render_criterion_json(&records);
        validate_criterion_json(&json).expect("rendered artifact must validate");
    }

    #[test]
    fn torn_ndjson_is_rejected() {
        assert!(parse_ndjson("{\"name\":\"a\",\"mean_ns\":1.0}\n{\"name\":").is_err());
        assert!(parse_ndjson("{\"mean_ns\":1.0}").is_err(), "missing name");
        assert!(parse_ndjson("{\"name\":\"a\"}").is_err(), "missing mean_ns");
    }

    #[test]
    fn validator_rejects_broken_artifacts() {
        assert!(validate_criterion_json("{nope").is_err());
        assert!(validate_criterion_json("{}").is_err());
        // Empty sweep: nothing measured must never upload.
        let empty = render_criterion_json(&[]);
        assert!(validate_criterion_json(&empty).is_err());
        // Duplicate names mean the sweep double-counted a bench.
        let mut dup = sample();
        dup[1].name = dup[0].name.clone();
        assert!(validate_criterion_json(&render_criterion_json(&dup)).is_err());
        // Non-positive mean is a broken measurement.
        let mut zero = sample();
        zero[0].mean_ns = 0.0;
        assert!(validate_criterion_json(&render_criterion_json(&zero)).is_err());
    }
}
