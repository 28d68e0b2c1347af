//! `kernel_bench` — the machine-checkable kernel perf trajectory.
//!
//! Measures GFLOP/s for the three GEMM entry points at 512³ (threads 1
//! and 4), fp16 slice-codec GB/s against the scalar baseline on a 16 MiB
//! buffer, and `CpuAdam` element throughput, and stamps the result with
//! the deterministic trajectory fingerprint so every perf artifact also
//! records which numerics produced it.
//!
//! ```text
//! kernel_bench [--json PATH] [--assert PATH] [--quick]
//! ```
//!
//! * `--json PATH` — run the benchmarks and write `BENCH_kernels.json`.
//! * `--assert PATH` — do **not** run benchmarks; re-parse a previously
//!   emitted artifact through `zo_trace::json` and fail unless every
//!   throughput field is finite and > 0. CI runs the emit step and then
//!   the assert step, so a silently-empty artifact can never upload.
//! * `--quick` — smoke-test sizes (seconds instead of minutes), for
//!   interactive use.

use std::process::ExitCode;

use zo_bench::kernels::{run_kernel_bench, validate_kernel_json};

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut assert_path: Option<String> = None;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json requires an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--assert" => match it.next() {
                Some(p) => assert_path = Some(p),
                None => {
                    eprintln!("--assert requires an input path");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => quick = true,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: kernel_bench [--json PATH] [--assert PATH] [--quick]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = assert_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_kernel_json(&text) {
            Ok(()) => {
                println!("kernel_bench: {path} OK");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("kernel_bench: {path} FAILED: {why}");
                ExitCode::FAILURE
            }
        };
    }

    let report = run_kernel_bench(quick);
    print!("{}", report.render_table());
    if let Some(path) = json_path {
        let body = report.render_json();
        // Self-check before writing: the emitter must never produce an
        // artifact its own validator rejects.
        if let Err(why) = validate_kernel_json(&body) {
            eprintln!("kernel_bench: refusing to write invalid artifact: {why}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
