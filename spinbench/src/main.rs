//! `spinbench` — the DBSpinner engine's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path spinbench/Cargo.toml -- \
//!     --workload <pagerank|sssp-delta|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the engine only
//! through its public API (`Database`, `Server`, `Client`), checks every
//! result against a reference, and prints each metric by name with its
//! unit. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run that adds the per-layer metrics, from
//! benchmark-side spans around each compile layer and from a fold of the
//! `EXPLAIN ANALYZE` profile. The last line of standard output is one
//! JSON object; the exit code is non-zero on any wrong result.

mod compile;
mod fold;
mod measure;
mod report;
mod serve;
mod short;
mod single;
mod trace;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spinner_engine::EngineConfig;

use report::Report;

pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// One run's arguments and its scratch directory.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub scratch: PathBuf,
}

impl Run {
    /// The measured window.
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_secs(self.seconds)
    }

    /// Every `EngineConfig` field the numbers depend on, set explicitly:
    /// `EngineConfig::default()` reads spill settings from the
    /// environment. Spill files, if any, go to the run's scratch
    /// directory. Workloads override fields with struct update syntax.
    pub fn base_config(&self) -> EngineConfig {
        EngineConfig {
            partitions: 1,
            minimize_data_movement: true,
            common_result_optimization: true,
            predicate_pushdown: true,
            semi_naive: true,
            general_rewrites: true,
            two_phase_aggregation: true,
            parallel_partitions: false,
            max_iterations: 10_000,
            query_timeout_ms: None,
            max_rows_materialized: None,
            max_rows_moved: None,
            max_intermediate_bytes: None,
            faults: Vec::new(),
            checkpoint_interval: 0,
            max_partition_retries: 0,
            retry_backoff_ms: 0,
            max_loop_recoveries: 0,
            spill_threshold_bytes: None,
            spill_dir: Some(self.scratch.display().to_string()),
            durable_spill: true,
            worker_pool: true,
            join_state_cache: true,
            max_concurrent_queries: None,
            admission_queue_limit: 16,
            admission_timeout_ms: None,
            admission_batch_timeout_ms: None,
            pool_stall_timeout_ms: 60_000,
            session_keepalive_ms: 300_000,
            resumable_queries: false,
        }
    }
}

/// Removes the run's scratch directory (spill files, checkpoints,
/// journals) when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn parse_args() -> Result<(String, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((workload, number("--seed")?, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("spinbench: {msg}");
            eprintln!(
                "usage: spinbench --workload <pagerank|sssp-delta|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("spinbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = ScratchDir(scratch.clone());
    let run = Run {
        seed,
        seconds,
        trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch,
    };
    println!(
        "workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {}  nproc: {}",
        u8::from(trace),
        run.nproc
    );
    let result: BenchResult<Report> = match workload.as_str() {
        "pagerank" => single::pagerank(&run),
        "sssp-delta" => single::sssp_delta(&run),
        "serve-mixed" => serve::serve_mixed(&run),
        other => Err(format!("unknown workload '{other}'").into()),
    };
    match result {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("spinbench: {e}");
            ExitCode::FAILURE
        }
    }
}
