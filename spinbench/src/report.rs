//! The result every run prints: metrics by name with units, then one
//! JSON object as the last line of standard output.

use std::collections::BTreeMap;

use crate::measure::{mean, median, peak_rss_mb, percentile};

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Outcome of one run.
pub struct Report {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations that failed, were shed or returned a wrong result.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Print each metric on its own line, the error rate, and the JSON
    /// result line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<28} {} {}", m.name, m.value, m.unit);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<28} {rate} fraction ({} failed of {} attempted)",
            "error_rate", self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// One iterative query of the measured window.
pub struct Query {
    /// Which of the workload's iterative queries it was.
    pub kind: usize,
    /// Wall time.
    pub ms: f64,
    /// Wall time over the iteration count.
    pub per_iter_ms: f64,
}

/// Mean over query kinds of the `p`th percentile of `value` within each
/// kind: a percentile of kinds of different cost pooled would sit in the
/// gap between them and jump across it from run to run.
fn per_kind(queries: &[Query], value: fn(&Query) -> f64, p: f64) -> f64 {
    let mut kinds: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for q in queries {
        kinds.entry(q.kind).or_default().push(value(q));
    }
    let sum: f64 = kinds.values().map(|v| percentile(v, p)).sum();
    sum / kinds.len().max(1) as f64
}

/// What the measured window of a run observed.
#[derive(Default)]
pub struct Samples {
    /// Each iterative query.
    pub queries: Vec<Query>,
    /// Point-lookup latency, from when the lookup was due.
    pub short_ms: Vec<f64>,
    /// INSERT latency, from when the INSERT was due.
    pub insert_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, kept for the log.
    pub first_failure: Option<String>,
}

impl Samples {
    /// Count one operation; a failure or wrong result counts as failed.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }

    /// Record an iterative query of kind `kind` that took `ms` over
    /// `iterations` iterations.
    pub fn push_query(&mut self, kind: usize, ms: f64, iterations: f64) {
        self.queries.push(Query {
            kind,
            ms,
            per_iter_ms: ms / iterations,
        });
    }

    /// Fold another stream's samples into these.
    pub fn absorb(&mut self, other: Samples) {
        self.queries.extend(other.queries);
        self.short_ms.extend(other.short_ms);
        self.insert_ms.extend(other.insert_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(e) = other.first_failure {
            self.first_failure.get_or_insert(e);
        }
    }

    /// The end-to-end metrics, given the set-up times and the process CPU
    /// time charged to the iterative queries.
    pub fn end_to_end(&self, setup_s: &[f64], cpu_ms: f64) -> Result<Vec<Metric>, String> {
        println!("setup_s of each set-up: {setup_s:?}");
        println!(
            "samples: queries={} short={} inserts={}",
            self.queries.len(),
            self.short_ms.len(),
            self.insert_ms.len()
        );
        Ok(vec![
            Metric::new("setup_s", median(setup_s), "s"),
            Metric::new(
                "query_ms_p50",
                per_kind(&self.queries, |q| q.ms, 50.0),
                "ms",
            ),
            Metric::new(
                "query_ms_p90",
                per_kind(&self.queries, |q| q.ms, 90.0),
                "ms",
            ),
            Metric::new(
                "ms_per_iter",
                per_kind(&self.queries, |q| q.per_iter_ms, 50.0),
                "ms",
            ),
            Metric::new(
                "cpu_ms_per_query",
                cpu_ms / self.queries.len().max(1) as f64,
                "ms",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
            // The mean, not the median: served lookups wait for the server's
            // handle poller, which sleeps in 2 ms steps, so their latencies
            // bunch a tick apart and a median jumps a whole tick when the
            // share of lookups that outlast the first tick crosses a half.
            // The mean moves with that share.
            Metric::new("short_ms_mean", mean(&self.short_ms), "ms"),
            Metric::new("short_ms_p99", percentile(&self.short_ms, 99.0), "ms"),
            // The 25th percentile, not the median: INSERTs fall into a fast
            // and a slow mode whose shares change from run to run (served
            // ones wait up to 2 ms for the server's handle poller or not at
            // all; in-process ones slow down by half in the host's slow
            // spells), so any percentile from the median up flips between
            // the modes.
            Metric::new("insert_ms_p25", percentile(&self.insert_ms, 25.0), "ms"),
        ])
    }

    /// The run's report: correct when nothing failed and `checks_hold`.
    pub fn report(&self, checks_hold: bool, metrics: Vec<Metric>) -> Report {
        if let Some(e) = &self.first_failure {
            eprintln!("first failure: {e}");
        }
        Report {
            correct: checks_hold && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}
