//! Folds the profiles `Database::explain_analyze` returns into self time
//! and counts per layer.
//!
//! A span's self time is its elapsed time minus its children's. Spans are
//! tagged by label prefix; the self time of an untagged span, and the part
//! of the statement's wall time outside every top-level span, is reported
//! as unattributed, so every microsecond of `total_elapsed_us` lands in
//! exactly one bucket.

use spinner_common::SpanKind;
use spinner_engine::{ProfileNode, QueryProfile};

use crate::measure::{median, ratio};
use crate::report::Metric;

#[derive(Clone, Copy)]
enum Layer {
    Scan,
    Exchange,
    Join,
    AggPartial,
    AggFinal,
    Project,
    Filter,
    Sort,
    Union,
    Materialize,
    Merge,
    Rename,
    Loop,
}

const LAYERS: usize = Layer::Loop as usize + 1;

/// Label prefixes of the operator and step spans, and their layer.
const TAGS: [(&str, Layer); 15] = [
    ("SeqScan", Layer::Scan),
    ("TempScan", Layer::Scan),
    ("Exchange", Layer::Exchange),
    ("HashJoin", Layer::Join),
    ("NestedLoopJoin", Layer::Join),
    ("AggregatePartial", Layer::AggPartial),
    ("AggregateFinal", Layer::AggFinal),
    ("HashAggregate", Layer::AggFinal),
    ("Project", Layer::Project),
    ("Filter", Layer::Filter),
    ("Sort", Layer::Sort),
    ("Union", Layer::Union),
    ("Materialize", Layer::Materialize),
    ("Merge", Layer::Merge),
    ("Rename", Layer::Rename),
];

fn tag(node: &ProfileNode) -> Option<Layer> {
    if node.kind == SpanKind::Loop {
        return Some(Layer::Loop);
    }
    TAGS.iter()
        .find(|(prefix, _)| node.label.starts_with(prefix))
        .map(|&(_, layer)| layer)
}

/// Layer totals summed over the profiles of one run.
#[derive(Default)]
pub struct LayerTotals {
    queries: u64,
    self_us: [i64; LAYERS],
    unattributed_us: i64,
    total_us: u64,
    scan_rows: u64,
    exchange_rows_in: u64,
    exchange_rows_moved: u64,
    exchange_idle_execs: u64,
    join_rows_out: u64,
    agg_partial_rows_in: u64,
    agg_partial_groups_out: u64,
    merge_rows_examined: u64,
    rows_updated: u64,
    iterations: u64,
    late_delta_rows: u64,
    first_iter_us: u64,
    late_iter_us: f64,
    semi_naive_loops: u64,
    pool_tasks: u64,
    threads_spawned: u64,
    join_builds: u64,
    join_reused: u64,
    spill_events: u64,
    spill_written: u64,
    spill_read: u64,
    peak_tracked_bytes: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    fsyncs: u64,
    admission_wait_ms: u64,
    admission_peak_queue: u64,
    admission_shed: u64,
}

impl LayerTotals {
    /// Fold one profile in, checking that tagged self times plus the
    /// unattributed time add up to the statement's wall time.
    pub fn add(&mut self, profile: &QueryProfile) -> Result<(), String> {
        let before: i64 = self.self_us.iter().sum::<i64>() + self.unattributed_us;
        let roots_us: u64 = profile.roots.iter().map(|r| r.elapsed_us).sum();
        self.unattributed_us += profile.total_elapsed_us as i64 - roots_us as i64;
        for root in &profile.roots {
            self.walk(root);
        }
        let after: i64 = self.self_us.iter().sum::<i64>() + self.unattributed_us;
        if after - before != profile.total_elapsed_us as i64 {
            return Err(format!(
                "profile fold lost time: layers sum to {} us of {} us",
                after - before,
                profile.total_elapsed_us
            ));
        }
        self.queries += 1;
        self.total_us += profile.total_elapsed_us;
        self.pool_tasks += profile.pool.pool_tasks;
        self.threads_spawned += profile.pool.threads_spawned;
        self.join_builds += profile.pool.join_builds;
        self.join_reused += profile.pool.join_builds_reused;
        self.spill_events += profile.spill.events;
        self.spill_written += profile.spill.bytes_written;
        self.spill_read += profile.spill.bytes_read;
        self.peak_tracked_bytes = self
            .peak_tracked_bytes
            .max(profile.spill.peak_tracked_bytes);
        self.fsyncs += profile.durability.refsync;
        self.admission_wait_ms += profile.admission.waited_ms;
        self.admission_peak_queue = self.admission_peak_queue.max(profile.admission.queue_depth);
        self.admission_shed = self.admission_shed.max(profile.admission.shed);
        Ok(())
    }

    fn walk(&mut self, node: &ProfileNode) {
        let children_us: u64 = node.children.iter().map(|c| c.elapsed_us).sum();
        let children_rows: u64 = node.children.iter().map(|c| c.rows_out).sum();
        let self_us = node.elapsed_us as i64 - children_us as i64;
        let layer = tag(node);
        match layer {
            Some(layer) => self.self_us[layer as usize] += self_us,
            None => self.unattributed_us += self_us,
        }
        match layer {
            Some(Layer::Scan) => self.scan_rows += node.rows_out,
            Some(Layer::Exchange) => {
                self.exchange_rows_in += children_rows;
                self.exchange_rows_moved += node.rows_moved;
                // Counts are summed over executions, so only a span that
                // never moved a row can be charged with idle executions.
                if node.rows_moved == 0 && children_rows > 0 {
                    self.exchange_idle_execs += node.execs;
                }
            }
            Some(Layer::Join) => self.join_rows_out += node.rows_out,
            Some(Layer::AggPartial) => {
                self.agg_partial_rows_in += children_rows;
                self.agg_partial_groups_out += node.rows_out;
            }
            Some(Layer::Merge) => self.merge_rows_examined += node.rows_out,
            Some(Layer::Loop) => self.add_loop(node),
            _ => {}
        }
        for child in &node.children {
            self.walk(child);
        }
    }

    fn add_loop(&mut self, node: &ProfileNode) {
        let its = &node.iterations;
        self.iterations += its.len() as u64;
        self.rows_updated += its.iter().map(|i| i.rows_updated).sum::<u64>();
        self.checkpoints += node.recovery.checkpoints_taken;
        self.checkpoint_bytes += node.recovery.bytes_snapshotted;
        if node.iteration_mode.is_some_and(|m| m.semi_naive) {
            self.semi_naive_loops += 1;
        }
        if let Some(first) = its.first() {
            self.first_iter_us += first.elapsed_us;
        }
        let late = &its[its.len().saturating_sub(3)..];
        self.late_delta_rows += late.iter().map(|i| i.delta_rows).max().unwrap_or(0);
        let late_us: Vec<f64> = late.iter().map(|i| i.elapsed_us as f64).collect();
        self.late_iter_us += median(&late_us);
    }

    /// Number of profiles folded in.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Whether every folded loop ran semi-naive.
    pub fn all_semi_naive(&self) -> bool {
        self.queries > 0 && self.semi_naive_loops == self.queries
    }

    /// Per-query means (and ratios of totals) of every layer metric.
    pub fn metrics(&self) -> Vec<Metric> {
        let q = self.queries.max(1) as f64;
        let per_q = |v: f64| v / q;
        let self_ms = |l: Layer| per_q(self.self_us[l as usize] as f64 / 1e3);
        let hot_us: i64 = [
            Layer::Exchange,
            Layer::Join,
            Layer::AggPartial,
            Layer::AggFinal,
        ]
        .iter()
        .map(|&l| self.self_us[l as usize])
        .sum();
        let iters = self.iterations as f64;
        vec![
            Metric::new("scan.self_ms", self_ms(Layer::Scan), "ms"),
            Metric::new("scan.rows", per_q(self.scan_rows as f64), "rows"),
            Metric::new("exchange.self_ms", self_ms(Layer::Exchange), "ms"),
            Metric::new(
                "exchange.rows_in",
                per_q(self.exchange_rows_in as f64),
                "rows",
            ),
            Metric::new(
                "exchange.rows_moved",
                per_q(self.exchange_rows_moved as f64),
                "rows",
            ),
            Metric::new(
                "exchange.moved_frac",
                ratio(
                    self.exchange_rows_moved as f64,
                    self.exchange_rows_in as f64,
                ),
                "fraction",
            ),
            Metric::new(
                "exchange.idle_execs",
                per_q(self.exchange_idle_execs as f64),
                "count",
            ),
            Metric::new("join.self_ms", self_ms(Layer::Join), "ms"),
            Metric::new("join.rows_out", per_q(self.join_rows_out as f64), "rows"),
            Metric::new("agg_partial.self_ms", self_ms(Layer::AggPartial), "ms"),
            Metric::new(
                "agg_partial.rows_in",
                per_q(self.agg_partial_rows_in as f64),
                "rows",
            ),
            Metric::new(
                "agg_partial.groups_out",
                per_q(self.agg_partial_groups_out as f64),
                "rows",
            ),
            Metric::new("agg_final.self_ms", self_ms(Layer::AggFinal), "ms"),
            Metric::new("project.self_ms", self_ms(Layer::Project), "ms"),
            Metric::new("filter.self_ms", self_ms(Layer::Filter), "ms"),
            Metric::new("sort.self_ms", self_ms(Layer::Sort), "ms"),
            Metric::new("union.self_ms", self_ms(Layer::Union), "ms"),
            Metric::new(
                "hot_path.self_frac",
                ratio(hot_us as f64, self.total_us as f64),
                "fraction",
            ),
            Metric::new("materialize.self_ms", self_ms(Layer::Materialize), "ms"),
            Metric::new("rename.self_ms", self_ms(Layer::Rename), "ms"),
            Metric::new("merge.self_ms", self_ms(Layer::Merge), "ms"),
            Metric::new(
                "merge.rows_examined",
                per_q(self.merge_rows_examined as f64),
                "rows",
            ),
            Metric::new(
                "merge.useful_frac",
                ratio(self.rows_updated as f64, self.merge_rows_examined as f64),
                "fraction",
            ),
            Metric::new(
                "loop.self_ms_per_iter",
                ratio(self.self_us[Layer::Loop as usize] as f64 / 1e3, iters),
                "ms",
            ),
            Metric::new("loop.iterations", per_q(iters), "count"),
            Metric::new(
                "loop.delta_rows",
                per_q(self.late_delta_rows as f64),
                "rows",
            ),
            Metric::new(
                "loop.first_iter_ms",
                per_q(self.first_iter_us as f64 / 1e3),
                "ms",
            ),
            Metric::new("loop.late_iter_ms", per_q(self.late_iter_us / 1e3), "ms"),
            Metric::new("pool.tasks", per_q(self.pool_tasks as f64), "count"),
            Metric::new(
                "pool.tasks_per_iter",
                ratio(self.pool_tasks as f64, iters),
                "count",
            ),
            Metric::new(
                "pool.threads_spawned",
                per_q(self.threads_spawned as f64),
                "count",
            ),
            Metric::new("join_cache.builds", per_q(self.join_builds as f64), "count"),
            Metric::new("join_cache.reused", per_q(self.join_reused as f64), "count"),
            Metric::new(
                "join_cache.hit_frac",
                ratio(
                    self.join_reused as f64,
                    (self.join_builds + self.join_reused) as f64,
                ),
                "fraction",
            ),
            Metric::new("spill.events", per_q(self.spill_events as f64), "count"),
            Metric::new(
                "spill.bytes_written",
                per_q(self.spill_written as f64),
                "bytes",
            ),
            Metric::new("spill.bytes_read", per_q(self.spill_read as f64), "bytes"),
            Metric::new("checkpoint.count", per_q(self.checkpoints as f64), "count"),
            Metric::new(
                "checkpoint.bytes",
                per_q(self.checkpoint_bytes as f64),
                "bytes",
            ),
            Metric::new("durability.fsyncs", per_q(self.fsyncs as f64), "count"),
            Metric::new(
                "durability.fsyncs_per_iter",
                ratio(self.fsyncs as f64, iters),
                "count",
            ),
            Metric::new(
                "memory.peak_tracked_mb",
                self.peak_tracked_bytes as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
            Metric::new(
                "admission.wait_ms",
                per_q(self.admission_wait_ms as f64),
                "ms",
            ),
            Metric::new(
                "admission.peak_queue",
                self.admission_peak_queue as f64,
                "count",
            ),
            Metric::new("admission.shed", self.admission_shed as f64, "count"),
            Metric::new(
                "trace.unattributed_ms",
                per_q(self.unattributed_us as f64 / 1e3),
                "ms",
            ),
        ]
    }
}

/// The counters the engine grafts onto a statement's profile from
/// engine-wide state: worker-pool tasks, spill events and admission
/// queueing.
pub fn grafted_counters(profile: &QueryProfile) -> [u64; 3] {
    [
        profile.pool.pool_tasks,
        profile.spill.events,
        profile.admission.queue_depth,
    ]
}
