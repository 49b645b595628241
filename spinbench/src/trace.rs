//! The traced run: profiles of the iterative queries, compile spans of
//! every statement issued, and the per-layer metrics built from them.

use std::time::Instant;

use spinner_engine::Database;

use crate::compile::{compile, CompileSpans};
use crate::fold::{grafted_counters, LayerTotals};
use crate::measure::{median, ms, ratio};
use crate::report::Metric;

#[derive(Default)]
pub struct Traced {
    compile: Vec<CompileSpans>,
    /// Compile-layer time of each short statement.
    pub short_compile_us: Vec<f64>,
    layers: LayerTotals,
    cross_talk: Vec<f64>,
    /// Wall time of the untraced queries interleaved with the traced ones.
    pub untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

impl Traced {
    /// Run `sql` under `EXPLAIN ANALYZE`, fold its profile, and time its
    /// compile layers. `alone` holds the grafted counters the same
    /// statement reported with nothing else running.
    pub fn profile(&mut self, db: &Database, sql: &str, alone: [u64; 3]) -> Result<(), String> {
        let t = Instant::now();
        let profile = db.explain_analyze(sql).map_err(|e| e.to_string())?;
        self.traced_ms.push(ms(t.elapsed()));
        self.layers.add(&profile)?;
        let drift: u64 = grafted_counters(&profile)
            .iter()
            .zip(alone)
            .map(|(now, then)| now.abs_diff(then))
            .sum();
        self.cross_talk.push(drift as f64);
        self.compile
            .push(compile(db, sql).map_err(|e| e.to_string())?);
        Ok(())
    }

    /// Whether every profiled loop ran semi-naive.
    pub fn all_semi_naive(&self) -> bool {
        self.layers.all_semi_naive()
    }

    /// The per-layer metrics. `server_overhead_us` and `lag_ms_p99` come
    /// from the server probe and the open-loop generator, 0 where the
    /// workload has neither.
    pub fn metrics(&self, server_overhead_us: f64, lag_ms_p99: f64) -> Vec<Metric> {
        let spans = |f: fn(&CompileSpans) -> f64| -> f64 {
            median(&self.compile.iter().map(f).collect::<Vec<_>>())
        };
        println!(
            "traced: queries={} untraced={} short statements compiled={}",
            self.layers.queries(),
            self.untraced_ms.len(),
            self.short_compile_us.len()
        );
        let mut metrics = vec![
            Metric::new("parser.parse_us", spans(|s| s.parse_us), "us"),
            Metric::new("plan.plan_us", spans(|s| s.plan_us), "us"),
            Metric::new("optimizer.optimize_us", spans(|s| s.optimize_us), "us"),
            Metric::new("physical.plan_us", spans(|s| s.physical_us), "us"),
            Metric::new("physical.replan_us_per_iter", spans(|s| s.replan_us), "us"),
            Metric::new("short.compile_us", median(&self.short_compile_us), "us"),
        ];
        metrics.extend(self.layers.metrics());
        let cross_talk = self.cross_talk.iter().sum::<f64>();
        metrics.extend([
            Metric::new(
                "stats.cross_talk",
                ratio(cross_talk, self.cross_talk.len() as f64),
                "count",
            ),
            Metric::new("server.overhead_us", server_overhead_us, "us"),
            Metric::new("gen.lag_ms_p99", lag_ms_p99, "ms"),
            Metric::new(
                "trace.overhead_frac",
                ratio(median(&self.traced_ms), median(&self.untraced_ms)) - 1.0,
                "fraction",
            ),
        ]);
        metrics
    }
}
