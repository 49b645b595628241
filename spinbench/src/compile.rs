//! Benchmark-side spans around the compile layers' public entry points:
//! `parse_sql`, `plan_statement`, `optimize_statement` and
//! `create_physical_plan`, called on a statement's text the way
//! `Database::execute` calls them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use spinner_common::SchemaRef;
use spinner_engine::Database;
use spinner_plan::builder::SchemaProvider;
use spinner_plan::{PlannedStatement, Step};
use spinner_storage::Catalog;

use crate::measure::ms;

/// Table schemas straight from the database's catalog.
struct CatalogSchemas<'a>(&'a Catalog);

impl SchemaProvider for CatalogSchemas<'_> {
    fn table_schema(&self, name: &str) -> Option<SchemaRef> {
        self.0.get(name).ok().map(|t| Arc::clone(t.schema()))
    }

    fn table_primary_key(&self, name: &str) -> Option<usize> {
        self.0.get(name).ok().and_then(|t| t.primary_key())
    }
}

/// Compile-layer times of one statement, in microseconds.
#[derive(Default)]
pub struct CompileSpans {
    pub parse_us: f64,
    pub plan_us: f64,
    pub optimize_us: f64,
    /// Physical planning of every plan fragment once.
    pub physical_us: f64,
    /// Physical planning of the fragments a loop body re-plans each
    /// iteration.
    pub replan_us: f64,
}

impl CompileSpans {
    pub fn total_us(&self) -> f64 {
        self.parse_us + self.plan_us + self.optimize_us + self.physical_us
    }
}

/// Time each compile layer on `sql` against `db`'s catalog and config.
pub fn compile(db: &Database, sql: &str) -> Result<CompileSpans, spinner_engine::Error> {
    let us = |t: Instant| ms(t.elapsed()) * 1e3;
    let config = db.config();
    let t = Instant::now();
    let stmt = spinner_parser::parse_sql(black_box(sql))?;
    let parse_us = us(t);
    let t = Instant::now();
    let planned = spinner_plan::plan_statement(&stmt, &CatalogSchemas(db.catalog()), config)?;
    let plan_us = us(t);
    let t = Instant::now();
    let optimized = spinner_optimizer::optimize_statement(planned, config)?;
    let optimize_us = us(t);
    let (mut physical_us, mut replan_us) = (0.0, 0.0);
    if let PlannedStatement::Query(plan) = &optimized {
        let t = Instant::now();
        black_box(spinner_exec::create_physical_plan(&plan.root, config)?);
        physical_us += us(t);
        for step in &plan.steps {
            let (once, per_iter) = physical_steps(step, config, false)?;
            physical_us += once;
            replan_us += per_iter;
        }
    }
    Ok(CompileSpans {
        parse_us,
        plan_us,
        optimize_us,
        physical_us,
        replan_us,
    })
}

/// Physical-planning time of the fragments under `step`: all of them
/// once, and the part inside loop bodies.
fn physical_steps(
    step: &Step,
    config: &spinner_engine::EngineConfig,
    in_loop: bool,
) -> Result<(f64, f64), spinner_engine::Error> {
    match step {
        Step::Materialize { plan, .. } => {
            let t = Instant::now();
            black_box(spinner_exec::create_physical_plan(plan, config)?);
            let us = ms(t.elapsed()) * 1e3;
            Ok((us, if in_loop { us } else { 0.0 }))
        }
        Step::Loop(body) => body.body.iter().try_fold((0.0, 0.0), |acc, s| {
            let (once, per_iter) = physical_steps(s, config, true)?;
            Ok((acc.0 + once, acc.1 + per_iter))
        }),
        Step::Rename { .. } | Step::Merge { .. } => Ok((0.0, 0.0)),
    }
}
