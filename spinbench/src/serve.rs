//! `serve-mixed`: an in-process `Server` on loopback in the crash-safe
//! setup (worker pool, a durable checkpoint every iteration, resumable
//! queries, a spill threshold below the loops' working set), loaded
//! through two connections of one generator.
//!
//! Connection A runs a closed loop alternating k-means and PR-VS.
//! Connection B runs an open loop at a fixed rate: four point lookups per
//! single-row INSERT into a side table, each timed from when it was due.
//! In the traced run, A's queries run in-process under `EXPLAIN ANALYZE`
//! against the served `Database` while B's stream continues.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use spinner_common::{floats_approx_eq, Batch, DEFAULT_TOLERANCE};
use spinner_datagen::{
    load_normalized_edges_into, load_points_into, load_vertex_status_into, oracle, DatasetPreset,
    GraphSpec, PointsSpec,
};
use spinner_engine::{Database, EngineConfig};
use spinner_procedural::{kmeans_cte, pagerank};
use spinner_server::{Client, Server};

use crate::fold::grafted_counters;
use crate::measure::{ms, percentile, process_cpu_ms};
use crate::report::{Report, Samples};
use crate::short::{reply_rows, Rows, ShortMix};
use crate::trace::Traced;
use crate::{BenchResult, Run};

/// Iterations of each connection-A query.
const LOOP_ITERATIONS: u64 = 10;
const CLUSTERS: usize = 8;
/// Connection B's schedule, in statements per second: well below the
/// rate at which short statements saturate while connection A is busy.
const SHORT_RATE: u32 = 100;
/// Set-ups on each side of the measured window; the median of all is
/// reported as `setup_s`.
const SETUP_REPS: usize = 24;
/// Spill threshold in bytes, below the loops' working set.
const SPILL_THRESHOLD: u64 = 3584 * 1024;

/// The loaded database, served on loopback, and connections A and B.
struct Served {
    db: Arc<Database>,
    server: Server,
    a: Client,
    b: Client,
}

impl Served {
    fn start(config: EngineConfig, graph: &GraphSpec, points: &PointsSpec) -> BenchResult<Self> {
        let db = Arc::new(Database::new(config)?);
        load_normalized_edges_into(&db, "edges", graph)?;
        load_vertex_status_into(&db, "vertexstatus", graph, 0.8)?;
        load_points_into(&db, "points", points)?;
        db.execute("CREATE TABLE side (k INT, v INT)")?;
        let server = Server::start(Arc::clone(&db), "127.0.0.1:0")?;
        let a = Client::connect(server.local_addr())?;
        let b = Client::connect(server.local_addr())?;
        Ok(Served { db, server, a, b })
    }

    fn stop(self) {
        let _ = self.a.close();
        let _ = self.b.close();
        self.server.shutdown(Duration::from_secs(5));
    }
}

/// Set up `SETUP_REPS` times in a row, each time stopping the previous
/// set-up, and return the last. Each set-up's time is pushed to
/// `setup_s`. A run sets up before its window and again after it, so
/// that the median spans two moments of the host half a minute apart.
fn set_up(
    run: &Run,
    config: &EngineConfig,
    graph: &GraphSpec,
    points: &PointsSpec,
    phase: &str,
    setup_s: &mut Vec<f64>,
) -> BenchResult<Served> {
    let mut served: Option<Served> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = served.take() {
            previous.stop();
        }
        // Each set-up gets a spill directory of its own, so no engine
        // adopts or collects another's files.
        let dir = run.scratch.join(format!("setup-{phase}-{rep}"));
        let config = EngineConfig {
            spill_dir: Some(dir.display().to_string()),
            ..config.clone()
        };
        let t = Instant::now();
        served = Some(Served::start(config, graph, points)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(served.expect("SETUP_REPS is at least 1"))
}

fn batch_rows(batch: &Batch) -> Result<Rows, String> {
    batch
        .rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.as_f64().map_err(|e| e.to_string()))
                .collect()
        })
        .collect()
}

fn same_rows(got: &Rows, want: &Rows) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let equal = g.len() == w.len()
            && g.iter()
                .zip(w)
                .all(|(a, b)| floats_approx_eq(*a, *b, DEFAULT_TOLERANCE));
        if !equal {
            return Err(format!("row {i}: {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// Connection B's open loop: due times fixed in advance, each statement
/// sent when due (or as soon as the previous reply arrives, if later).
/// Returns the samples and how late each statement was sent.
fn open_loop(
    client: &mut Client,
    db: &Database,
    run: &Run,
    start: Instant,
    mix: &mut ShortMix,
) -> (Samples, Vec<f64>) {
    let period = Duration::from_secs(1) / SHORT_RATE;
    let mut samples = Samples::default();
    let mut lag_ms = Vec::new();
    for i in 0u32.. {
        let due = start + period * i;
        if due >= start + run.window() {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        lag_ms.push(ms(Instant::now().duration_since(due)));
        let traced = run.trace.then_some(db);
        mix.send(u64::from(i), due, 1, client, traced, &mut samples);
    }
    (samples, lag_ms)
}

pub fn serve_mixed(run: &Run) -> BenchResult<Report> {
    let graph = GraphSpec {
        seed: run.seed,
        ..DatasetPreset::Dblp.spec(0.01)
    };
    let points = PointsSpec {
        points: 2_000,
        clusters: CLUSTERS,
        seed: run.seed,
        spread: 8.0,
    };
    let config = EngineConfig {
        partitions: run.nproc,
        parallel_partitions: true,
        checkpoint_interval: 1,
        spill_threshold_bytes: Some(SPILL_THRESHOLD),
        resumable_queries: true,
        max_concurrent_queries: Some(8),
        ..run.base_config()
    };
    let mut setup_s = Vec::new();
    let Served {
        db,
        server,
        mut a,
        mut b,
    } = set_up(run, &config, &graph, &points, "before", &mut setup_s)?;
    println!(
        "tables: edges={} rows over {} nodes, vertexstatus={} rows, points={} in {} clusters, side=0 rows",
        graph.edges, graph.nodes, graph.nodes, points.points, points.clusters
    );
    println!("config: {:?}", db.config());
    println!("connection B: {SHORT_RATE} statements/s, 4 lookups per INSERT");

    let kmeans_sql = kmeans_cte(CLUSTERS, LOOP_ITERATIONS);
    let prvs_sql = pagerank(LOOP_ITERATIONS, true).cte;
    let kmeans_want: Rows = oracle::kmeans(&points.generate(), CLUSTERS, LOOP_ITERATIONS)
        .into_iter()
        .map(|(cid, x, y)| vec![cid as f64, x, y])
        .collect();
    // PR-VS's reference is the same query in-process on the idle engine.
    let prvs_want = batch_rows(&db.query(&prvs_sql)?)?;
    let loops = [(kmeans_sql, kmeans_want), (prvs_sql, prvs_want)];
    let mut mix = ShortMix::new(run.seed, graph.nodes, &graph.generate_normalized());

    // Warm-up through connection A, outside the window.
    for (sql, want) in &loops {
        same_rows(&reply_rows(a.query(sql)?)?, want).map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut traced = Traced::default();
    let mut alone = [[0u64; 3]; 2];
    let mut overhead_us = 0.0;
    if run.trace {
        for (counters, (sql, _)) in alone.iter_mut().zip(&loops) {
            *counters = grafted_counters(&db.explain_analyze(sql)?);
        }
        overhead_us = mix.server_overhead_us(&mut a, &db)?;
    }

    let mut samples = Samples::default();
    let cpu_start = process_cpu_ms()?;
    let start = Instant::now();
    let generator = thread::scope(|s| {
        let gen = s.spawn(|| open_loop(&mut b, &db, run, start, &mut mix));
        let mut turn = 0usize;
        while samples.attempted == 0 || start.elapsed() < run.window() {
            let (sql, want) = &loops[turn % 2];
            let t = Instant::now();
            let got = if run.trace {
                db.query(sql)
                    .map_err(|e| e.to_string())
                    .and_then(|b| batch_rows(&b))
            } else {
                a.query(sql).map_err(|e| e.to_string()).and_then(reply_rows)
            };
            let elapsed = ms(t.elapsed());
            if samples
                .record(got.and_then(|rows| same_rows(&rows, want)))
                .is_some()
            {
                if run.trace {
                    traced.untraced_ms.push(elapsed);
                } else {
                    samples.push_query(turn % 2, elapsed, LOOP_ITERATIONS as f64);
                }
            }
            if run.trace {
                let profiled = traced.profile(&db, sql, alone[turn % 2]);
                samples.record(profiled);
            }
            turn += 1;
        }
        gen.join().expect("generator thread panicked")
    });
    let cpu_ms = process_cpu_ms()? - cpu_start;
    let (short_samples, lag_ms) = generator;
    samples.absorb(short_samples);
    let counts_match = mix.inserts_kept(&mut a)?;
    Served { db, server, a, b }.stop();
    set_up(run, &config, &graph, &points, "after", &mut setup_s)?.stop();

    let lag_ms_p99 = percentile(&lag_ms, 99.0);
    if run.trace {
        traced.short_compile_us.extend(mix.compile_us);
        let metrics = traced.metrics(overhead_us, lag_ms_p99);
        return Ok(samples.report(counts_match, metrics));
    }
    println!("generator lag p99: {lag_ms_p99} ms");
    let metrics = samples.end_to_end(&setup_s, cpu_ms)?;
    Ok(samples.report(counts_match, metrics))
}
