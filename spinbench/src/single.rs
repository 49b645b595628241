//! `pagerank` and `sssp-delta`: one session drives `Database` in a
//! closed loop. After each iterative query the session also runs the
//! `serve-mixed` short-statement mix in-process, so the short-statement
//! metrics read the idle engine's compile-and-execute latency.

use std::time::Instant;

use spinner_common::{floats_approx_eq, Batch, Row, DEFAULT_TOLERANCE};
use spinner_datagen::{
    load_edges_into, load_normalized_edges_into, oracle, DatasetPreset, GraphSpec,
};
use spinner_engine::{Database, EngineConfig};
use spinner_procedural::{pagerank as pagerank_sql, sssp_convergent};

use crate::fold::grafted_counters;
use crate::measure::{median, ms, process_cpu_ms};
use crate::report::{Report, Samples};
use crate::short::ShortMix;
use crate::trace::Traced;
use crate::{BenchResult, Run};

/// Iterations of the fig8 PageRank query.
const PR_ITERATIONS: u64 = 25;
/// Graphs per run. The loop takes turns over several graphs made from
/// the seed, so a run's figures do not hang on one graph's shape (on
/// `sssp-delta` the iteration count alone ranges from 19 to 23).
const GRAPHS: u64 = 4;
/// Short statements after each iterative query: 40 lookups, 10 INSERTs.
const SHORT_PER_QUERY: u64 = 50;
/// Each short statement runs this many times in a row and the fastest
/// counts: the first run after a large query pays for refilling caches
/// and faulting memory back in, which varies from run to run far more
/// than the statement's own cost.
const SHORT_TRIES: usize = 3;

/// Set-ups timed after each iterative query, of the graph just queried.
/// Spread over the whole window, their median covers the host's fast and
/// slow spells in the same shares as the other metrics; set-ups made
/// back to back take a few hundred milliseconds and can all fall in one
/// spell, and the host runs them up to 1.7 times slower in some.
const SETUPS_PER_TURN: usize = 2;

/// A checker of one iterative query's result rows.
type Check = Box<dyn Fn(&Batch) -> Result<(), String>>;

/// One generated graph and the check of the iterative query on it.
struct Graph {
    spec: GraphSpec,
    /// PageRank's `1/out_degree` weights instead of distances.
    normalized: bool,
    edges: Vec<Row>,
    check: Check,
}

fn pagerank_graph(seed: u64) -> Graph {
    let spec = GraphSpec {
        seed,
        ..DatasetPreset::Dblp.spec(0.01)
    };
    let edges = spec.generate_normalized();
    let expected = oracle::pagerank_delta(&edges, PR_ITERATIONS);
    let check: Check = Box::new(move |batch| {
        compare(batch, expected.len(), |node, rank| {
            let want = expected.get(&node).copied().unwrap_or(f64::NAN);
            floats_approx_eq(rank, want, DEFAULT_TOLERANCE)
                .then_some(())
                .ok_or(format!("rank {rank}, oracle {want}"))
        })
    });
    Graph {
        spec,
        normalized: true,
        edges,
        check,
    }
}

fn sssp_graph(seed: u64) -> Graph {
    let spec = GraphSpec {
        seed,
        ..DatasetPreset::Dblp.spec(0.05)
    };
    let dist = oracle::dijkstra(&spec, 1);
    let check: Check = Box::new(move |batch| {
        compare(batch, dist.len() - 1, |node, d| {
            let want = dist
                .get(node as usize)
                .copied()
                .flatten()
                .unwrap_or(9_999_999.0);
            (d == want)
                .then_some(())
                .ok_or(format!("distance {d}, dijkstra {want}"))
        })
    });
    Graph {
        spec,
        normalized: false,
        edges: spec.generate(),
        check,
    }
}

pub fn pagerank(run: &Run) -> BenchResult<Report> {
    Session {
        config: EngineConfig {
            partitions: 8,
            // Partitions run on the worker pool. Run serially, on a
            // shared 2-vCPU host, the same query read 485 to 902 ms in
            // runs minutes apart, against 538 to 582 ms with the pool.
            parallel_partitions: true,
            ..run.base_config()
        },
        sql: pagerank_sql(PR_ITERATIONS, false).cte,
        semi_naive: false,
        graph: pagerank_graph,
    }
    .run(run)
}

pub fn sssp_delta(run: &Run) -> BenchResult<Report> {
    Session {
        config: EngineConfig {
            partitions: run.nproc,
            parallel_partitions: true,
            ..run.base_config()
        },
        sql: sssp_convergent(1, None).cte,
        semi_naive: true,
        graph: sssp_graph,
    }
    .run(run)
}

/// Check `(node, value)` rows, ordered by node, against a reference.
fn compare(
    batch: &Batch,
    nodes: usize,
    ok: impl Fn(i64, f64) -> Result<(), String>,
) -> Result<(), String> {
    if batch.len() != nodes {
        return Err(format!("{} rows, expected {nodes}", batch.len()));
    }
    for row in batch.rows() {
        let node = row[0].as_i64().map_err(|e| e.to_string())?;
        let value = row[1].as_f64().map_err(|e| e.to_string())?;
        ok(node, value).map_err(|e| format!("node {node}: {e}"))?;
    }
    Ok(())
}

struct Session {
    config: EngineConfig,
    sql: String,
    semi_naive: bool,
    graph: fn(u64) -> Graph,
}

/// One graph loaded into its own database, with what the loop needs to
/// check and time queries on it.
struct Loaded {
    graph: Graph,
    db: Database,
    mix: ShortMix,
    iterations: f64,
    /// Grafted counters of the query with nothing else running.
    alone: [u64; 3],
}

impl Session {
    fn setup(&self, graph: &Graph) -> BenchResult<Database> {
        let db = Database::new(self.config.clone())?;
        if graph.normalized {
            load_normalized_edges_into(&db, "edges", &graph.spec)?;
        } else {
            load_edges_into(&db, "edges", &graph.spec)?;
        }
        db.execute("CREATE TABLE side (k INT, v INT)")?;
        Ok(db)
    }

    /// Warm up on a freshly set-up graph, outside the window: one profile
    /// gives the iteration count, the mode check and the counters the
    /// statement reports alone.
    fn load(&self, graph: Graph, db: Database) -> BenchResult<Loaded> {
        let warm = db.explain_analyze(&self.sql)?;
        let warm_loop = warm.loops().first().copied().ok_or("no loop in profile")?;
        let mode = warm_loop.iteration_mode.map(|m| m.semi_naive);
        if mode != Some(self.semi_naive) {
            return Err(
                format!("loop ran semi_naive={mode:?}, expected {}", self.semi_naive).into(),
            );
        }
        println!(
            "graph seed {}: edges={} rows over {} nodes, side=0 rows, {} iterations per query",
            graph.spec.seed,
            graph.spec.edges,
            graph.spec.nodes,
            warm_loop.iterations.len()
        );
        Ok(Loaded {
            mix: ShortMix::new(graph.spec.seed, graph.spec.nodes, &graph.edges),
            iterations: warm_loop.iterations.len() as f64,
            alone: grafted_counters(&warm),
            graph,
            db,
        })
    }

    fn run(self, run: &Run) -> BenchResult<Report> {
        let graphs: Vec<Graph> = (0..GRAPHS)
            .map(|j| (self.graph)(run.seed.wrapping_mul(GRAPHS).wrapping_add(j)))
            .collect();
        // The databases the loop queries are set up untimed: the process's
        // first set-ups also pay for growing its heap.
        println!("config: {:?}", self.config);
        let mut loaded = graphs
            .into_iter()
            .map(|graph| {
                let db = self.setup(&graph)?;
                self.load(graph, db)
            })
            .collect::<BenchResult<Vec<_>>>()?;

        let mut setup_s = Vec::new();
        let mut samples = Samples::default();
        let mut traced = Traced::default();
        // CPU time of the iterative queries only, not of the short mix.
        let mut cpu_ms = 0.0;
        let start = Instant::now();
        let mut turn = 0;
        while samples.attempted == 0 || start.elapsed() < run.window() {
            let at = turn % loaded.len();
            let input = &mut loaded[at];
            turn += 1;
            let db = &input.db;
            let cpu_before = process_cpu_ms()?;
            let t = Instant::now();
            let result = db.query(&self.sql);
            let elapsed = ms(t.elapsed());
            cpu_ms += process_cpu_ms()? - cpu_before;
            let checked = result
                .map_err(|e| e.to_string())
                .and_then(|b| (input.graph.check)(&b));
            if samples.record(checked).is_some() {
                if run.trace {
                    traced.untraced_ms.push(elapsed);
                } else {
                    // One kind: the graphs are alike enough to pool.
                    samples.push_query(0, elapsed, input.iterations);
                }
            }
            if run.trace {
                let profiled = traced.profile(db, &self.sql, input.alone);
                samples.record(profiled);
            }
            let traced_db = run.trace.then_some(db);
            for i in 0..SHORT_PER_QUERY {
                let due = Instant::now();
                let mut conn = db;
                let mix = &mut input.mix;
                mix.send(i, due, SHORT_TRIES, &mut conn, traced_db, &mut samples);
            }
            for _ in 0..SETUPS_PER_TURN {
                let t = Instant::now();
                let db = self.setup(&input.graph)?;
                setup_s.push(t.elapsed().as_secs_f64());
                drop(db);
            }
        }

        let mut counts_match = true;
        for input in loaded {
            counts_match &= input.mix.inserts_kept(&mut &input.db)?;
            traced.short_compile_us.extend(input.mix.compile_us);
        }
        if run.trace {
            let semi_naive_ok = traced.all_semi_naive() == self.semi_naive;
            if !semi_naive_ok {
                eprintln!("a traced loop did not run semi_naive={}", self.semi_naive);
            }
            println!(
                "untraced query_ms_p50 in the traced run: {}",
                median(&traced.untraced_ms)
            );
            let metrics = traced.metrics(0.0, 0.0);
            return Ok(samples.report(counts_match && semi_naive_ok, metrics));
        }
        let metrics = samples.end_to_end(&setup_s, cpu_ms)?;
        Ok(samples.report(counts_match, metrics))
    }
}
