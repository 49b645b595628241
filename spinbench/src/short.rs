//! The short-statement mix every workload sends: four point lookups per
//! single-row INSERT into the `side` table, each timed and checked.

use std::collections::BTreeMap;
use std::time::Instant;

use spinner_common::Row;
use spinner_engine::{Database, QueryResult};
use spinner_server::{Client, Reply};

use crate::compile::compile;
use crate::measure::{median, ms, KeySeq};
use crate::report::Samples;
use crate::BenchResult;

/// Point lookups on the idle engine for the protocol-overhead probe.
const OVERHEAD_PROBES: usize = 100;

/// A result as numbers, row by row.
pub type Rows = Vec<Vec<f64>>;

pub fn reply_rows(reply: Reply) -> Result<Rows, String> {
    let rows = match reply {
        Reply::Rows { rows, .. } => rows,
        Reply::Error { code, message } => return Err(format!("[{code}] {message}")),
        other => return Err(format!("expected rows, got {other:?}")),
    };
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|cell| {
                    cell.as_deref()
                        .and_then(|c| c.parse::<f64>().ok())
                        .ok_or(format!("non-numeric cell {cell:?}"))
                })
                .collect()
        })
        .collect()
}

/// Where the mix is sent: a served connection, or the database in-process.
pub trait Conn {
    /// Run `sql`; the number of rows it returned or changed.
    fn run(&mut self, sql: &str) -> Result<usize, String>;

    /// `COUNT(*)` of `table`.
    fn count(&mut self, table: &str) -> Result<i64, String>;
}

impl Conn for Client {
    fn run(&mut self, sql: &str) -> Result<usize, String> {
        match self.query(sql).map_err(|e| e.to_string())? {
            Reply::Rows { rows, .. } => Ok(rows.len()),
            Reply::Affected(n) => Ok(n as usize),
            other => Err(format!("{sql} replied {other:?}")),
        }
    }

    fn count(&mut self, table: &str) -> Result<i64, String> {
        self.query(&format!("SELECT COUNT(*) FROM {table}"))
            .map_err(|e| e.to_string())?
            .scalar_i64()
            .ok_or(format!("COUNT(*) of {table} returned no integer"))
    }
}

impl Conn for &Database {
    fn run(&mut self, sql: &str) -> Result<usize, String> {
        match self.execute(sql).map_err(|e| e.to_string())? {
            QueryResult::Rows(batch) => Ok(batch.len()),
            QueryResult::Affected { rows } => Ok(rows),
            _ => Err(format!("{sql} returned neither rows nor a count")),
        }
    }

    fn count(&mut self, table: &str) -> Result<i64, String> {
        let batch = self
            .query(&format!("SELECT COUNT(*) FROM {table}"))
            .map_err(|e| e.to_string())?;
        batch.rows()[0][0].as_i64().map_err(|e| e.to_string())
    }
}

fn lookup(key: i64) -> String {
    format!("SELECT dst, weight FROM edges WHERE src = {key}")
}

pub struct ShortMix {
    keys: KeySeq,
    nodes: usize,
    /// Out-degree of every node: the row count each lookup must return.
    degrees: BTreeMap<i64, usize>,
    inserted: u64,
    /// Compile-layer time of each lookup, in a traced run.
    pub compile_us: Vec<f64>,
}

impl ShortMix {
    /// The mix over the graph whose `edges` rows are loaded; keys come
    /// from a sequence seeded with `seed`.
    pub fn new(seed: u64, nodes: usize, edges: &[Row]) -> Self {
        let mut degrees = BTreeMap::new();
        for row in edges {
            let src = row[0].as_i64().expect("generated src is an int");
            *degrees.entry(src).or_insert(0) += 1;
        }
        ShortMix {
            keys: KeySeq::new(seed),
            nodes,
            degrees,
            inserted: 0,
            compile_us: Vec::new(),
        }
    }

    /// Send statement `i` of the mix (every fifth is an INSERT), due at
    /// `due`, `tries` times in a row, and record the fastest latency and
    /// every outcome. With `traced` set, also time the compile layers of
    /// each lookup against that database.
    pub fn send(
        &mut self,
        i: u64,
        due: Instant,
        tries: usize,
        conn: &mut impl Conn,
        traced: Option<&Database>,
        samples: &mut Samples,
    ) {
        let insert = i % 5 == 4;
        let key = self.keys.next_key(self.nodes);
        let mut fastest = f64::INFINITY;
        let mut ok = false;
        for attempt in 0..tries {
            let start = if attempt == 0 { due } else { Instant::now() };
            let sql = if insert {
                format!("INSERT INTO side VALUES ({}, 1)", self.inserted)
            } else {
                lookup(key)
            };
            let done = conn.run(&sql);
            let latency = ms(start.elapsed());
            let want = if insert {
                1
            } else {
                self.degrees.get(&key).copied().unwrap_or(0)
            };
            let checked = done.and_then(|n| {
                (n == want)
                    .then_some(())
                    .ok_or(format!("{sql} gave {n} rows, expected {want}"))
            });
            if samples.record(checked).is_some() {
                fastest = fastest.min(latency);
                ok = true;
                self.inserted += u64::from(insert);
            }
            if let Some(db) = traced.filter(|_| !insert && attempt == 0) {
                let compiled = compile(db, &sql).map_err(|e| e.to_string());
                if let Some(spans) = samples.record(compiled) {
                    self.compile_us.push(spans.total_us());
                }
            }
        }
        if ok {
            let kind = if insert {
                &mut samples.insert_ms
            } else {
                &mut samples.short_ms
            };
            kind.push(fastest);
        }
    }

    /// Whether the side table holds exactly the INSERTs acknowledged.
    pub fn inserts_kept(&self, conn: &mut impl Conn) -> BenchResult<bool> {
        let counted = conn.count("side")?;
        if counted != self.inserted as i64 {
            eprintln!(
                "side table holds {counted} rows, {} INSERTs acknowledged",
                self.inserted
            );
        }
        Ok(counted == self.inserted as i64)
    }

    /// `Client::query` p50 minus `Database::execute` p50 for the same
    /// point lookups on the idle engine, in microseconds.
    pub fn server_overhead_us(&mut self, client: &mut Client, db: &Database) -> BenchResult<f64> {
        let (mut wire, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PROBES {
            let sql = lookup(self.keys.next_key(self.nodes));
            let t = Instant::now();
            reply_rows(client.query(&sql)?)?;
            wire.push(ms(t.elapsed()));
            let t = Instant::now();
            db.execute(&sql)?;
            direct.push(ms(t.elapsed()));
        }
        Ok((median(&wire) - median(&direct)) * 1e3)
    }
}
