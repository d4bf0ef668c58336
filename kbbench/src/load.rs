//! Load generation: closed and open loops of searches, open-loop and
//! back-to-back ingests. One process, one connection per loop.
//!
//! Open-loop operations are timed from when they were *due*, not from
//! when they were sent, so a stall that delays later sends shows in
//! their latency; how late the generator ran is recorded separately.

use crate::inputs::{search_body, IngestOp};
use crate::server::Client;
use patternkb_datagen::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One search as the client saw it.
#[derive(Clone, Debug)]
pub struct ReadRecord {
    /// Index of the query in its pool.
    pub query: usize,
    /// When it was sent, from the start of the loop.
    pub sent: Duration,
    /// Latency in ms (from the due time in an open loop).
    pub latency_ms: f64,
    /// From send to answer, in ms.
    pub service_ms: f64,
    /// The response's `elapsed_us` (trace runs only; else 0).
    pub elapsed_us: u64,
    /// The response's cache disposition was `hit` (trace runs only).
    pub hit: bool,
    /// Counts toward the latency and throughput metrics (warm-up
    /// searches do not).
    pub timed: bool,
}

/// Everything a search loop observed.
#[derive(Default)]
pub struct ReadLog {
    /// Searches sent.
    pub attempted: u64,
    /// Searches answered with anything but 200, or lost to I/O errors.
    pub failed: u64,
    /// One record per answered search, in send order.
    pub records: Vec<ReadRecord>,
    /// The first 200 body per pool index, kept for the answer checks.
    pub first_bodies: HashMap<usize, String>,
    /// How long the timed loops ran, in total.
    pub elapsed: Duration,
    /// Per search: how late it was sent after it was due, in ms (open loop).
    pub late_ms: Vec<f64>,
    /// Keep each response's `elapsed_us` and cache disposition.
    trace: bool,
}

/// One acknowledged ingest.
#[derive(Clone, Debug)]
pub struct IngestRecord {
    /// Index into the ingest stream.
    pub op: usize,
    /// When it was sent, from the start of the loop.
    pub sent: Duration,
    /// Ack latency in ms (from the due time in an open loop).
    pub ack_ms: f64,
    /// The version the ack reported.
    pub version: u64,
}

/// Everything an ingest loop observed.
#[derive(Default)]
pub struct IngestLog {
    /// Batches sent.
    pub attempted: u64,
    /// Batches not acknowledged with 200.
    pub failed: u64,
    /// Acknowledged batches, in ack order.
    pub acks: Vec<IngestRecord>,
    /// Per batch: how late it was sent after it was due, in ms.
    pub late_ms: Vec<f64>,
}

impl ReadLog {
    /// Fold `other` in; its pool indices are shifted by `offset`.
    pub fn append(&mut self, other: ReadLog, offset: usize) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
        self.late_ms.extend(other.late_ms);
        self.records.extend(other.records.into_iter().map(|mut r| {
            r.query += offset;
            r
        }));
        for (q, body) in other.first_bodies {
            self.first_bodies.entry(q + offset).or_insert(body);
        }
    }

    /// Latencies of the timed searches, in ms.
    pub fn timed_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.timed)
            .map(|r| r.latency_ms)
            .collect()
    }
}

/// Draws between two shifts of the Zipf popularity ranking.
pub const ROTATE_EVERY: u64 = 500;
/// How far the ranking shifts each time (coprime with the pool size, so
/// every query takes every rank in turn).
const ROTATE_STRIDE: usize = 37;

/// Which query a loop sends next.
pub enum Order {
    /// Zipf-weighted ranks (seeded); every [`ROTATE_EVERY`] draws the
    /// rank → query mapping shifts by [`ROTATE_STRIDE`], so popularity
    /// moves through the pool as trends do and the run's cost does not
    /// hang on the few queries one ranking puts at the head.
    Zipf(Zipf, SmallRng, u64),
    /// The pool in order, round after round.
    Rounds(usize),
}

impl Order {
    /// Rotating Zipf draws over `n` queries.
    pub fn zipf(n: usize, theta: f64, seed: u64) -> Order {
        Order::Zipf(Zipf::new(n, theta), SmallRng::seed_from_u64(seed), 0)
    }

    fn next(&mut self, n: usize) -> usize {
        match self {
            Order::Zipf(z, rng, draws) => {
                let shift = (*draws / ROTATE_EVERY) as usize * ROTATE_STRIDE;
                *draws += 1;
                (z.sample(rng) + shift) % n
            }
            Order::Rounds(i) => {
                let q = *i % n;
                *i += 1;
                q
            }
        }
    }
}

/// Pull `"key":<digits>` out of a response without parsing it.
fn field_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Send one search, record it. `due` is when it should have gone out.
fn search_once(
    client: &mut Client,
    log: &mut ReadLog,
    body: &str,
    query: usize,
    start: Instant,
    due: Instant,
    timed: bool,
) -> Result<(), String> {
    let sent = Instant::now();
    log.attempted += 1;
    match client.post("/search", body) {
        Ok((200, reply)) => {
            let latency_ms = due.elapsed().as_secs_f64() * 1e3;
            let service_ms = sent.elapsed().as_secs_f64() * 1e3;
            let (elapsed_us, hit) = if log.trace {
                (
                    field_u64(&reply, "elapsed_us").unwrap_or(0),
                    reply.contains("\"cache\":\"hit\""),
                )
            } else {
                (0, false)
            };
            log.records.push(ReadRecord {
                query,
                sent: sent - start,
                latency_ms,
                service_ms,
                elapsed_us,
                hit,
                timed,
            });
            log.first_bodies.entry(query).or_insert(reply);
            Ok(())
        }
        Ok((status, reply)) => {
            log.failed += 1;
            Err(format!("search answered {status}: {reply}"))
        }
        Err(e) => {
            log.failed += 1;
            Err(format!("search failed: {e}"))
        }
    }
}

/// Send every query of `pool` once, in order, untimed (fills the result
/// cache before a timed loop).
pub fn warm(addr: &str, pool: &[String], trace: bool) -> Result<ReadLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ReadLog {
        trace,
        ..ReadLog::default()
    };
    let start = Instant::now();
    for (q, text) in pool.iter().enumerate() {
        let now = Instant::now();
        search_once(
            &mut client,
            &mut log,
            &search_body(text),
            q,
            start,
            now,
            false,
        )?;
    }
    Ok(log)
}

/// Closed loop on one connection: the next search goes out when the last
/// one is answered. Runs for `window`, and on until `min_samples`
/// searches were answered.
pub fn closed_loop(
    addr: &str,
    pool: &[String],
    mut order: Order,
    window: Duration,
    min_samples: usize,
    trace: bool,
) -> Result<ReadLog, String> {
    let bodies: Vec<String> = pool.iter().map(|q| search_body(q)).collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ReadLog {
        trace,
        ..ReadLog::default()
    };
    let start = Instant::now();
    while start.elapsed() < window || log.records.len() < min_samples {
        let q = order.next(bodies.len());
        let now = Instant::now();
        if let Err(e) = search_once(&mut client, &mut log, &bodies[q], q, start, now, true) {
            eprintln!("[kbbench] {e}");
            client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
    }
    log.elapsed = start.elapsed();
    Ok(log)
}

/// Sleep until `due` (no-op when it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open loop on one connection: search `i` is due at `start + i / rate`
/// for every `i` due within `window`, whether or not earlier ones have
/// been answered.
pub fn open_reads(
    addr: &str,
    pool: &[String],
    mut order: Order,
    rate: f64,
    start: Instant,
    window: Duration,
    trace: bool,
) -> Result<ReadLog, String> {
    let bodies: Vec<String> = pool.iter().map(|q| search_body(q)).collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ReadLog {
        trace,
        ..ReadLog::default()
    };
    let total = (rate * window.as_secs_f64()).floor() as u64;
    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        sleep_until(due);
        log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let q = order.next(bodies.len());
        if let Err(e) = search_once(&mut client, &mut log, &bodies[q], q, start, due, true) {
            eprintln!("[kbbench] {e}");
            client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
    }
    log.elapsed = start.elapsed();
    Ok(log)
}

/// Send one ingest; on a 200 return its record.
fn ingest_once(
    client: &mut Client,
    log: &mut IngestLog,
    op: usize,
    body: &str,
    start: Instant,
    due: Instant,
) -> Result<(), String> {
    let sent = Instant::now();
    log.attempted += 1;
    match client.post("/admin/ingest", body) {
        Ok((200, reply)) => {
            let ack_ms = due.elapsed().as_secs_f64() * 1e3;
            let Some(version) = field_u64(&reply, "version") else {
                log.failed += 1;
                return Err(format!("ingest reply without a version: {reply}"));
            };
            log.acks.push(IngestRecord {
                op,
                sent: sent - start,
                ack_ms,
                version,
            });
            Ok(())
        }
        Ok((status, reply)) => {
            log.failed += 1;
            Err(format!("ingest answered {status}: {reply}"))
        }
        Err(e) => {
            log.failed += 1;
            Err(format!("ingest failed: {e}"))
        }
    }
}

/// Open-loop ingests: batch `i` of `ops` is due at `start + i / rate`.
pub fn open_ingests(
    addr: &str,
    ops: &[IngestOp],
    rate: f64,
    start: Instant,
    window: Duration,
) -> Result<IngestLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = IngestLog::default();
    let total = ((rate * window.as_secs_f64()).floor() as usize).min(ops.len());
    for (i, op) in ops.iter().enumerate().take(total) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        sleep_until(due);
        log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = ingest_once(&mut client, &mut log, i, &op.body, start, due) {
            eprintln!("[kbbench] {e}");
            client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
    }
    Ok(log)
}

/// `n` ingests back to back on one connection.
pub fn ingest_burst(addr: &str, ops: &[IngestOp], n: usize) -> Result<IngestLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = IngestLog::default();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate().take(n) {
        if let Err(e) = ingest_once(&mut client, &mut log, i, &op.body, start, Instant::now()) {
            eprintln!("[kbbench] {e}");
            client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
    }
    Ok(log)
}
