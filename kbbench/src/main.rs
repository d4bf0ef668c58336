//! End-to-end and per-layer benchmark of `patternkb-cli serve`.
//!
//! ```text
//! kbbench --cli <patternkb-cli> --work <dir> --workload hot-repeat|cold-distinct|ingest-mix
//!         --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run generates its inputs from the seed, boots a real server on
//! them (three times, timing each boot), drives the workload, checks the
//! answers, and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! README.md for the workloads and the metric map.

mod check;
mod inputs;
mod load;
mod server;
mod stats;
mod trace;

use inputs::Inputs;
use load::{IngestLog, Order, ReadLog};
use server::Server;
use stats::{median, percentile, small_median};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Boot, Op, Tracer};

/// Boots per run; `setup_s` is their median and the last one is measured.
const BOOTS: usize = 3;
/// Back-to-back ingests that close the read workloads.
const TAIL_INGESTS: usize = 100;
/// `--checkpoint-records`: the log is checkpointed every this many ingests.
const CHECKPOINT_RECORDS: u64 = 30;
/// `--fsync` policy of every server.
const FSYNC: &str = "group(5ms)";
/// Server worker threads (the reference host has two CPUs).
const WORKERS: usize = 2;
/// `ingest-mix`: searches per second, open loop.
const MIX_READ_RATE: f64 = 300.0;
/// `ingest-mix`: ingest batches per second, open loop.
const MIX_INGEST_RATE: f64 = 6.0;
/// A closed loop runs on past its window until p99 has ten samples beyond.
const MIN_SEARCHES: usize = 1_000;
/// The traced replay covers at most this many of a run's searches.
const MAX_REPLAY_SEARCHES: usize = 3_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    HotRepeat,
    ColdDistinct,
    IngestMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-repeat" => Some(Workload::HotRepeat),
            "cold-distinct" => Some(Workload::ColdDistinct),
            "ingest-mix" => Some(Workload::IngestMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot-repeat",
            Workload::ColdDistinct => "cold-distinct",
            Workload::IngestMix => "ingest-mix",
        }
    }

    fn boot(self) -> Boot {
        match self {
            Workload::HotRepeat => Boot::Decode,
            Workload::ColdDistinct => Boot::Map,
            Workload::IngestMix => Boot::Build,
        }
    }
}

struct Args {
    cli: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|e| format!("bad {name}: {e}"))
    };
    let workload = flag("--workload")?;
    Ok(Args {
        cli: PathBuf::from(flag("--cli")?),
        work: PathBuf::from(flag("--work")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The run's outcome.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbbench: {e}");
            eprintln!("usage: kbbench --cli FILE --work DIR --workload hot-repeat|cold-distinct|ingest-mix --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    // Before any thread or server starts, so all of them inherit the mask.
    match server::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("kbbench: load generator and servers pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("kbbench: {e}");
            std::process::exit(1);
        }
    }
    let run_dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("kbbench: {e}");
            std::process::exit(1);
        }
    };
    let mut fields = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            eprintln!("kbbench: metric {} is not a number ({})", m.name, m.value);
            std::process::exit(1);
        }
        println!("{:<36} {:>14.6} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    for e in &report.errors {
        eprintln!("kbbench: CHECK FAILED: {e}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn server_args(w: Workload, inputs: &Inputs, data: &Path) -> Vec<String> {
    let path = |p: &Path| p.to_string_lossy().into_owned();
    let mut args: Vec<String> = vec![
        "load".into(),
        path(&inputs.graph_path),
        "--d".into(),
        inputs::D.to_string(),
        "--shards".into(),
        inputs::SHARDS.to_string(),
        "--workers".into(),
        WORKERS.to_string(),
        "--data-dir".into(),
        path(data),
        "--fsync".into(),
        FSYNC.into(),
        "--checkpoint-records".into(),
        CHECKPOINT_RECORDS.to_string(),
    ];
    let tier = match w {
        Workload::HotRepeat => Some("heap"),
        Workload::ColdDistinct => Some("mmap"),
        Workload::IngestMix => None,
    };
    if let Some(tier) = tier {
        args.extend([
            "--index-snapshot".into(),
            path(&inputs.snapshot_path),
            "--storage".into(),
            tier.into(),
        ]);
    }
    args
}

fn metric_value(m: &std::collections::HashMap<String, f64>, name: &str) -> Result<f64, String> {
    m.get(name)
        .copied()
        .ok_or_else(|| format!("/metrics has no {name}"))
}

/// Search every acked marker; each must answer with one tree per pattern.
fn check_markers(addr: &str, ops: &[inputs::IngestOp], acks: &load::IngestLog) -> Vec<String> {
    let mut errors = Vec::new();
    let mut client = match server::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return vec![format!("marker check cannot connect: {e}")],
    };
    for ack in &acks.acks {
        let marker = &ops[ack.op].marker;
        let result = client
            .post("/search", &inputs::search_body(marker))
            .map_err(|e| format!("marker {marker}: {e}"))
            .and_then(|(status, body)| check::check_marker(marker, status, &body));
        if let Err(e) = result {
            errors.push(e);
        }
    }
    errors
}

/// Wait until the background checkpointer has caught up (the log is
/// below the threshold again), so the data directory's size is settled.
fn quiesce(server: &Server) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.metrics()?;
        if metric_value(&m, "patternkb_wal_records")? < CHECKPOINT_RECORDS as f64 {
            // The newest checkpoint is written and the log rotated; give
            // the prune of older checkpoints a moment.
            std::thread::sleep(Duration::from_millis(200));
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("checkpointer did not catch up within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn run(a: &Args, dir: &Path) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let phase = |name: &str| {
        eprintln!(
            "kbbench: {name} done at {:.2} s",
            t0.elapsed().as_secs_f64()
        )
    };
    let inputs = Inputs::generate(a.seed, &dir.join("inputs"))?;
    phase("inputs");
    let w = a.workload;

    // Set-up: fresh boots, each into its own data directory.
    let mut setups = Vec::with_capacity(BOOTS);
    let mut booted = None;
    for i in 0..BOOTS {
        let server = Server::spawn(
            &a.cli,
            &server_args(w, &inputs, &dir.join(format!("data{i}"))),
        )?;
        setups.push(server.setup.as_secs_f64());
        if i + 1 < BOOTS {
            server.shutdown()?;
        } else {
            booted = Some(server);
        }
    }
    let server = booted.expect("at least one boot");
    phase("boots");
    let data_dir = dir.join(format!("data{}", BOOTS - 1));
    let addr = server.addr.clone();
    let base_version = metric_value(&server.metrics()?, "patternkb_engine_version")? as u64;
    let window = Duration::from_secs(a.seconds);

    // The workload.
    let (pool, reads, ingests): (&inputs::Pool, ReadLog, IngestLog) = match w {
        Workload::HotRepeat => {
            let epoch = window / inputs::HOT_EPOCHS as u32;
            let mut reads = ReadLog::default();
            for (e, part) in inputs.hot.queries.chunks(inputs::HOT_POOL).enumerate() {
                reads.append(load::warm(&addr, part, a.trace)?, e * inputs::HOT_POOL);
                let order = Order::zipf(
                    part.len(),
                    inputs::ZIPF_THETA,
                    a.seed.wrapping_add(e as u64),
                );
                let min = MIN_SEARCHES / inputs::HOT_EPOCHS;
                let log = load::closed_loop(&addr, part, order, epoch, min, a.trace)?;
                reads.append(log, e * inputs::HOT_POOL);
            }
            let ingests = load::ingest_burst(&addr, &inputs.ingests, TAIL_INGESTS)?;
            (&inputs.hot, reads, ingests)
        }
        Workload::ColdDistinct => {
            let reads = load::closed_loop(
                &addr,
                &inputs.cold.queries,
                Order::Rounds(0),
                window,
                MIN_SEARCHES,
                a.trace,
            )?;
            let ingests = load::ingest_burst(&addr, &inputs.ingests, TAIL_INGESTS)?;
            (&inputs.cold, reads, ingests)
        }
        Workload::IngestMix => {
            let pool = &inputs.hot.queries[..inputs::HOT_POOL];
            let start = Instant::now() + Duration::from_millis(20);
            let (reads, ingests) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let order = Order::zipf(pool.len(), inputs::ZIPF_THETA, a.seed);
                    load::open_reads(&addr, pool, order, MIX_READ_RATE, start, window, a.trace)
                });
                let writer = s.spawn(|| {
                    load::open_ingests(&addr, &inputs.ingests, MIX_INGEST_RATE, start, window)
                });
                (
                    reader.join().expect("reader thread"),
                    writer.join().expect("writer thread"),
                )
            });
            (&inputs.hot, reads?, ingests?)
        }
    };
    phase("workload");
    let peak_rss_mb = server.peak_rss_mb()?;
    // Everything the server's state occupies on disk once the
    // checkpointer has caught up: the data directory (log plus kept
    // checkpoints), and the snapshot a read workload boots from.
    quiesce(&server)?;
    let snapshot_mb = std::fs::metadata(&inputs.snapshot_path)
        .map_err(|e| format!("snapshot size: {e}"))?
        .len() as f64
        / (1024.0 * 1024.0);
    let disk_mb = server::dir_mb(&data_dir)?
        + match w {
            Workload::IngestMix => 0.0,
            _ => snapshot_mb,
        };

    let server_metrics = server.metrics()?;

    // Checks.
    let mut errors = Vec::new();
    let mut read_check = check::ReadCheck::default();
    if w != Workload::IngestMix {
        let mut answers: Vec<(&usize, &String)> = reads.first_bodies.iter().collect();
        answers.sort_by_key(|(q, _)| **q);
        for (&q, body) in answers {
            let (text, want) = (&pool.queries[q], &pool.expected[q]);
            if let Err(e) = check::check_answer(&inputs.engine, text, body, want, &mut read_check) {
                errors.push(e);
            }
        }
    }
    let versions: Vec<u64> = ingests.acks.iter().map(|r| r.version).collect();
    if let Err(e) = check::check_versions(base_version, &versions) {
        errors.push(e);
    }
    errors.extend(check_markers(&addr, &inputs.ingests, &ingests));
    // Crash the server and recover it from the same data directory.
    let acked = versions.last().copied().unwrap_or(base_version);
    let restarted = server.respawn_after_crash()?;
    let recovered = metric_value(&restarted.metrics()?, "patternkb_engine_version")? as u64;
    if recovered != acked {
        errors.push(format!(
            "after kill -9 the server recovered version {recovered}, highest ack was {acked}"
        ));
    }
    errors.extend(
        check_markers(&restarted.addr, &inputs.ingests, &ingests)
            .into_iter()
            .map(|e| format!("after restart: {e}")),
    );
    restarted.shutdown()?;

    phase("checks");
    let attempted = reads.attempted + ingests.attempted;
    let failed = reads.failed + ingests.failed;
    let read_ms = reads.timed_ms();
    let ack_ms: Vec<f64> = ingests.acks.iter().map(|r| r.ack_ms).collect();
    let late: Vec<f64> = reads
        .late_ms
        .iter()
        .chain(&ingests.late_ms)
        .copied()
        .collect();
    println!(
        "workload {} seed {}: searches attempted {} failed {} ({} timed), ingests attempted {} failed {} ({} timed); \
         answers checked: {} exact vs Baseline, {} sampled by properties; \
         {} sampled queries left out for a LINEARENUM-TOPK tie at the k-th place",
        w.name(),
        a.seed,
        reads.attempted,
        reads.failed,
        read_ms.len(),
        ingests.attempted,
        ingests.failed,
        ack_ms.len(),
        read_check.exact,
        read_check.sampled,
        pool.left_out,
    );
    if !late.is_empty() {
        println!(
            "open-loop generator lateness: p50 {:.3} ms, max {:.3} ms over {} sends",
            small_median(&late),
            late.iter().copied().fold(0.0, f64::max),
            late.len()
        );
    }
    println!(
        "percentile samples: search_p50_ms/search_p99_ms over {} searches, ingest_ack_p50_ms/ingest_ack_p90_ms over {} acks",
        read_ms.len(),
        ack_ms.len()
    );

    let metrics = if a.trace {
        layer_metrics(
            a,
            dir,
            &inputs,
            &pool.queries,
            &reads,
            &ingests,
            &server_metrics,
            snapshot_mb,
        )?
    } else {
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        vec![
            m(
                "search_qps",
                read_ms.len() as f64 / reads.elapsed.as_secs_f64(),
                "req/s",
            ),
            m("search_p50_ms", median(&read_ms)?, "ms"),
            m("search_p99_ms", percentile(&read_ms, 0.99)?, "ms"),
            m("ingest_ack_p50_ms", median(&ack_ms)?, "ms"),
            m("ingest_ack_p90_ms", percentile(&ack_ms, 0.90)?, "ms"),
            m("setup_s", small_median(&setups), "s"),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
            m("disk_mb", disk_mb, "MiB"),
        ]
    };
    Ok(Report {
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// The operations the server received, in order, for the replay: the
/// first [`MAX_REPLAY_SEARCHES`] searches and the ingests sent meanwhile
/// (all of them on the read workloads, which ingest after reading).
fn replay_ops(
    w: Workload,
    pool: &[String],
    reads: &ReadLog,
    ingests: &IngestLog,
    all_ingests: &[inputs::IngestOp],
) -> Vec<Op> {
    let searches = reads.records.iter().take(MAX_REPLAY_SEARCHES).map(|r| {
        (
            r.sent,
            Op::Search {
                query: pool[r.query].clone(),
                hit: r.hit,
            },
        )
    });
    let horizon = match w {
        Workload::IngestMix => reads
            .records
            .get(MAX_REPLAY_SEARCHES)
            .map_or(Duration::MAX, |r| r.sent),
        _ => Duration::MAX,
    };
    let writes = ingests.acks.iter().filter(|r| r.sent < horizon).map(|r| {
        (
            r.sent,
            Op::Ingest {
                body: all_ingests[r.op].body.clone(),
            },
        )
    });
    if w == Workload::IngestMix {
        // Reads and writes ran side by side: merge them by send time.
        let mut timed: Vec<(Duration, Op)> = searches.chain(writes).collect();
        timed.sort_by_key(|(t, _)| *t);
        timed.into_iter().map(|(_, op)| op).collect()
    } else {
        searches.chain(writes).map(|(_, op)| op).collect()
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    a: &Args,
    dir: &Path,
    inputs: &Inputs,
    pool: &[String],
    reads: &ReadLog,
    ingests: &IngestLog,
    sm: &std::collections::HashMap<String, f64>,
    snapshot_mb: f64,
) -> Result<Vec<Metric>, String> {
    let w = a.workload;
    let ops = replay_ops(w, pool, reads, ingests, &inputs.ingests);
    let setup = |name: &str| trace::Setup {
        graph_path: &inputs.graph_path,
        snapshot_path: &inputs.snapshot_path,
        boot: w.boot(),
        fsync: FSYNC.parse().expect("valid fsync policy"),
        checkpoint_records: CHECKPOINT_RECORDS,
        dir: dir.join(name),
    };
    let mut tr = Tracer::new();
    let counts = trace::replay(&setup("replay"), &ops, &mut tr)?;
    let tracing_ns = tr.len() as f64 * trace::span_cost_ns();
    let untraced_ns = counts.wall_ns as f64 - tracing_ns;
    let spans_path = a.work.join(format!("trace-{}-{}.jsonl", w.name(), a.seed));
    tr.write(&spans_path)
        .map_err(|e| format!("cannot write {spans_path:?}: {e}"))?;
    eprintln!("kbbench: spans written to {}", spans_path.display());

    let by = tr.by_name();
    // Mean self time per call of span `name`, in the given unit (ns per unit).
    let per_call = |name: &str, ns_per_unit: f64| -> f64 {
        by.get(name)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls as f64 / ns_per_unit)
    };
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let timed: Vec<&load::ReadRecord> = reads.records.iter().filter(|r| r.timed).collect();
    let overhead_ms: Vec<f64> = timed
        .iter()
        .map(|r| r.service_ms - r.elapsed_us as f64 / 1e3)
        .collect();
    let respond_us =
        timed.iter().map(|r| r.elapsed_us as f64).sum::<f64>() / timed.len().max(1) as f64;
    let hits = metric_value(sm, "patternkb_cache_hits_total")?;
    let misses = metric_value(sm, "patternkb_cache_misses_total")?;
    let mb = 1024.0 * 1024.0;
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    println!(
        "replay: {} searches ({} executed), {} ingests; {} spans costing {:.3} ms of {:.3} s",
        counts.searches,
        counts.executed,
        counts.ingests,
        tr.len(),
        tracing_ns / 1e6,
        counts.wall_ns as f64 / 1e9
    );
    Ok(vec![
        m("serve.overhead_ms", median(&overhead_ms)?, "ms"),
        m("serve.render_us", per_call("serve.render", 1e3), "us"),
        m(
            "serve.batch_size",
            metric_value(sm, "patternkb_batched_requests_total")?
                / metric_value(sm, "patternkb_batches_total")?,
            "req/batch",
        ),
        m("search.cache_hit_ratio", hits / (hits + misses), "ratio"),
        m(
            "search.cache_stale",
            metric_value(sm, "patternkb_cache_stale_total")?
                / metric_value(sm, "patternkb_ingests_total")?,
            "per_ingest",
        ),
        m("search.respond_us", respond_us, "us"),
        m("search.roots_us", per_call("search.roots", 1e3), "us"),
        m("search.plan_us", per_call("search.plan", 1e3), "us"),
        m(
            "search.enum_ms.pattern_enum_pruned",
            per_call("search.enum.pattern_enum_pruned", 1e6),
            "ms",
        ),
        m(
            "search.enum_ms.linear_enum_topk",
            per_call("search.enum.linear_enum_topk", 1e6),
            "ms",
        ),
        m("search.table_us", per_call("search.table", 1e3), "us"),
        m(
            "search.candidate_roots",
            per(counts.candidate_roots, counts.executed),
            "count",
        ),
        m(
            "search.subtrees",
            per(counts.subtrees, counts.executed),
            "count",
        ),
        m(
            "search.combos_tried",
            per(counts.combos_tried, counts.executed),
            "count",
        ),
        m(
            "search.combos_pruned",
            per(counts.combos_pruned, counts.executed),
            "count",
        ),
        m(
            "search.intersect_seeks",
            per(counts.intersect_seeks, counts.executed),
            "count",
        ),
        m(
            "search.blocks_skipped",
            per(counts.blocks_skipped, counts.executed),
            "count",
        ),
        m(
            "search.patterns_per_combo",
            per(counts.patterns, counts.combos_tried),
            "ratio",
        ),
        m("ktext.parse_us", per_call("ktext.parse", 1e3), "us"),
        m("ktext.rebuild_ms", per_call("ktext.rebuild", 1e6), "ms"),
        m("pathindex.decode_s", per_call("pathindex.decode", 1e9), "s"),
        m("pathindex.open_ms", per_call("pathindex.open", 1e6), "ms"),
        m("pathindex.build_s", per_call("pathindex.build", 1e9), "s"),
        m("pathindex.snapshot_mb", snapshot_mb, "MiB"),
        m(
            "pathindex.prepare_ms",
            per_call("pathindex.prepare", 1e6),
            "ms",
        ),
        m(
            "pathindex.words_decoded",
            counts.words_decoded as f64,
            "count",
        ),
        m(
            "pathindex.resident_mb",
            counts.resident_bytes as f64 / mb,
            "MiB",
        ),
        m(
            "pathindex.refresh_ms",
            per_call("pathindex.refresh", 1e6),
            "ms",
        ),
        m(
            "pathindex.postings_carried",
            per(counts.postings_kept, counts.ingests),
            "count",
        ),
        m(
            "pathindex.refresh_useful_ratio",
            per(
                counts.postings_added,
                counts.postings_kept + counts.postings_added,
            ),
            "ratio",
        ),
        m("kgraph.load_ms", per_call("kgraph.load", 1e6), "ms"),
        m("kgraph.apply_ms", per_call("kgraph.apply", 1e6), "ms"),
        m("wal.sync_ms", per_call("wal.sync", 1e6), "ms"),
        m(
            "wal.fsyncs_per_ack",
            metric_value(sm, "patternkb_wal_fsync_seconds_count")?
                / ingests.acks.len().max(1) as f64,
            "ratio",
        ),
        m(
            "wal.bytes_per_ingest",
            per(counts.wal_bytes, counts.ingests),
            "B",
        ),
        m(
            "wal.checkpoints",
            metric_value(sm, "patternkb_checkpoints_total")?,
            "count",
        ),
        m("wal.checkpoint_ms", per_call("wal.checkpoint", 1e6), "ms"),
        m("trace.overhead_pct", tracing_ns / untraced_ns * 100.0, "%"),
    ])
}
