//! The traced replay: the operations a run sent to the server, replayed
//! in this process through each layer's public functions, with a span
//! around every call.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written out as JSON lines when the replay ends. A span's self time is
//! its duration minus the time its child spans cover. The trace reports
//! its own overhead: the measured cost of one span times the number of
//! spans, against the replay's time without that cost.

use crate::inputs::{self, K};
use patternkb_graph::mutate::PagerankMode;
use patternkb_graph::KnowledgeGraph;
use patternkb_index::{build_indexes, PathIndexes};
use patternkb_search::bound::pattern_enum_pruned;
use patternkb_search::common::QueryContext;
use patternkb_search::durability::CHECKPOINTS_KEPT;
use patternkb_search::plan::{choose, estimate};
use patternkb_search::topk::linear_enum_topk;
use patternkb_search::{
    Algorithm, CacheOutcome, Durability, DurabilityOptions, FsyncPolicy, PlannerConfig, Query,
    SearchConfig, SearchEngine, SearchResponse, SearchResult, TableAnswer,
};
use patternkb_serve::api::{compile_delta, parse_ingest, render_response};
use patternkb_text::TextIndex;
use patternkb_wal::checkpoint::{self, Checkpoint};
use patternkb_wal::{Wal, WalOptions};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's start.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `search.roots`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (search or ingest) the span belongs to.
    pub request: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Start the next operation (a new request id).
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span: duration minus the time covered by its children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Per span name: (calls, total self ns).
    pub fn by_name(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times();
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start,
                s.end,
                own[i],
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// What one span costs here, in ns: the median of five timings of
/// 20 000 empty spans.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new();
            let t0 = Instant::now();
            for _ in 0..N {
                t.enter("calibration");
                t.exit();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// How the replayed server boots its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boot {
    /// Fully decode the v5 snapshot (heap tier).
    Decode,
    /// Map the v5 snapshot (mmap tier).
    Map,
    /// Build the index from the graph.
    Build,
}

/// One replayed operation, in the order the server received it.
#[derive(Clone, Debug)]
pub enum Op {
    /// A search; `hit` is the cache disposition the server reported.
    Search { query: String, hit: bool },
    /// An ingest batch (the request body).
    Ingest { body: String },
}

/// What a replay needs besides its operations.
pub struct Setup<'a> {
    /// Graph file.
    pub graph_path: &'a Path,
    /// v5 snapshot file.
    pub snapshot_path: &'a Path,
    /// Which boot the workload's server does.
    pub boot: Boot,
    /// Write-ahead log policy.
    pub fsync: FsyncPolicy,
    /// Checkpoint once the log holds this many records.
    pub checkpoint_records: u64,
    /// Scratch directory for the replay's log and checkpoints.
    pub dir: PathBuf,
}

/// Counters the replay gathers beside its spans.
#[derive(Default, Debug)]
pub struct Counts {
    /// Searches executed (cache misses).
    pub executed: u64,
    /// Summed over executed searches.
    pub candidate_roots: u64,
    /// Summed over executed searches.
    pub subtrees: u64,
    /// Summed over executed searches.
    pub patterns: u64,
    /// Summed over executed searches.
    pub combos_tried: u64,
    /// Summed over executed searches.
    pub combos_pruned: u64,
    /// Summed over executed searches.
    pub intersect_seeks: u64,
    /// Summed over executed searches.
    pub blocks_skipped: u64,
    /// Searches replayed.
    pub searches: u64,
    /// Ingests replayed.
    pub ingests: u64,
    /// Summed `RefreshStats::postings_kept`.
    pub postings_kept: u64,
    /// Summed `RefreshStats::postings_added`.
    pub postings_added: u64,
    /// Log bytes appended.
    pub wal_bytes: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Distinct words decoded on the query path (mapped tier) or at boot
    /// (heap tier).
    pub words_decoded: u64,
    /// `PathIndexes::heap_bytes` when the replay ends.
    pub resident_bytes: u64,
    /// Wall time of the whole replay, ns.
    pub wall_ns: u64,
}

/// The search configuration a `{"q":…,"k":K}` request runs with.
fn search_config() -> SearchConfig {
    SearchConfig {
        k: K,
        max_rows: 64,
        ..SearchConfig::default()
    }
}

fn boot(setup: &Setup<'_>, tr: &mut Tracer) -> Result<SearchEngine, String> {
    let g: KnowledgeGraph = tr
        .span("kgraph.load", || {
            patternkb_graph::snapshot::load(setup.graph_path)
        })
        .map_err(|e| format!("replay graph load: {e}"))?;
    let text: TextIndex = tr.span("ktext.build", || inputs::text_index(&g));
    // Every boot path is timed on every workload; the workload's own one
    // serves the replay.
    let decoded = tr
        .span("pathindex.decode", || {
            patternkb_index::snapshot::load(setup.snapshot_path)
        })
        .map_err(|e| format!("replay decode: {e}"))?;
    let mapped = tr
        .span("pathindex.open", || {
            patternkb_index::storage::open_mapped(setup.snapshot_path)
        })
        .map_err(|e| format!("replay open: {e}"))?;
    let built = tr.span("pathindex.build", || {
        build_indexes(&g, &text, &inputs::build_config())
    });
    let idx: PathIndexes = match setup.boot {
        Boot::Decode => decoded,
        Boot::Map => mapped,
        Boot::Build => built,
    };
    Ok(SearchEngine::from_parts(g, text, idx))
}

/// Replay `ops` once, recording spans into `tr`.
pub fn replay(setup: &Setup<'_>, ops: &[Op], tr: &mut Tracer) -> Result<Counts, String> {
    let t0 = Instant::now();
    let mut counts = Counts::default();
    let mut engine = Arc::new(boot(setup, tr)?);
    let _ = std::fs::remove_dir_all(&setup.dir);
    std::fs::create_dir_all(&setup.dir).map_err(|e| format!("replay dir: {e}"))?;
    let (wal, _) = Wal::open(setup.dir.join("wal.log"), WalOptions { fsync: setup.fsync })
        .map_err(|e| format!("replay wal: {e}"))?;
    let durability = Durability::new(
        wal,
        setup.dir.clone(),
        DurabilityOptions {
            fsync: setup.fsync,
            // Checkpoints are taken synchronously below, at the server's
            // threshold, so the background trigger stays off.
            checkpoint_bytes: u64::MAX,
            checkpoint_records: u64::MAX,
        },
    );
    let cfg = search_config();
    let planner = PlannerConfig::default();
    let mut cache: HashMap<&str, (u64, Arc<SearchResult>, Algorithm)> = HashMap::new();
    let mut version = 0u64;
    let mut prepared: std::collections::HashSet<u32> = Default::default();
    for op in ops {
        tr.next_request();
        match op {
            Op::Search { query, hit } => {
                counts.searches += 1;
                tr.enter("request");
                let parsed: Query = tr
                    .span("ktext.parse", || engine.parse(query))
                    .map_err(|e| format!("replay parse {query:?}: {e:?}"))?;
                tr.span("pathindex.prepare", || {
                    engine.index().prepare_words(&parsed.keywords)
                })
                .map_err(|e| format!("replay prepare: {e}"))?;
                prepared.extend(parsed.keywords.iter().map(|w| w.0));
                let cached = cache
                    .get(query.as_str())
                    .filter(|(v, _, _)| *hit && *v == version)
                    .map(|(_, r, a)| (Arc::clone(r), *a));
                let (result, algorithm) = match cached {
                    Some(found) => found,
                    None => {
                        let (result, algorithm) = execute(&engine, &parsed, &cfg, &planner, tr);
                        counts.executed += 1;
                        let s = &result.stats;
                        counts.candidate_roots += s.candidate_roots as u64;
                        counts.subtrees += s.subtrees as u64;
                        counts.patterns += s.patterns as u64;
                        counts.combos_tried += s.combos_tried as u64;
                        counts.combos_pruned += s.combos_pruned as u64;
                        counts.intersect_seeks += s.hot.intersect_seeks;
                        counts.blocks_skipped += s.hot.blocks_skipped;
                        let result = Arc::new(result);
                        cache.insert(query, (version, Arc::clone(&result), algorithm));
                        (result, algorithm)
                    }
                };
                let tables: Vec<TableAnswer> = tr.span("search.table", || {
                    result
                        .patterns
                        .iter()
                        .map(|p| TableAnswer::from_pattern(engine.graph(), p))
                        .collect()
                });
                let rendered = tr.span("serve.render", || {
                    let resp = SearchResponse {
                        query: parsed,
                        patterns: result.patterns.clone(),
                        tables,
                        presented: None,
                        algorithm,
                        planned: true,
                        stats: result.stats.clone(),
                        relaxations: Vec::new(),
                        explain: None,
                        cache: if *hit {
                            CacheOutcome::Hit
                        } else {
                            CacheOutcome::Miss
                        },
                        elapsed: std::time::Duration::ZERO,
                    };
                    render_response(&engine, &resp).render()
                });
                std::hint::black_box(rendered);
                tr.exit();
            }
            Op::Ingest { body } => {
                counts.ingests += 1;
                tr.enter("ingest");
                let delta = tr
                    .span("serve.compile", || {
                        parse_ingest(body.as_bytes())
                            .and_then(|batch| compile_delta(engine.graph(), &batch))
                    })
                    .map_err(|e| format!("replay compile: {}", e.message))?;
                let new_g = tr
                    .span("kgraph.apply", || {
                        delta.apply(engine.graph(), PagerankMode::Frozen)
                    })
                    .map_err(|e| format!("replay apply: {e}"))?;
                let new_text = tr.span("ktext.rebuild", || inputs::text_index(&new_g));
                let (new_idx, stats) = tr.span("pathindex.refresh", || {
                    patternkb_index::refresh_indexes(
                        engine.index(),
                        engine.graph(),
                        &new_g,
                        engine.text(),
                        &new_text,
                        &delta.dirty_nodes(),
                        false,
                    )
                });
                counts.postings_kept += stats.postings_kept as u64;
                counts.postings_added += stats.postings_added as u64;
                version += 1;
                let before = durability.wal().log_bytes();
                tr.span("wal.sync", || {
                    durability
                        .append(version, PagerankMode::Frozen, &delta)
                        .and_then(|ticket| durability.sync(ticket))
                })
                .map_err(|e| format!("replay wal append: {e}"))?;
                counts.wal_bytes += durability.wal().log_bytes().saturating_sub(before);
                engine = Arc::new(SearchEngine::from_parts(new_g, new_text, new_idx));
                if durability.wal().log_records() >= setup.checkpoint_records {
                    // The server's checkpoint step, through the public
                    // calls it is made of (the replayed engine keeps
                    // version 0, so the log's version is passed in).
                    tr.span("wal.checkpoint", || {
                        let cp = Checkpoint {
                            version,
                            graph: patternkb_graph::snapshot::encode(engine.graph()),
                            index: patternkb_index::storage::encode_v5(engine.index()),
                        };
                        checkpoint::write(&setup.dir, &cp)?;
                        durability.wal().rotate(version)?;
                        checkpoint::prune(&setup.dir, CHECKPOINTS_KEPT)
                    })
                    .map_err(|e| format!("replay checkpoint: {e}"))?;
                    counts.checkpoints += 1;
                }
                tr.exit();
            }
        }
    }
    counts.words_decoded = match setup.boot {
        Boot::Map => prepared.len() as u64,
        Boot::Decode | Boot::Build => engine.index().num_words() as u64,
    };
    counts.resident_bytes = engine.index().heap_bytes() as u64;
    counts.wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(counts)
}

/// The planner and the chosen enumerator, each in its own span.
fn execute(
    engine: &SearchEngine,
    query: &Query,
    cfg: &SearchConfig,
    planner: &PlannerConfig,
    tr: &mut Tracer,
) -> (SearchResult, Algorithm) {
    tr.enter("search.roots");
    let ctx = QueryContext::new(engine.graph(), engine.index(), query);
    tr.exit();
    let Some(ctx) = ctx else {
        return (SearchResult::default(), Algorithm::PatternEnumPruned);
    };
    let algorithm = tr.span("search.plan", || choose(&estimate(&ctx), planner));
    let result = match algorithm {
        Algorithm::PatternEnumPruned => tr.span("search.enum.pattern_enum_pruned", || {
            pattern_enum_pruned(&ctx, cfg)
        }),
        Algorithm::LinearEnumTopK(samp) => tr.span("search.enum.linear_enum_topk", || {
            linear_enum_topk(&ctx, cfg, &samp)
        }),
        other => unreachable!("the planner never picks {other:?}"),
    };
    (result, algorithm)
}
