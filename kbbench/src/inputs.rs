//! Seeded inputs. One seed fixes everything a run feeds the server: the
//! wiki-like graph, its v5 index snapshot, the query pools and the ingest
//! stream. The server only ever receives the two files and the requests.

use crate::check::{expected, Expected};
use patternkb_datagen::queries::QueryGenerator;
use patternkb_graph::{AttrId, KnowledgeGraph, TypeId};
use patternkb_index::{build_indexes, BuildConfig};
use patternkb_search::SearchEngine;
use patternkb_text::{Stemmer, SynonymTable, TextIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Entities in the generated graph (about 235k postings, 5.6 MB snapshot).
pub const ENTITIES: usize = 5_000;
/// Height threshold `d` the index is built with.
pub const D: usize = 3;
/// Root-range shards of the index: one, so a query runs on one thread.
pub const SHARDS: usize = 1;
/// Patterns requested per search.
pub const K: usize = 10;
/// Keyword counts 1..=MAX_KEYWORDS are drawn in equal shares.
pub const MAX_KEYWORDS: usize = 6;
/// Distinct queries in one Zipf pool of `hot-repeat` and `ingest-mix`
/// (below the server's 256-entry result cache).
pub const HOT_POOL: usize = 200;
/// `hot-repeat` runs this many epochs, each on a pool of its own.
pub const HOT_EPOCHS: usize = 5;
/// Distinct queries in the `cold-distinct` round (far above the cache).
pub const COLD_POOL: usize = 6_000;
/// Zipf exponent of the repeated pools.
pub const ZIPF_THETA: f64 = 0.9;
/// Ingest batches generated per seed (more than any run sends).
pub const INGEST_STREAM: usize = 1_000;

/// One ingest batch: a new entity of an existing type, with one text
/// attribute whose value is a word no other node carries.
#[derive(Clone, Debug)]
pub struct IngestOp {
    /// The request body for `POST /admin/ingest`.
    pub body: String,
    /// The unique marker word; searching it must find the new entity.
    pub marker: String,
}

/// A pool of distinct queries with the answers they must get.
pub struct Pool {
    /// Query text, in pool order.
    pub queries: Vec<String>,
    /// Baseline's answer per query, computed before the run.
    pub expected: Vec<Expected>,
    /// Queries left out because the planner routes them to LINEARENUM-TOPK
    /// and their k-th and (k+1)-th patterns tie on score: that path breaks
    /// the tie differently from every other algorithm (see README).
    pub left_out: usize,
}

/// Everything one seed generates.
pub struct Inputs {
    /// The graph file the server loads (`serve load <file>`).
    pub graph_path: PathBuf,
    /// The v5 index snapshot (`--index-snapshot`).
    pub snapshot_path: PathBuf,
    /// An engine over the same graph and index, for the answer checks.
    pub engine: SearchEngine,
    /// The repeated pools, [`HOT_POOL`] queries each (`hot-repeat` runs
    /// them all, `ingest-mix` the first).
    pub hot: Pool,
    /// The distinct round (`cold-distinct`).
    pub cold: Pool,
    /// The ingest stream, in send order.
    pub ingests: Vec<IngestOp>,
}

/// The wiki-like graph: the same for every run seed (the generator's own
/// default seed), so the spread between runs measures the program and the
/// host rather than one graph draw against another.
pub fn graph() -> KnowledgeGraph {
    patternkb_datagen::wiki::wiki(&patternkb_datagen::WikiConfig {
        entities: ENTITIES,
        ..patternkb_datagen::WikiConfig::default()
    })
}

/// The text index every engine in this benchmark uses.
pub fn text_index(g: &KnowledgeGraph) -> TextIndex {
    TextIndex::build_with(g, SynonymTable::default_english(), Stemmer::Lite)
}

/// The index build configuration the server uses for `--d 3 --shards 1`.
pub fn build_config() -> BuildConfig {
    BuildConfig {
        d: D,
        threads: 0,
        shards: SHARDS,
    }
}

impl Inputs {
    /// Generate the inputs for `seed` and write the two files into `dir`.
    pub fn generate(seed: u64, dir: &Path) -> Result<Inputs, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let g = graph();
        let text = text_index(&g);
        let idx = build_indexes(&g, &text, &build_config());
        let graph_path = dir.join("graph.pkbg");
        let snapshot_path = dir.join("index.pkb5");
        patternkb_graph::snapshot::save(&g, &graph_path)
            .map_err(|e| format!("cannot write {graph_path:?}: {e}"))?;
        patternkb_index::storage::save_v5(&idx, &snapshot_path)
            .map_err(|e| format!("cannot write {snapshot_path:?}: {e}"))?;
        let ingests = ingest_stream(&g, seed)?;
        let engine = SearchEngine::from_parts(g, text, idx);
        let mut seen = HashSet::new();
        let hot = Pool::sample(&engine, seed ^ 0x686f74, HOT_POOL * HOT_EPOCHS, &mut seen)?;
        let cold = Pool::sample(&engine, seed ^ 0x636f6c64, COLD_POOL, &mut seen)?;
        Ok(Inputs {
            graph_path,
            snapshot_path,
            engine,
            hot,
            cold,
            ingests,
        })
    }
}

impl Pool {
    /// `n` anchored queries (answerable by construction), keyword counts
    /// cycling through 1..=MAX_KEYWORDS, each with a keyword set not in
    /// `seen`, so no two share a cache entry. Baseline's answers are
    /// computed here, on two threads.
    fn sample(
        engine: &SearchEngine,
        seed: u64,
        n: usize,
        seen: &mut HashSet<Vec<u32>>,
    ) -> Result<Pool, String> {
        let mut qg = QueryGenerator::new(engine.graph(), engine.text(), D, seed);
        let mut pool = Pool {
            queries: Vec::with_capacity(n),
            expected: Vec::with_capacity(n),
            left_out: 0,
        };
        let mut attempts = 0;
        while pool.queries.len() < n {
            let mut batch = Vec::new();
            while batch.len() < n - pool.queries.len() {
                if attempts > 50 * n {
                    return Err(format!(
                        "sampled only {} distinct queries",
                        pool.queries.len()
                    ));
                }
                let m = 1 + attempts % MAX_KEYWORDS;
                attempts += 1;
                let Some(q) = qg.anchored(m) else { continue };
                let mut key: Vec<u32> = q.keywords.iter().map(|w| w.0).collect();
                key.sort_unstable();
                if seen.insert(key) {
                    batch.push(q.surface.join(" "));
                }
            }
            let half = batch.len().div_ceil(2);
            let answers: Vec<Result<Expected, String>> = std::thread::scope(|s| {
                let workers: Vec<_> = batch
                    .chunks(half.max(1))
                    .map(|part| {
                        s.spawn(move || {
                            part.iter().map(|q| expected(engine, q)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("baseline worker"))
                    .collect()
            });
            for (q, want) in batch.into_iter().zip(answers) {
                let want = want?;
                if want.topk_boundary_tie {
                    pool.left_out += 1;
                } else {
                    pool.queries.push(q);
                    pool.expected.push(want);
                }
            }
        }
        Ok(pool)
    }
}

/// Spell `n` with consonants only, so the marker is one token that no
/// stemming rule rewrites and no generated word equals.
fn marker_word(seed: u64, n: usize) -> String {
    const DIGITS: &[u8] = b"bcdfghjkmn";
    let mut word = String::from("qxv");
    for ch in format!("{seed}z{n}").bytes() {
        word.push(match ch {
            b'0'..=b'9' => DIGITS[(ch - b'0') as usize] as char,
            _ => 'w',
        });
    }
    word
}

/// JSON string literal.
fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The ingest stream: each batch types its entity and attribute from the
/// graph's own schema vocabulary.
fn ingest_stream(g: &KnowledgeGraph, seed: u64) -> Result<Vec<IngestOp>, String> {
    let types: Vec<TypeId> = (0..g.num_types() as u32)
        .map(TypeId)
        .filter(|&t| !g.type_text(t).is_empty())
        .collect();
    if types.is_empty() || g.num_attrs() == 0 {
        return Err("graph has no entity type or attribute to ingest with".into());
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x696e67);
    Ok((0..INGEST_STREAM)
        .map(|i| {
            let t = types[rng.gen_range(0..types.len())];
            let a = AttrId(rng.gen_range(0..g.num_attrs() as u32));
            let name = format!("kbbench entity {i}");
            let marker = marker_word(seed, i);
            let body = format!(
                "{{\"mutations\":[{{\"op\":\"add_node\",\"type\":{},\"name\":{}}},\
                 {{\"op\":\"add_text_edge\",\"source\":{},\"attr\":{},\"value\":{}}}]}}",
                jstr(g.type_text(t)),
                jstr(&name),
                jstr(&name),
                jstr(g.attr_text(a)),
                jstr(&marker)
            );
            IngestOp { body, marker }
        })
        .collect())
}

/// The `/search` request body for query text `q`.
pub fn search_body(q: &str) -> String {
    format!("{{\"q\":{},\"k\":{K}}}", jstr(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_are_distinct_single_tokens() {
        let a = marker_word(7, 12);
        let b = marker_word(7, 120);
        assert_ne!(a, b);
        assert_eq!(patternkb_text::tokenize::tokens(&a), vec![a.clone()]);
        assert!(!a.contains(['a', 'e', 'i', 'o', 'u', 's']));
    }
}
