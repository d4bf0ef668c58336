//! Answer checks. Read answers are compared with the index-free Baseline
//! computed in this process on the same graph; writes are checked for
//! version order, visibility and recovery. Nothing is compared with a
//! stored copy of earlier output.

use crate::inputs::K;
use patternkb_search::common::QueryContext;
use patternkb_search::plan::{choose, estimate};
use patternkb_search::{Algorithm, AlgorithmChoice, PlannerConfig, SearchEngine, SearchRequest};
use patternkb_serve::api::render_response;

/// What the read check covered.
#[derive(Default, Debug)]
pub struct ReadCheck {
    /// Answers the planner computed exactly, equal to Baseline's.
    pub exact: usize,
    /// Answers the planner sampled, checked for properties.
    pub sampled: usize,
}

/// One pattern of an answer, as compared.
#[derive(Clone, Debug, PartialEq)]
pub struct Served {
    display: String,
    score: f64,
    num_trees: u64,
}

/// The `(display, score, num_trees)` of every pattern in a rendered
/// search response, in order. A full JSON parse of every answer costs more
/// than the run it checks, so this scans only the `patterns` array and
/// skips the tables.
fn patterns_of(body: &str) -> Result<Vec<Served>, String> {
    let start = body
        .find("\"patterns\":[")
        .ok_or("response has no patterns array")?
        + "\"patterns\":[".len();
    let mut s = Scanner {
        b: body.as_bytes(),
        i: start,
    };
    let mut out = Vec::new();
    if s.eat(b']') {
        return Ok(out);
    }
    loop {
        s.expect(b'{')?;
        let (mut display, mut score, mut num_trees) = (None, None, None);
        loop {
            let key = s.string()?;
            s.expect(b':')?;
            match key {
                "display" => display = Some(s.string()?.to_string()),
                "score" => score = Some(s.scalar()?.parse::<f64>().map_err(|e| e.to_string())?),
                "num_trees" => {
                    num_trees = Some(s.scalar()?.parse::<u64>().map_err(|e| e.to_string())?)
                }
                _ => s.skip_value()?,
            }
            if !s.eat(b',') {
                s.expect(b'}')?;
                break;
            }
        }
        out.push(Served {
            display: display.ok_or("pattern without display")?,
            score: score.ok_or("pattern without score")?,
            num_trees: num_trees.ok_or("pattern without num_trees")?,
        });
        if !s.eat(b',') {
            s.expect(b']')?;
            return Ok(out);
        }
    }
}

/// Cursor over compact JSON as the server renders it (no whitespace).
struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.b.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    /// A string's raw contents (escapes left as written).
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let from = self.i;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    return std::str::from_utf8(&self.b[from..self.i - 1])
                        .map_err(|e| e.to_string());
                }
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// A number, `true`, `false` or `null`, as text.
    fn scalar(&mut self) -> Result<&'a str, String> {
        let from = self.i;
        while self.i < self.b.len() && !matches!(self.b[self.i], b',' | b'}' | b']') {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[from..self.i]).map_err(|e| e.to_string())
    }

    fn skip_value(&mut self) -> Result<(), String> {
        match self.b.get(self.i) {
            Some(b'"') => self.string().map(|_| ()),
            Some(&open @ (b'[' | b'{')) => {
                let close = if open == b'[' { b']' } else { b'}' };
                self.i += 1;
                if self.eat(close) {
                    return Ok(());
                }
                loop {
                    if open == b'{' {
                        self.string()?;
                        self.expect(b':')?;
                    }
                    self.skip_value()?;
                    if !self.eat(b',') {
                        return self.expect(close);
                    }
                }
            }
            Some(_) => self.scalar().map(|_| ()),
            None => Err("truncated response".into()),
        }
    }
}

/// The Baseline answer for `q` with `k` patterns, rendered and re-parsed
/// the way the server's answer is.
fn baseline(engine: &SearchEngine, q: &str, k: usize) -> Result<Vec<Served>, String> {
    let resp = engine
        .respond(
            &SearchRequest::text(q)
                .k(k)
                .algorithm(AlgorithmChoice::Baseline)
                .compose_tables(false),
        )
        .map_err(|e| format!("baseline for {q:?}: {e}"))?;
    patterns_of(&render_response(engine, &resp).render())
}

/// What the server must answer for one query, computed apart from the
/// index before the run.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Baseline's top-k.
    pub top: Vec<Served>,
    /// The planner samples this query, so only properties are checked.
    pub sampled: bool,
    /// The planner routes it to LINEARENUM-TOPK, and its k-th and
    /// (k+1)-th patterns tie on score.
    pub topk_boundary_tie: bool,
}

/// Baseline's answer and the planner's decision for `q` on `engine` (an
/// engine over the same graph and index the server boots from).
pub fn expected(engine: &SearchEngine, q: &str) -> Result<Expected, String> {
    let query = engine
        .parse(q)
        .map_err(|e| format!("cannot parse {q:?}: {e:?}"))?;
    engine
        .index()
        .prepare_words(&query.keywords)
        .map_err(|e| format!("prepare {q:?}: {e}"))?;
    let algorithm = QueryContext::new(engine.graph(), engine.index(), &query)
        .map(|ctx| choose(&estimate(&ctx), &PlannerConfig::default()));
    let rho = match algorithm {
        Some(Algorithm::LinearEnumTopK(s)) => Some(s.rho),
        _ => None,
    };
    let mut top = baseline(engine, q, K + 1)?;
    let boundary_tie = top.len() > K && top[K - 1].score == top[K].score;
    top.truncate(K);
    Ok(Expected {
        top,
        sampled: rho.is_some_and(|rho| rho < 1.0),
        topk_boundary_tie: rho.is_some() && boundary_tie,
    })
}

/// Check one served answer for `q` against its [`Expected`] answer.
pub fn check_answer(
    engine: &SearchEngine,
    q: &str,
    body: &str,
    want: &Expected,
    tally: &mut ReadCheck,
) -> Result<(), String> {
    let served = patterns_of(body).map_err(|e| format!("response to {q:?}: {e}"))?;
    if !want.sampled {
        if served != want.top {
            return Err(format!(
                "query {q:?}: served top-{K} differs from Baseline\n  served:   {served:?}\n  baseline: {:?}",
                want.top
            ));
        }
        tally.exact += 1;
        return Ok(());
    }
    // A sampled answer: at most k patterns, scores non-increasing, and no
    // pattern with more trees than Baseline gives it.
    if served.len() > K {
        return Err(format!(
            "query {q:?}: {} patterns for k = {K}",
            served.len()
        ));
    }
    if served.windows(2).any(|w| w[0].score < w[1].score) {
        return Err(format!("query {q:?}: scores increase down the list"));
    }
    let all = baseline(engine, q, usize::MAX)?;
    for p in &served {
        let full = all
            .iter()
            .find(|b| b.display == p.display)
            .ok_or_else(|| format!("query {q:?}: pattern {} is not in Baseline", p.display))?;
        if p.num_trees > full.num_trees {
            return Err(format!(
                "query {q:?}: pattern {} has {} trees, Baseline {}",
                p.display, p.num_trees, full.num_trees
            ));
        }
    }
    tally.sampled += 1;
    Ok(())
}

/// Acks in ack order must carry versions `base + 1, base + 2, …`.
pub fn check_versions(base: u64, versions: &[u64]) -> Result<(), String> {
    for (i, &v) in versions.iter().enumerate() {
        let want = base + 1 + i as u64;
        if v != want {
            return Err(format!("ack #{i} reported version {v}, expected {want}"));
        }
    }
    Ok(())
}

/// A marker search must answer, with exactly one tree per pattern.
pub fn check_marker(marker: &str, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("marker {marker}: HTTP {status}: {body}"));
    }
    let served = patterns_of(body).map_err(|e| format!("marker {marker}: {e}"))?;
    if served.is_empty() {
        return Err(format!("acked marker {marker} finds nothing"));
    }
    if let Some(p) = served.iter().find(|p| p.num_trees != 1) {
        return Err(format!(
            "marker {marker}: pattern {} has {} trees, expected 1",
            p.display, p.num_trees
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternkb_search::EngineBuilder;
    use patternkb_serve::Json;

    fn figure1() -> SearchEngine {
        EngineBuilder::new()
            .graph(patternkb_datagen::figure1().0)
            .threads(1)
            .build()
            .unwrap()
    }

    fn served_body(engine: &SearchEngine, q: &str) -> String {
        let resp = engine.respond(&SearchRequest::text(q).k(K)).unwrap();
        render_response(engine, &resp).render()
    }

    #[test]
    fn served_answer_matches_baseline() {
        let e = figure1();
        let mut tally = ReadCheck::default();
        for q in [
            "database software company revenue",
            "company revenue",
            "software",
        ] {
            let want = expected(&e, q).unwrap();
            check_answer(&e, q, &served_body(&e, q), &want, &mut tally).unwrap();
        }
        assert_eq!(tally.exact, 3);
    }

    #[test]
    fn scanner_reads_what_a_json_parse_reads() {
        let e = figure1();
        let body = served_body(&e, "database software company revenue");
        let scanned = patterns_of(&body).unwrap();
        let parsed = Json::parse(&body).unwrap();
        let parsed = parsed.get("patterns").and_then(Json::as_arr).unwrap();
        assert_eq!(scanned.len(), parsed.len());
        assert!(!scanned.is_empty());
        for (s, p) in scanned.iter().zip(parsed) {
            assert_eq!(
                Some(s.display.as_str()),
                p.get("display").and_then(Json::as_str)
            );
            assert_eq!(Some(s.score), p.get("score").and_then(Json::as_f64));
            assert_eq!(Some(s.num_trees), p.get("num_trees").and_then(Json::as_u64));
        }
        assert!(patterns_of("{\"patterns\":[{\"score\":1").is_err());
        assert_eq!(patterns_of("{\"patterns\":[]}").unwrap(), vec![]);
    }

    #[test]
    fn tampered_answers_fail() {
        let e = figure1();
        let q = "database software company revenue";
        let want = expected(&e, q).unwrap();
        let body = served_body(&e, q);
        let json = Json::parse(&body).unwrap();
        let Json::Obj(fields) = json else { panic!() };
        let tamper = |f: &dyn Fn(&mut Vec<Json>)| {
            let mut fields = fields.clone();
            for (k, v) in fields.iter_mut() {
                if k == "patterns" {
                    let Json::Arr(ps) = v else { panic!() };
                    f(ps);
                }
            }
            Json::Obj(fields).render()
        };
        let set = |p: &mut Json, key: &str, value: Json| {
            let Json::Obj(fs) = p else { panic!() };
            fs.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
        };
        let swapped = tamper(&|ps| ps.swap(0, 1));
        let rescored = tamper(&|ps| set(&mut ps[0], "score", Json::Num(1e9)));
        let recounted = tamper(&|ps| set(&mut ps[2], "num_trees", Json::Num(99.0)));
        let dropped = tamper(&|ps| {
            ps.pop();
        });
        for bad in [swapped, rescored, recounted, dropped] {
            let mut tally = ReadCheck::default();
            assert!(
                check_answer(&e, q, &bad, &want, &mut tally).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn version_and_marker_rules() {
        assert!(check_versions(4, &[5, 6, 7]).is_ok());
        assert!(check_versions(4, &[5, 7]).is_err());
        assert!(check_versions(4, &[5, 5]).is_err());
        let e = figure1();
        let body = served_body(&e, "software");
        assert!(
            check_marker("software", 200, &body).is_err(),
            "figure1 'software' has multi-tree patterns or none"
        );
        assert!(check_marker("x", 500, "{}").is_err());
    }
}
