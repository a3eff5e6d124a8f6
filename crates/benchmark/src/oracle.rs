//! Correctness and quality: every measured response is checked, a sample
//! of whole pages is bit-compared against a single-threaded reference
//! engine, and the workload's pages are scored with α-nDCG@10 / IA-P@10
//! so speed work cannot quietly erode effectiveness.

use crate::closed_loop::LoopLog;
use crate::fixture::Fixture;
use crate::workloads::Workload;
use serpdiv_eval::{alpha_ndcg_at, ia_precision_at};
use serpdiv_index::DocId;
use serpdiv_serve::{QueryRequest, RankedResult, SearchEngine};

/// What the checks found; every count is a failed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// Responses that were shed, internal errors or degraded pages.
    pub degraded: u64,
    /// Recorded responses without exactly `min(k, hits)` results (every
    /// response through the pool, the last of each batch of a direct caller's).
    pub wrong_length: u64,
    /// Whole pages compared bit for bit with the reference.
    pub pages_compared: u64,
    /// … of which differed (doc ids, `f64` score bits or label).
    pub page_mismatches: u64,
    /// A client saw an older generation after a newer one.
    pub generation_regressions: u64,
    /// A republish, ingest or merge was rejected.
    pub write_failures: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.degraded
            + self.wrong_length
            + self.page_mismatches
            + self.generation_regressions
            + self.write_failures
    }
}

fn same_page(a: &[RankedResult], b: &[RankedResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

/// Check the measured loop against `reference` (single-threaded, no
/// result cache, same artifacts).
///
/// `compare_kept` bit-compares the pages the clients kept. It is off for
/// `cached_swap`, whose generations move under the loop (every ingest
/// changes collection statistics and with them every score) — its pages
/// are checked by [`stale_pages`] after the run instead. Page *lengths*
/// are comparable on every workload: ingested documents match no query.
pub fn check_loop(
    log: &LoopLog,
    requests: &[QueryRequest],
    reference: &SearchEngine,
    compare_kept: bool,
) -> Verdict {
    let mut verdict = Verdict {
        write_failures: log.writes.failures,
        ..Verdict::default()
    };
    // Reference page length per request, computed on first need.
    let mut expected: Vec<Option<u16>> = vec![None; requests.len()];
    for client in &log.clients {
        verdict.generation_regressions += client.generation_regressions;
        // Every response was checked for degradation as it arrived.
        verdict.degraded += client.slices.iter().map(|s| s.degraded).sum::<u64>();
        for sample in client.samples.iter().filter(|s| !s.degraded) {
            let req = sample.req as usize;
            let want = *expected[req].get_or_insert_with(|| {
                reference.search(requests[req].clone()).results.len() as u16
            });
            if sample.results != want {
                verdict.wrong_length += 1;
            }
        }
        if compare_kept {
            for kept in &client.kept {
                let want = reference.search(requests[kept.req as usize].clone());
                verdict.pages_compared += 1;
                if kept.algorithm != want.algorithm || !same_page(&kept.results, &want.results) {
                    verdict.page_mismatches += 1;
                }
            }
        }
    }
    verdict
}

/// The stale-cache detector: ask `engine` (result cache warm, entries
/// carried across many swaps) and a cache-less twin over the generation it
/// serves now for the same `pages` requests; returns `(compared, differing)`.
pub fn stale_pages(
    engine: &SearchEngine,
    twin: &SearchEngine,
    requests: &[QueryRequest],
    pages: usize,
) -> (u64, u64) {
    let step = (requests.len() / pages.max(1)).max(1);
    let mut compared = 0;
    let mut stale = 0;
    for req in requests.iter().step_by(step).take(pages) {
        let served = engine.search(req.clone());
        let fresh = twin.search(req.clone());
        compared += 1;
        if served.algorithm != fresh.algorithm || !same_page(&served.results, &fresh.results) {
            stale += 1;
        }
    }
    (compared, stale)
}

/// Mean α-nDCG@10 (α = 0.5) and IA-P@10 of the workload's algorithm over
/// the testbed topics, served by `reference`.
pub fn quality(workload: &Workload, fixture: &Fixture, reference: &SearchEngine) -> (f64, f64) {
    let mut alpha = 0.0;
    let mut iap = 0.0;
    for topic in &fixture.topics {
        let req = QueryRequest::new(
            topic.query.clone(),
            workload.k,
            workload.algorithm.at(topic.id),
        );
        let ranking: Vec<DocId> = reference
            .search(req)
            .results
            .iter()
            .map(|r| r.doc)
            .collect();
        alpha += alpha_ndcg_at(&ranking, &fixture.qrels, topic.id, 0.5, 10);
        iap += ia_precision_at(&ranking, &fixture.qrels, topic.id, 10);
    }
    let n = fixture.topics.len().max(1) as f64;
    (alpha / n, iap / n)
}
