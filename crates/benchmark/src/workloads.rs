//! The four workloads and how each is deployed.
//!
//! Every workload runs the same shape (set-up → warm-up → closed loop →
//! checks); what differs is which layer carries the time. See the README
//! for the measured layer shares that justify each.

use crate::estimator::Xorshift;
use crate::fixture::{pipeline_params, Fixture, FixtureShape, Scale};
use serpdiv_core::AlgorithmKind;
use serpdiv_fleet::{FleetConfig, FleetRouter};
use serpdiv_index::{Document, Retriever, ShardedIndex};
use serpdiv_serve::{EngineConfig, QueryRequest, SearchEngine, WorkerPool};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Consecutive log records that stay together under every seed.
const ORDER_BLOCK: usize = 64;

const ALGORITHMS: [AlgorithmKind; 5] = [
    AlgorithmKind::Baseline,
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

/// Which diversifier a workload's requests ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    Fixed(AlgorithmKind),
    /// All five, by request index.
    Rotate,
}

impl Algorithm {
    pub fn at(self, i: usize) -> AlgorithmKind {
        match self {
            Algorithm::Fixed(kind) => kind,
            Algorithm::Rotate => ALGORITHMS[i % ALGORITHMS.len()],
        }
    }
}

/// What the writer thread of `cached_swap` does beside the reads, on the
/// clock — which also keeps the number of (expensive) ingests and merges
/// per run fixed.
#[derive(Debug, Clone, Copy)]
pub struct WriteScript {
    /// Pause between two `republish()` calls.
    pub republish_every: Duration,
    /// Ingest one document when this share of the run has elapsed …
    pub ingest_at: f64,
    /// … and `merge_delta()` it into the sealed index at this share.
    pub merge_at: f64,
    /// The traced replay has no clock to write on (it lasts milliseconds):
    /// it ingests once up front, so that it meets computed requests of the
    /// kind the loop's refills after an ingest are made of, and
    /// republishes before every this-many-th request.
    pub traced_republish_every: usize,
}

/// One workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Noise documents at full and at smoke scale.
    noise_docs: (usize, usize),
    /// `|Rq|`.
    pub n_candidates: usize,
    pub k: usize,
    pub algorithm: Algorithm,
    /// Keep only test records the mined model flags ambiguous.
    ambiguous_only: bool,
    /// Keep at most this many records, from the start of the test split.
    max_requests: usize,
    pub result_cache: usize,
    surrogate_cache: usize,
    /// A writer thread republishes, ingests and merges beside the reads.
    writes: bool,
    /// Two shard-worker processes behind a `FleetRouter`.
    pub fleet: bool,
    /// Clients send through the `WorkerPool` (`submit` → `recv`); when
    /// false they call `SearchEngine::search` on their own thread.
    pub through_pool: bool,
    /// Client threads (and pool workers), capped by `nproc`.
    max_clients: usize,
    /// Fixed rate of the open-loop probe: about half the closed-loop
    /// throughput recorded when the benchmark landed.
    pub open_rate_qps: f64,
    /// Fixture fingerprints at full and smoke scale, default seed.
    fingerprints: (u64, u64),
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "diversify_deep",
        why: "ambiguous queries only, OptSelect, |Rq|=1000, k=100: surrogate+utility+select carry the request",
        noise_docs: (3_000, 200),
        n_candidates: 1_000,
        k: 100,
        algorithm: Algorithm::Fixed(AlgorithmKind::OptSelect),
        ambiguous_only: true,
        max_requests: usize::MAX,
        result_cache: 0,
        surrogate_cache: 32_768,
        writes: false,
        fleet: false,
        through_pool: true,
        max_clients: 2,
        open_rate_qps: 3_000.0,
        fingerprints: (0x9291_b632_016a_0bb3, 0xa8cb_9a83_7afd_a6fa),
    },
    Workload {
        name: "retrieve_big",
        why: "46k-doc corpus, Baseline, caches off: retrieval is the whole request and core does nothing",
        noise_docs: (30_000, 500),
        n_candidates: 100,
        k: 10,
        algorithm: Algorithm::Fixed(AlgorithmKind::Baseline),
        ambiguous_only: false,
        max_requests: usize::MAX,
        result_cache: 0,
        surrogate_cache: 0,
        writes: false,
        fleet: false,
        through_pool: true,
        max_clients: 2,
        open_rate_qps: 16_000.0,
        fingerprints: (0x5a21_b7ef_b4f3_ad67, 0x5417_1508_9a48_e088),
    },
    Workload {
        name: "cached_swap",
        why: "one reader replays 2000 log records against a warm result cache while a writer thread republishes, ingests and merges: cache, pin and carry-over",
        noise_docs: (3_000, 200),
        n_candidates: 100,
        k: 10,
        algorithm: Algorithm::Rotate,
        ambiguous_only: false,
        max_requests: 2_000,
        result_cache: 16_384,
        surrogate_cache: 32_768,
        writes: true,
        fleet: false,
        through_pool: false,
        max_clients: 1,
        open_rate_qps: 20_000.0,
        fingerprints: (0x3948_21ff_016e_f5fc, 0x164c_33c3_41f7_c335),
    },
    Workload {
        name: "fleet2",
        why: "two shard-worker processes on Unix sockets behind the router: the wire round-trip is most of the request",
        noise_docs: (3_000, 200),
        n_candidates: 100,
        k: 10,
        algorithm: Algorithm::Fixed(AlgorithmKind::OptSelect),
        ambiguous_only: false,
        max_requests: usize::MAX,
        result_cache: 0,
        surrogate_cache: 32_768,
        writes: false,
        fleet: true,
        through_pool: true,
        max_clients: 1,
        open_rate_qps: 1_900.0,
        fingerprints: (0xa98b_5e07_f225_f54d, 0x164c_33c3_41f7_c335),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn shape(&self, scale: Scale) -> FixtureShape {
        FixtureShape {
            scale,
            noise_docs: match scale {
                Scale::Full => self.noise_docs.0,
                Scale::Smoke => self.noise_docs.1,
            },
        }
    }

    /// The committed fingerprint of this workload's default-seed fixture.
    pub fn fingerprint(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => self.fingerprints.0,
            Scale::Smoke => self.fingerprints.1,
        }
    }

    /// `C = min(max_clients, nproc)`: never more runnable threads than
    /// cores, so queueing measured is the pool's, not the scheduler's.
    pub fn clients(&self, nproc: usize) -> usize {
        self.max_clients.min(nproc).max(1)
    }

    pub fn write_script(&self) -> Option<WriteScript> {
        self.writes.then_some(WriteScript {
            republish_every: Duration::from_millis(20),
            ingest_at: 0.25,
            merge_at: 0.60,
            traced_republish_every: 20_000,
        })
    }

    /// Requests served before anything is measured, so caches are filled
    /// and lazy set-up (presentation tables, connections) is done. With a
    /// result cache that is one whole pass over the list: the measured loop
    /// cycles through it, and its steady state has every key cached.
    pub fn warmup(&self, scale: Scale, requests: usize) -> usize {
        let floor = match scale {
            Scale::Full => 3_000,
            Scale::Smoke => 300,
        };
        if self.result_cache > 0 {
            floor.max(requests)
        } else {
            floor
        }
    }

    /// The request list in log order: what the fingerprint covers.
    pub fn requests(&self, fixture: &Fixture) -> Vec<QueryRequest> {
        fixture
            .test_queries
            .iter()
            .filter(|q| !self.ambiguous_only || fixture.model.get(q).is_some())
            .take(self.max_requests)
            .enumerate()
            .map(|(i, q)| QueryRequest::new(q.clone(), self.k, self.algorithm.at(i)))
            .collect()
    }

    /// The order `seed` sends `requests` in: runs of [`ORDER_BLOCK`]
    /// consecutive log records stay together (a session's refinements
    /// follow its ambiguous query, which is what the caches live on), the
    /// runs are permuted and the whole list rotated. Seed 0 is log order.
    /// Every seed sends the same multiset of requests, so seeds differ in
    /// interleaving and cache history, not in how much work there is.
    pub fn ordered(requests: Vec<QueryRequest>, seed: u64) -> Vec<QueryRequest> {
        if seed == 0 {
            return requests;
        }
        let mut rng = Xorshift::new(seed);
        let mut blocks: Vec<&[QueryRequest]> = requests.chunks(ORDER_BLOCK).collect();
        for i in (1..blocks.len()).rev() {
            blocks.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut ordered: Vec<QueryRequest> = blocks.concat();
        let offset = (rng.next() % ordered.len().max(1) as u64) as usize;
        ordered.rotate_left(offset);
        ordered
    }

    fn engine_config(&self, result_cache: usize) -> EngineConfig {
        EngineConfig {
            n_candidates: self.n_candidates,
            params: pipeline_params(),
            cache_shards: 16,
            cache_capacity: result_cache,
            surrogate_cache_capacity: self.surrogate_cache,
            index_shards: if self.fleet { 2 } else { 1 },
            executor_threads: 0,
            deadline_us: 0,
            forward_index: true,
            ..EngineConfig::default()
        }
    }

    /// An engine over the fixture's artifacts through `retriever`.
    fn engine_over(
        &self,
        fixture: &Fixture,
        retriever: Arc<dyn Retriever>,
        result_cache: usize,
    ) -> SearchEngine {
        SearchEngine::with_retriever_and_forward(
            fixture.index.clone(),
            retriever,
            fixture.model.clone(),
            fixture.store.clone(),
            fixture.compiled.clone(),
            Some(fixture.forward.clone()),
            self.engine_config(result_cache),
        )
        .with_presentation(fixture.presentation.clone())
    }

    /// The engine this workload serves with, over `retriever` (the fleet
    /// router on `fleet2`, the plain index elsewhere).
    pub fn engine(&self, fixture: &Fixture, retriever: Arc<dyn Retriever>) -> SearchEngine {
        self.engine_over(fixture, retriever, self.result_cache)
    }

    /// The correctness oracle: a result-cache-less engine over the
    /// in-process retrieval layer the deployment must be bit-identical
    /// to — the plain index, or `ShardedIndex(2)` for the fleet.
    pub fn reference_engine(&self, fixture: &Fixture) -> SearchEngine {
        let retriever: Arc<dyn Retriever> = if self.fleet {
            Arc::new(ShardedIndex::build(fixture.index.clone(), 2))
        } else {
            fixture.index.clone()
        };
        self.engine_over(fixture, retriever, 0)
    }

    /// A result-cache-less twin of `engine` over whatever generation it
    /// serves *now* (the stale-cache detector of `cached_swap`).
    pub fn uncached_twin(&self, engine: &SearchEngine) -> SearchEngine {
        SearchEngine::from_generation(engine.generation(), self.engine_config(0))
    }
}

/// What a workload serves through: engine, pool and — on `fleet2` — the
/// worker processes. Field order is drop order: the pool joins its
/// workers before the fleet is killed.
pub struct Deployment {
    pub pool: WorkerPool,
    pub engine: Arc<SearchEngine>,
    pub fleet: Option<Fleet>,
}

impl Deployment {
    /// Deploy `workload` over `fixture` with `clients` pool workers.
    pub fn launch(
        workload: &Workload,
        fixture: &Fixture,
        clients: usize,
        out_dir: &Path,
    ) -> Result<Deployment, String> {
        let fleet = if workload.fleet {
            Some(Fleet::boot(fixture, 2, out_dir)?)
        } else {
            None
        };
        let retriever: Arc<dyn Retriever> = match &fleet {
            Some(fleet) => fleet.router.clone(),
            None => fixture.index.clone(),
        };
        let engine = Arc::new(workload.engine(fixture, retriever));
        let pool = WorkerPool::new(engine.clone(), clients);
        Ok(Deployment {
            pool,
            engine,
            fleet,
        })
    }
}

/// Shard-worker processes (this binary re-executed in `--shard-worker`
/// mode) on Unix sockets, behind a default-config router. Dropping it
/// kills and reaps the workers and removes their files.
pub struct Fleet {
    dir: PathBuf,
    children: Vec<Child>,
    pub sockets: Vec<PathBuf>,
    pub router: Arc<FleetRouter>,
}

impl Fleet {
    fn boot(fixture: &Fixture, shards: usize, out_dir: &Path) -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = out_dir.join(format!("fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let sharded = ShardedIndex::build(fixture.index.clone(), shards);
        // Build the struct first: an early return below must still reap
        // whatever was spawned.
        let mut fleet = Fleet {
            dir: dir.clone(),
            children: Vec::new(),
            sockets: Vec::new(),
            router: Arc::new(FleetRouter::new(
                fixture.index.clone(),
                (0..shards)
                    .map(|s| dir.join(format!("shard-{s}.sock")))
                    .collect(),
                // The router's defaults, except that a stalled exchange is
                // waited out instead of failed after 250 ms: this shared box
                // freezes that long now and then, and a host stall belongs
                // in the latency tail, not in `failed`.
                FleetConfig {
                    shard_timeout: Duration::from_secs(5),
                    ..FleetConfig::default()
                },
            )),
        };
        for s in 0..shards {
            let artifact = dir.join(format!("shard-{s}.bin"));
            let socket = dir.join(format!("shard-{s}.sock"));
            std::fs::write(&artifact, sharded.export_shard(s))
                .map_err(|e| format!("write {}: {e}", artifact.display()))?;
            let child = Command::new(&exe)
                .arg("--shard-worker")
                .arg("--artifact")
                .arg(&artifact)
                .arg("--socket")
                .arg(&socket)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn shard worker: {e}"))?;
            fleet.children.push(child);
            fleet.sockets.push(socket);
        }
        fleet.router.wait_ready(Duration::from_secs(30))?;
        Ok(fleet)
    }

    /// Process ids of the workers (for `/proc` accounting).
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Generator of the documents `cached_swap` ingests: bodies over a
/// reserved vocabulary no corpus document or query uses, so an ingest
/// changes collection statistics (and therefore every score) without
/// changing which documents match.
pub struct IngestDocs {
    rng: Xorshift,
}

impl IngestDocs {
    pub fn new(seed: u64) -> Self {
        IngestDocs {
            rng: Xorshift::new(seed ^ 0xD0C5),
        }
    }

    /// The next document, with id `id`.
    pub fn document(&mut self, id: u32) -> Document {
        let len = 40 + self.rng.next() % 80;
        let body: Vec<String> = (0..len)
            .map(|_| {
                let w = self.rng.next() % 400;
                // Letters only: the analyzer would split on digits' edges
                // no differently, but a stemmer must not merge two words.
                let (a, b) = ((w / 20) as u8, (w % 20) as u8);
                format!("zqx{}{}vk", (b'a' + a) as char, (b'a' + b) as char)
            })
            .collect();
        Document::new(
            id,
            format!("http://bench/ingest/d{id}"),
            String::new(),
            body.join(" "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(n: usize) -> Vec<QueryRequest> {
        (0..n)
            .map(|i| QueryRequest::new(format!("q{i}"), 10, AlgorithmKind::Baseline))
            .collect()
    }

    #[test]
    fn seeds_reorder_but_never_change_the_multiset() {
        let base = list(1_000);
        assert_eq!(Workload::ordered(base.clone(), 0), base);
        let a = Workload::ordered(base.clone(), 7);
        let b = Workload::ordered(base.clone(), 8);
        assert_eq!(
            a,
            Workload::ordered(base.clone(), 7),
            "same seed, same inputs"
        );
        assert_ne!(a, base);
        assert_ne!(a, b);
        let sorted = |mut v: Vec<QueryRequest>| {
            v.sort_by(|x, y| x.query.cmp(&y.query));
            v
        };
        assert_eq!(sorted(a.clone()), sorted(base.clone()));
        // Runs of consecutive records survive: q(64j) is followed by q(64j+1).
        let at = a.iter().position(|r| r.query == "q128").unwrap();
        assert_eq!(a[(at + 1) % a.len()].query, "q129");
    }

    #[test]
    fn ingest_documents_use_only_the_reserved_vocabulary() {
        let mut docs = IngestDocs::new(3);
        let d = docs.document(42);
        assert_eq!(d.id.0, 42);
        assert!(d.body.split(' ').count() >= 40);
        assert!(d
            .body
            .split(' ')
            .all(|w| w.starts_with("zqx") && w.ends_with("vk") && w.len() == 7));
        assert_ne!(docs.document(43).body, d.body);
    }
}
