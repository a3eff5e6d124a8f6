//! Fleet correctness: pages served through the router + N real
//! `shard_worker` **processes** must be bit-identical — same doc ids,
//! same `f64` score bits, same order — to the in-process
//! [`ShardedIndex`] oracle and the unsharded engine, for shard counts
//! {1, 2, 4}; and killing a worker mid-run must yield a *degraded*
//! response (labeled, counted, never torn or hung) with full recovery
//! after the worker restarts.
//!
//! Workers are the actual release binary, spawned via
//! `CARGO_BIN_EXE_shard_worker`, booted from artifacts exported by
//! `ShardedIndex::export_shard` — the deployment path, not a test
//! double.

use serpdiv_corpus::{Testbed, TestbedConfig};
use serpdiv_fleet::{FleetConfig, FleetRouter};
use serpdiv_index::{
    Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc, SearchEngine as DphEngine,
    ShardedIndex,
};
use serpdiv_mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv_querylog::{split_sessions, FreqTable, LogConfig, QueryLogGenerator};
use serpdiv_serve::{AlgorithmKind, EngineConfig, QueryRequest, SearchEngine};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// A fleet of real shard-worker processes over exported artifacts, with
/// kill/respawn control. Killed on drop.
struct Fleet {
    dir: PathBuf,
    artifacts: Vec<PathBuf>,
    sockets: Vec<PathBuf>,
    children: Vec<Option<Child>>,
}

impl Fleet {
    fn spawn(sharded: &ShardedIndex, tag: &str) -> Fleet {
        let dir = std::env::temp_dir().join(format!(
            "serpdiv-fleet-eq-{}-{tag}-{}",
            std::process::id(),
            sharded.num_shards()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut fleet = Fleet {
            dir: dir.clone(),
            artifacts: Vec::new(),
            sockets: Vec::new(),
            children: Vec::new(),
        };
        for s in 0..sharded.num_shards() {
            let artifact = dir.join(format!("shard-{s}.bin"));
            std::fs::write(&artifact, sharded.export_shard(s)).expect("write artifact");
            fleet.artifacts.push(artifact);
            fleet.sockets.push(dir.join(format!("shard-{s}.sock")));
            fleet.children.push(None);
            fleet.respawn(s);
        }
        fleet
    }

    fn respawn(&mut self, s: usize) {
        let child = Command::new(env!("CARGO_BIN_EXE_shard_worker"))
            .arg("--artifact")
            .arg(&self.artifacts[s])
            .arg("--socket")
            .arg(&self.sockets[s])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn shard_worker");
        if let Some(mut old) = self.children[s].replace(child) {
            let _ = old.kill();
            let _ = old.wait();
        }
    }

    fn kill(&mut self, s: usize) {
        if let Some(mut child) = self.children[s].take() {
            let _ = child.kill();
            let _ = child.wait(); // reap, so the socket is truly dead
        }
    }

    fn router(&self, index: Arc<InvertedIndex>) -> FleetRouter {
        let router = FleetRouter::new(index, self.sockets.clone(), FleetConfig::default());
        router
            .wait_ready(Duration::from_secs(10))
            .expect("fleet boots");
        router
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for s in 0..self.children.len() {
            self.kill(s);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn assert_bit_identical(expect: &[ScoredDoc], got: &[ScoredDoc], context: &str) {
    assert_eq!(expect.len(), got.len(), "{context}: length");
    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
        assert_eq!(e.doc, g.doc, "{context}: doc at rank {i}");
        assert_eq!(
            e.score.to_bits(),
            g.score.to_bits(),
            "{context}: score bits at rank {i} ({} vs {})",
            e.score,
            g.score
        );
    }
}

/// Tie-heavy corpus (duplicate texts ⇒ exact score ties straddling shard
/// boundaries — the merge tie-break is what could drift).
fn tie_heavy_index() -> Arc<InvertedIndex> {
    let texts = [
        "apple iphone smartphone chip battery",
        "apple fruit orchard sweet harvest",
        "apple pie cinnamon recipe baking",
        "storm wind rain forecast cloud",
    ];
    let mut b = IndexBuilder::new();
    for i in 0..30u32 {
        b.add(Document::new(
            i,
            format!("http://tie/{i}"),
            "",
            texts[i as usize % texts.len()],
        ));
    }
    Arc::new(b.build())
}

#[test]
fn fleet_pages_are_bit_identical_to_in_process_oracle() {
    let index = tie_heavy_index();
    let oracle = DphEngine::new(&index);
    let queries = [
        "apple",
        "apple iphone",
        "apple pie recipe",
        "storm rain",
        "apple apple fruit", // duplicate query term (multiplicity weighting)
        "chip orchard cinnamon cloud",
    ];
    for shards in [1usize, 2, 4] {
        let sharded = ShardedIndex::build(index.clone(), shards);
        let fleet = Fleet::spawn(&sharded, "bits");
        let router = fleet.router(index.clone());
        for query in queries {
            for k in [1, 2, 7, 13, 30, 100] {
                let ctx = format!("{query:?} k={k} shards={shards}");
                let expect = oracle.search(query, k);
                assert_bit_identical(&expect, &sharded.retrieve(query, k), &ctx);
                let through_fleet = router.retrieve_with_status_within(query, k, None);
                assert!(through_fleet.complete, "{ctx}: healthy fleet is complete");
                assert_bit_identical(&expect, &through_fleet.hits, &format!("{ctx} [fleet]"));
            }
        }
        let m = router.metrics();
        assert_eq!(m.partial_gathers, 0, "healthy fleet never degrades");
        assert_eq!(m.shard_failures, 0);
    }
}

/// Offline stack for the serve-layer comparison: synthetic testbed →
/// query log → mined specialization model (the same pipeline as the
/// serving suite).
fn mined_deployment() -> (Arc<InvertedIndex>, Arc<SpecializationModel>, Vec<String>) {
    let mut cfg = TestbedConfig::small();
    cfg.num_topics = 4;
    cfg.docs_per_subtopic = 8;
    cfg.noise_docs = 80;
    let testbed = Testbed::generate(cfg);
    let generator = QueryLogGenerator::new(LogConfig::tiny(), &testbed.topics, &testbed.background);
    let (log, _) = generator.generate();
    let physical = split_sessions(&log);
    let qfg = QueryFlowGraph::build(&log, &physical);
    let logical = qfg.extract_logical_sessions(&log, &physical, 0.001);
    let shortcuts = ShortcutsModel::train(&log, &logical, 16);
    let freq = FreqTable::build(&log);
    let detector = AmbiguityDetector::new(&shortcuts, &freq, 10.0);
    let model = SpecializationModel::mine(&log, &detector);
    assert!(!model.is_empty(), "mining must detect ambiguous queries");
    let topics = testbed.topics.iter().map(|t| t.query.clone()).collect();
    (Arc::new(testbed.build_index()), Arc::new(model), topics)
}

#[test]
fn served_pages_through_fleet_match_in_process_serving_for_all_diversifiers() {
    let (index, model, topics) = mined_deployment();
    let config = EngineConfig {
        n_candidates: 50,
        ..EngineConfig::default()
    };
    // Oracle: the full serving engine over an in-process sharded index.
    let sharded: Arc<dyn Retriever> = Arc::new(ShardedIndex::build(index.clone(), 2));
    let oracle = SearchEngine::deploy(index.clone(), model.clone(), config);
    let deployed = oracle.generation();
    let oracle_sharded = SearchEngine::with_retriever_and_forward(
        index.clone(),
        sharded,
        model.clone(),
        deployed.store().clone(),
        deployed.compiled().clone(),
        None,
        config,
    );
    // Subject: the same engine, retrieval through 2 worker processes.
    let fleet = Fleet::spawn(&ShardedIndex::build(index.clone(), 2), "serve");
    let router: Arc<dyn Retriever> = Arc::new(fleet.router(index.clone()));
    let subject = SearchEngine::with_retriever_and_forward(
        index.clone(),
        router,
        model.clone(),
        deployed.store().clone(),
        deployed.compiled().clone(),
        None,
        config,
    );

    let algorithms = [
        AlgorithmKind::OptSelect,
        AlgorithmKind::IaSelect,
        AlgorithmKind::XQuad,
        AlgorithmKind::Mmr,
    ];
    let mut compared = 0usize;
    for query in &topics {
        for &algo in &algorithms {
            for k in [3usize, 10] {
                let req = QueryRequest::new(query.clone(), k, algo);
                let expect = oracle_sharded.search(req.clone());
                let got = subject.search(req);
                let ctx = format!("{query:?} {algo:?} k={k}");
                assert_eq!(expect.algorithm, got.algorithm, "{ctx}: algorithm");
                assert_eq!(expect.diversified, got.diversified, "{ctx}: diversified");
                assert!(!got.degraded, "{ctx}: healthy fleet must not degrade");
                assert_eq!(expect.results.len(), got.results.len(), "{ctx}: page size");
                for (i, (e, g)) in expect.results.iter().zip(got.results.iter()).enumerate() {
                    assert_eq!(e.doc, g.doc, "{ctx}: doc at rank {i}");
                    assert_eq!(
                        e.score.to_bits(),
                        g.score.to_bits(),
                        "{ctx}: score bits at rank {i}"
                    );
                }
                compared += 1;
            }
        }
    }
    assert!(compared >= 32, "sweep must cover the algorithm matrix");
}

#[test]
fn killing_a_worker_degrades_and_recovery_restores_exact_pages() {
    let index = tie_heavy_index();
    let oracle = DphEngine::new(&index);
    let sharded = ShardedIndex::build(index.clone(), 2);
    let mut fleet = Fleet::spawn(&sharded, "kill");
    let router = Arc::new(fleet.router(index.clone()));

    // Serve through the full engine so degradation is labeled/counted at
    // the serving layer. No result cache: every request must really hit
    // the fleet.
    let engine = SearchEngine::with_retriever_and_forward(
        index.clone(),
        router.clone() as Arc<dyn Retriever>,
        Arc::new(SpecializationModel::default()),
        Arc::new(serpdiv_core::SpecializationStore::default()),
        Arc::new(serpdiv_core::CompiledSpecStore::default()),
        None,
        EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    );

    let req = || QueryRequest::new("apple pie", 5, AlgorithmKind::Baseline);
    let healthy = engine.search(req());
    assert!(!healthy.degraded);
    assert_bit_identical(
        &oracle.search("apple pie", 5),
        &healthy
            .results
            .iter()
            .map(|r| ScoredDoc {
                doc: r.doc,
                score: r.score,
            })
            .collect::<Vec<_>>(),
        "healthy fleet through the engine",
    );

    // Kill shard 1 mid-run: the next response is degraded — distinctly
    // labeled, counted apart from deadline degradation — not torn, not
    // hung.
    fleet.kill(1);
    let degraded = engine.search(req());
    assert!(degraded.degraded, "lost shard must degrade the response");
    assert_eq!(degraded.algorithm, "DPH (degraded: shard loss)");
    assert!(!degraded.diversified);
    // Not torn: the surviving page contains only shard-0 documents
    // (contiguous partitioning puts docs [0, ceil(n/2)) in shard 0),
    // still ranked and non-empty.
    let shard0_len = (index.stats().num_docs as usize).div_ceil(2);
    assert!(!degraded.results.is_empty());
    for r in degraded.results.iter() {
        assert!(
            (r.doc.0 as usize) < shard0_len,
            "degraded page must only contain shard-0 documents, got doc {}",
            r.doc.0
        );
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.degraded_shard_loss, 1);
    assert_eq!(
        metrics.degraded, 0,
        "shard loss is not deadline degradation"
    );
    assert!(router.metrics().partial_gathers >= 1);

    // Restart the worker: after the fleet re-verifies ready, pages are
    // bit-identical to the oracle again (the link reconnects on its next
    // exchange).
    fleet.respawn(1);
    router
        .wait_ready(Duration::from_secs(10))
        .expect("fleet recovers");
    let recovered = engine.search(req());
    assert!(!recovered.degraded, "recovered fleet serves complete pages");
    assert_bit_identical(
        &oracle.search("apple pie", 5),
        &recovered
            .results
            .iter()
            .map(|r| ScoredDoc {
                doc: r.doc,
                score: r.score,
            })
            .collect::<Vec<_>>(),
        "recovered fleet",
    );
    assert!(router.metrics().reconnects >= 1, "recovery reconnected");
}
