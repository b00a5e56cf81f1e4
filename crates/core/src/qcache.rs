//! The similarity-based in-storage Query Cache (§4.6, Algorithm 1).
//!
//! Unlike a conventional result cache that needs exact key matches, the
//! Query Cache exploits the error tolerance of DNN-based queries: a new
//! query that is *semantically similar* to a cached query can reuse the
//! cached top-K results without scanning the feature database. Each entry
//! holds the cached query feature vector (the tag), a valid bit, the top-K
//! feature vectors and their `ObjectID`s.
//!
//! Lookup follows Algorithm 1: the Query Comparison Network (QCN) scores
//! the new query against every cached entry on the channel-level
//! accelerators; the best score is multiplied by the QCN's accuracy, and
//! the entry hits when the complement of that confidence-weighted score is
//! within the configured threshold. Hits promote the entry (LRU);
//! misses trigger a full scan and insert the new query.

use crate::config::AcceleratorConfig;
use deepstore_flash::SimDuration;
use deepstore_nn::LayerShape;
use deepstore_nn::Tensor;
use deepstore_systolic::cycles::scn_cycles_per_feature;
use deepstore_systolic::topk::ScoredFeature;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Replacement policy for the query cache. The paper uses LRU (§4.6);
/// FIFO and random are provided for the `ablation_qc_policy` study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used: hits promote entries (paper default).
    #[default]
    Lru,
    /// Insertion order only: hits do not promote.
    Fifo,
    /// Evict a pseudo-random entry.
    Random,
}

/// Query Cache configuration (the `setQC` API, Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryCacheConfig {
    /// Maximum entries.
    pub capacity: usize,
    /// Error threshold: a lookup hits when `1 - score <= threshold`
    /// (Algorithm 1, line 11). "A hyper-parameter that depends on the
    /// model and can be tuned during deployment."
    pub threshold: f64,
    /// The QCN's published accuracy, multiplied into every comparison
    /// score (Algorithm 1, line 7).
    pub qcn_accuracy: f64,
}

impl QueryCacheConfig {
    /// The §6.5 evaluation setup: 1000 entries, 10% threshold, and the
    /// Universal Sentence Encoder's ~0.92 test accuracy as the QCN
    /// accuracy.
    pub fn paper_default() -> Self {
        QueryCacheConfig {
            capacity: 1000,
            threshold: 0.10,
            qcn_accuracy: 0.92,
        }
    }
}

/// One cached query with its results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QcEntry {
    /// The cached query feature vector (the tag).
    pub qfv: Tensor,
    /// Valid bit.
    pub valid: bool,
    /// Cached top-K results (scores + ObjectIDs).
    pub top_k: Vec<ScoredFeature>,
}

/// Statistics accumulated by the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QcStats {
    /// Lookup calls.
    pub lookups: u64,
    /// Hits.
    pub hits: u64,
    /// Insertions.
    pub inserts: u64,
    /// Evictions (LRU).
    pub evictions: u64,
}

impl QcStats {
    /// Miss rate in [0, 1]; 1.0 when no lookups have happened.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            1.0 - self.hits as f64 / self.lookups as f64
        }
    }
}

/// The similarity-based query cache.
///
/// The QCN here is a radial-basis similarity network over the two query
/// feature vectors: `score = exp(-||q1 - q2||² / d)`. It stands in for the
/// paper's Universal Sentence Encoder (see DESIGN.md, substitutions): what
/// Figures 13–14 measure is hit/miss statistics as a function of the
/// threshold and the query distribution, which depend only on the QCN
/// ranking near-duplicates above unrelated queries — exactly what the RBF
/// network provides. Its *cost* model uses the application's QCN layer
/// shapes, executed on the channel-level accelerators (§4.6).
#[derive(Debug, Clone)]
pub struct QueryCache {
    config: QueryCacheConfig,
    /// Entries in recency order: front = most recent (LRU) / newest
    /// (FIFO).
    entries: VecDeque<QcEntry>,
    policy: ReplacementPolicy,
    /// xorshift state for the random policy.
    rng_state: u64,
    stats: QcStats,
}

impl QueryCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the threshold is outside [0, 1].
    pub fn new(config: QueryCacheConfig) -> Self {
        assert!(config.capacity > 0, "capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&config.threshold),
            "threshold must be in [0, 1]"
        );
        QueryCache {
            config,
            entries: VecDeque::new(),
            policy: ReplacementPolicy::Lru,
            rng_state: 0x243F_6A88_85A3_08D3,
            stats: QcStats::default(),
        }
    }

    /// Switches the replacement policy (builder-style).
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The active configuration.
    pub fn config(&self) -> &QueryCacheConfig {
        &self.config
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> QcStats {
        self.stats
    }

    /// The QCN similarity score between two query feature vectors.
    pub fn qcn_score(a: &Tensor, b: &Tensor) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let d2: f64 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum();
        (-d2 / a.len().max(1) as f64).exp()
    }

    /// Algorithm 1: finds the best-matching valid entry; on a hit,
    /// promotes it and returns its cached top-K.
    pub fn lookup(&mut self, qfv: &Tensor) -> Option<Vec<ScoredFeature>> {
        self.stats.lookups += 1;
        let mut max_index = None;
        let mut max_score = 0.0f64;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.valid || e.qfv.len() != qfv.len() {
                continue;
            }
            let score = Self::qcn_score(qfv, &e.qfv) * self.config.qcn_accuracy;
            if score > max_score {
                max_score = score;
                max_index = Some(i);
            }
        }
        match max_index {
            Some(i) if 1.0 - max_score <= self.config.threshold => {
                self.stats.hits += 1;
                if self.policy == ReplacementPolicy::Lru {
                    let entry = self.entries.remove(i).expect("index in range");
                    let result = entry.top_k.clone();
                    self.entries.push_front(entry); // LRU promote
                    Some(result)
                } else {
                    Some(self.entries[i].top_k.clone())
                }
            }
            _ => None,
        }
    }

    /// Inserts a query with its scan results, evicting per the active
    /// replacement policy when full.
    pub fn insert(&mut self, qfv: Tensor, top_k: Vec<ScoredFeature>) {
        self.stats.inserts += 1;
        if self.entries.len() == self.config.capacity {
            match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    self.entries.pop_back();
                }
                ReplacementPolicy::Random => {
                    // xorshift64*
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    let victim = (self.rng_state % self.entries.len() as u64) as usize;
                    self.entries.remove(victim);
                }
            }
            self.stats.evictions += 1;
        }
        self.entries.push_front(QcEntry {
            qfv,
            valid: true,
            top_k,
        });
    }

    /// Invalidates every entry (e.g. after `writeDB`/`appendDB` changes
    /// the database the results were computed against).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }
}

/// Lookup-time model for a cache of `entries` entries (standalone so the
/// benches can sweep sizes without building caches).
pub fn lookup_time_for(
    entries: usize,
    qcn_shapes: &[LayerShape],
    channels: usize,
    overhead_cycles: u64,
) -> SimDuration {
    let acc = AcceleratorConfig::channel_level();
    let per_entry = scn_cycles_per_feature(qcn_shapes, &acc.array) + overhead_cycles;
    let shard = (entries as u64).div_ceil(channels.max(1) as u64);
    SimDuration::from_secs_f64(acc.array.cycles_to_secs(per_entry * shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    fn qfv(seed: u64) -> Tensor {
        Tensor::random(vec![64], 1.0, seed)
    }

    fn perturbed(base: &Tensor, eps: f32, seed: u64) -> Tensor {
        let noise = Tensor::random(vec![base.len()], eps, seed);
        base.add(&noise).unwrap()
    }

    fn results(n: u64) -> Vec<ScoredFeature> {
        (0..n)
            .map(|i| ScoredFeature {
                score: 1.0 - i as f32 * 0.1,
                feature_id: i,
            })
            .collect()
    }

    fn cache(threshold: f64) -> QueryCache {
        QueryCache::new(QueryCacheConfig {
            capacity: 4,
            threshold,
            qcn_accuracy: 0.95,
        })
    }

    #[test]
    fn exact_repeat_hits() {
        let mut qc = cache(0.10);
        let q = qfv(1);
        assert!(qc.lookup(&q).is_none());
        qc.insert(q.clone(), results(3));
        let hit = qc.lookup(&q).unwrap();
        assert_eq!(hit.len(), 3);
        assert_eq!(qc.stats().hits, 1);
        assert_eq!(qc.stats().lookups, 2);
    }

    #[test]
    fn near_duplicate_hits_unrelated_misses() {
        let mut qc = cache(0.15);
        let q = qfv(1);
        qc.insert(q.clone(), results(2));
        // Small perturbation: should hit.
        let near = perturbed(&q, 0.05, 2);
        assert!(qc.lookup(&near).is_some());
        // Unrelated query: should miss.
        let far = qfv(99);
        assert!(qc.lookup(&far).is_none());
    }

    #[test]
    fn tighter_threshold_rejects_more() {
        let q = qfv(1);
        let near = perturbed(&q, 0.15, 2);
        let mut strict = cache(0.051); // qcn_accuracy alone costs 0.05
        strict.insert(q.clone(), results(1));
        let mut loose = cache(0.30);
        loose.insert(q, results(1));
        assert!(strict.lookup(&near).is_none());
        assert!(loose.lookup(&near).is_some());
    }

    #[test]
    fn qcn_score_properties() {
        let a = qfv(5);
        assert!((QueryCache::qcn_score(&a, &a) - 1.0).abs() < 1e-12);
        let b = qfv(6);
        let s = QueryCache::qcn_score(&a, &b);
        assert!(s > 0.0 && s < 0.9);
        // Symmetry.
        assert_eq!(s, QueryCache::qcn_score(&b, &a));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut qc = cache(0.06);
        let queries: Vec<Tensor> = (0..5).map(qfv).collect();
        for q in &queries {
            qc.insert(q.clone(), results(1));
        }
        assert_eq!(qc.len(), 4);
        assert_eq!(qc.stats().evictions, 1);
        // queries[0] was evicted; queries[1] survives.
        assert!(qc.lookup(&queries[0]).is_none());
        assert!(qc.lookup(&queries[1]).is_some());
    }

    #[test]
    fn hit_promotes_entry() {
        let mut qc = cache(0.06);
        let queries: Vec<Tensor> = (0..4).map(qfv).collect();
        for q in &queries {
            qc.insert(q.clone(), results(1));
        }
        // Touch the oldest, then insert one more: the second-oldest gets
        // evicted instead.
        assert!(qc.lookup(&queries[0]).is_some());
        qc.insert(qfv(100), results(1));
        assert!(qc.lookup(&queries[0]).is_some());
        assert!(qc.lookup(&queries[1]).is_none());
    }

    #[test]
    fn invalidate_clears() {
        let mut qc = cache(0.05);
        qc.insert(qfv(1), results(1));
        qc.invalidate_all();
        assert!(qc.is_empty());
        assert!(qc.lookup(&qfv(1)).is_none());
    }

    #[test]
    fn lookup_time_scales_with_entries_and_is_far_below_scan() {
        // §6.5: searching 1K entries costs ~0.3 ms, "significantly less
        // than the cost of scanning the entire feature database".
        let shapes = zoo::tir().layer_shapes();
        let t1k = lookup_time_for(1000, &shapes, 32, 150);
        let t100 = lookup_time_for(100, &shapes, 32, 150);
        assert!(t1k > t100);
        let ms = t1k.as_millis_f64();
        assert!((0.01..2.0).contains(&ms), "1K-entry lookup = {ms} ms");
    }

    #[test]
    fn miss_rate_reporting() {
        let mut qc = cache(0.06);
        assert_eq!(qc.stats().miss_rate(), 1.0);
        let q = qfv(1);
        qc.lookup(&q);
        qc.insert(q.clone(), results(1));
        qc.lookup(&q);
        assert!((qc.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_does_not_promote() {
        let mut qc = cache(0.06).with_policy(ReplacementPolicy::Fifo);
        let queries: Vec<Tensor> = (0..4).map(qfv).collect();
        for q in &queries {
            qc.insert(q.clone(), results(1));
        }
        // Touch the oldest (queries[0]); under FIFO it is still evicted by
        // the next insert.
        assert!(qc.lookup(&queries[0]).is_some());
        qc.insert(qfv(100), results(1));
        assert!(qc.lookup(&queries[0]).is_none());
    }

    #[test]
    fn random_policy_keeps_capacity_bound() {
        let mut qc = cache(0.06).with_policy(ReplacementPolicy::Random);
        for i in 0..50 {
            qc.insert(qfv(i), results(1));
            assert!(qc.len() <= 4);
        }
        assert_eq!(qc.stats().evictions, 46);
        assert_eq!(qc.policy(), ReplacementPolicy::Random);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = QueryCache::new(QueryCacheConfig {
            capacity: 0,
            threshold: 0.1,
            qcn_accuracy: 0.9,
        });
    }
}
