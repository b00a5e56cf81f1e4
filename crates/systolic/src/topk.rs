//! The controller's top-K sorter (§4.3).
//!
//! "To support top-K sorting, the controller is equipped with a priority
//! queue ... implemented with the help of a sorted tag array and mapping
//! table. The mapping table is indexed with a tag and each entry consists
//! of an accuracy value and feature ID. When the systolic array computes a
//! similarity score, the controller does a binary search on the tag array
//! ... all entries with a lower priority are shifted down by one, the last
//! element is dropped and its tag is given to the new entry."
//!
//! This module implements exactly that structure (functionally) plus a
//! cycle-cost model: a binary search over the tag array followed by a tag
//! shift.

use serde::{Deserialize, Serialize};

/// One mapping-table entry: a similarity score and the feature it belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredFeature {
    /// Similarity score (higher = better match).
    pub score: f32,
    /// Feature identifier (the paper's `ObjectID` holds the physical
    /// address of the feature vector; we carry the logical feature index).
    pub feature_id: u64,
}

/// The most entries [`TopKSorter::new`] reserves up front. `k` arrives
/// from the wire unchecked, so a larger `k` grows the table on demand
/// instead of reserving memory it may never fill.
const MAX_RESERVED: usize = 4096;

/// Hardware-style top-K priority queue: sorted tag array + mapping table.
#[derive(Debug, Clone)]
pub struct TopKSorter {
    k: usize,
    /// Tags sorted by descending score. `tags[i]` indexes `table`.
    tags: Vec<usize>,
    /// Unordered mapping table (tag → entry).
    table: Vec<ScoredFeature>,
    /// Cycle cost accumulated across insertions.
    cycles: u64,
    /// Total insertion attempts.
    inserts: u64,
}

impl TopKSorter {
    /// Creates a sorter retaining the `k` highest-scoring entries.
    ///
    /// `k == 0` is a valid degenerate capacity: every offer is rejected
    /// and [`TopKSorter::ranked`] stays empty. (The wire protocol lets a
    /// host submit `k = 0`; the device must degrade, not abort.)
    pub fn new(k: usize) -> Self {
        let reserved = k.min(MAX_RESERVED);
        TopKSorter {
            k,
            tags: Vec::with_capacity(reserved),
            table: Vec::with_capacity(reserved),
            cycles: 0,
            inserts: 0,
        }
    }

    /// Capacity K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current entry count (≤ K).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the sorter holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Offers a scored feature; keeps it only if it ranks in the top K.
    /// Returns `true` if the entry was retained.
    ///
    /// Entries are ordered by descending score with ties broken by
    /// ascending feature id. That total order makes the retained set (and
    /// its ranking) a function of the offered *set* alone, independent of
    /// arrival order — which is what lets the parallel sharded scan merge
    /// per-channel sorters into a result bit-identical to a serial scan.
    pub fn offer(&mut self, score: f32, feature_id: u64) -> bool {
        self.inserts += 1;
        // Binary search on the (descending) tag array.
        let pos = self.tags.partition_point(|&t| {
            let e = self.table[t];
            e.score > score || (e.score == score && e.feature_id < feature_id)
        });
        self.cycles += (self.tags.len().max(1) as f64).log2().ceil() as u64 + 1;
        if pos >= self.k {
            return false; // score too low for the table (or k == 0)
        }
        let entry = ScoredFeature { score, feature_id };
        if self.tags.len() < self.k {
            // Allocate a fresh tag.
            let tag = self.table.len();
            self.table.push(entry);
            self.tags.insert(pos, tag);
            self.cycles += (self.tags.len() - pos) as u64; // shift cost
        } else {
            // Drop the lowest entry; reuse its tag for the new entry.
            let recycled = self.tags.pop().expect("k > 0");
            self.table[recycled] = entry;
            self.tags.insert(pos, recycled);
            self.cycles += (self.tags.len() - pos) as u64;
        }
        true
    }

    /// The retained entries, highest score first.
    pub fn ranked(&self) -> Vec<ScoredFeature> {
        self.tags.iter().map(|&t| self.table[t]).collect()
    }

    /// The lowest retained score, if the table is full.
    pub fn threshold(&self) -> Option<f32> {
        if self.tags.len() == self.k {
            self.tags.last().map(|&t| self.table[t].score)
        } else {
            None
        }
    }

    /// Modelled controller cycles spent on insertions so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of `offer` calls so far.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Merges another sorter's entries into this one (the query engine's
    /// reduce step, §4.7.1).
    pub fn merge(&mut self, other: &TopKSorter) {
        for e in other.ranked() {
            self.offer(e.score, e.feature_id);
        }
    }
}

/// Analytic average cycle cost per offered score for a capacity-K sorter
/// (used by the timing model without materializing scores): a binary
/// search (`log2 K + 1`) plus the expected shift for accepted entries.
/// `accept_rate` is the fraction of offers that land in the table.
pub fn expected_cycles_per_offer(k: usize, accept_rate: f64) -> f64 {
    let search = (k.max(1) as f64).log2().ceil() + 1.0;
    let shift = accept_rate * (k as f64 / 2.0);
    search + shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_best_k() {
        let mut s = TopKSorter::new(3);
        for (i, score) in [0.1, 0.9, 0.5, 0.7, 0.2, 0.95].iter().enumerate() {
            s.offer(*score, i as u64);
        }
        let ranked = s.ranked();
        let ids: Vec<u64> = ranked.iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![5, 1, 3]);
        assert_eq!(ranked[0].score, 0.95);
        assert_eq!(s.threshold(), Some(0.7));
    }

    #[test]
    fn rejects_scores_below_threshold_once_full() {
        let mut s = TopKSorter::new(2);
        assert!(s.offer(0.5, 0));
        assert!(s.offer(0.6, 1));
        assert!(!s.offer(0.4, 2));
        assert!(s.offer(0.55, 3));
        let ids: Vec<u64> = s.ranked().iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn matches_naive_sort_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let scores: Vec<f32> = (0..500).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut s = TopKSorter::new(10);
        for (i, &sc) in scores.iter().enumerate() {
            s.offer(sc, i as u64);
        }
        let mut naive: Vec<(f32, u64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &sc)| (sc, i as u64))
            .collect();
        naive.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        naive.truncate(10);
        let got: Vec<(f32, u64)> = s.ranked().iter().map(|e| (e.score, e.feature_id)).collect();
        assert_eq!(got, naive);
    }

    #[test]
    fn ties_rank_by_ascending_feature_id() {
        // Equal scores order by feature id — regardless of arrival order,
        // so a merged parallel scan ranks ties exactly like a serial one.
        let mut s = TopKSorter::new(3);
        s.offer(0.5, 0);
        s.offer(0.5, 1);
        s.offer(0.5, 2);
        let ids: Vec<u64> = s.ranked().iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);

        let mut rev = TopKSorter::new(3);
        rev.offer(0.5, 2);
        rev.offer(0.5, 0);
        rev.offer(0.5, 1);
        assert_eq!(rev.ranked(), s.ranked());
    }

    #[test]
    fn tied_score_with_lower_id_evicts_higher_id() {
        let mut s = TopKSorter::new(2);
        s.offer(0.5, 7);
        s.offer(0.5, 9);
        assert!(s.offer(0.5, 3), "lower id outranks tied higher ids");
        let ids: Vec<u64> = s.ranked().iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![3, 7]);
        // A tied id above every retained one is rejected.
        assert!(!s.offer(0.5, 8));
    }

    #[test]
    fn merge_combines_partial_results() {
        let mut a = TopKSorter::new(2);
        a.offer(0.9, 0);
        a.offer(0.1, 1);
        let mut b = TopKSorter::new(2);
        b.offer(0.8, 2);
        b.offer(0.7, 3);
        a.merge(&b);
        let ids: Vec<u64> = a.ranked().iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn cycle_model_accumulates() {
        let mut s = TopKSorter::new(8);
        for i in 0..100 {
            s.offer(i as f32 / 100.0, i);
        }
        assert!(s.cycles() > 0);
        assert_eq!(s.inserts(), 100);
        // Ascending scores: every offer is accepted, so cycles include
        // shifts as well as searches.
        assert!(s.cycles() > 100);
    }

    #[test]
    fn expected_cycles_is_reasonable() {
        let e = expected_cycles_per_offer(10, 0.0);
        assert!((e - 5.0).abs() < 1e-9); // ceil(log2 10) + 1
        assert!(expected_cycles_per_offer(10, 1.0) > e);
    }

    // `k == 0` used to panic in the constructor; it is now a valid
    // degenerate capacity so a hostile wire command `query { k: 0 }`
    // cannot abort the device.
    #[test]
    fn zero_k_accepts_nothing() {
        let mut s = TopKSorter::new(0);
        assert!(!s.offer(0.9, 1));
        assert!(s.ranked().is_empty());
        assert!(s.is_empty());
        assert_eq!(s.threshold(), None);
        assert_eq!(s.inserts(), 1);
    }

    #[test]
    fn k_larger_than_stream_keeps_everything() {
        let mut s = TopKSorter::new(100);
        for (i, score) in [0.3, 0.1, 0.9].iter().enumerate() {
            assert!(s.offer(*score, i as u64));
        }
        let ids: Vec<u64> = s.ranked().iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![2, 0, 1]);
        assert_eq!(s.threshold(), None, "table never fills");
    }

    #[test]
    fn merging_empty_sorters_is_identity() {
        let mut a = TopKSorter::new(3);
        a.offer(0.4, 1);
        let before = a.ranked();
        a.merge(&TopKSorter::new(3));
        assert_eq!(a.ranked(), before);
        // And merging *into* an empty sorter copies the other side.
        let mut empty = TopKSorter::new(3);
        empty.merge(&a);
        assert_eq!(empty.ranked(), before);
    }

    #[test]
    fn merge_order_does_not_matter() {
        // The reduce step must be deterministic whatever order shards
        // finish in: merge three shard sorters in every permutation and
        // demand identical rankings, including tied scores.
        let shard_data: [&[(f32, u64)]; 3] = [
            &[(0.9, 0), (0.5, 3), (0.5, 6)],
            &[(0.5, 1), (0.2, 4)],
            &[(0.9, 2), (0.5, 5), (0.1, 8)],
        ];
        let shards: Vec<TopKSorter> = shard_data
            .iter()
            .map(|entries| {
                let mut s = TopKSorter::new(4);
                for &(score, id) in *entries {
                    s.offer(score, id);
                }
                s
            })
            .collect();
        let permutations = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut results = permutations.iter().map(|perm| {
            let mut merged = TopKSorter::new(4);
            for &i in perm {
                merged.merge(&shards[i]);
            }
            merged.ranked()
        });
        let first = results.next().unwrap();
        let ids: Vec<u64> = first.iter().map(|e| e.feature_id).collect();
        assert_eq!(ids, vec![0, 2, 1, 3], "score desc, ties by id asc");
        for r in results {
            assert_eq!(r, first);
        }
    }

    #[test]
    fn empty_state_is_consistent() {
        let s = TopKSorter::new(4);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.threshold(), None);
        assert!(s.ranked().is_empty());
    }

    /// A small `k` reserves exactly `k` entries; a `k` from the wire
    /// that no allocation could hold reserves a bounded table that
    /// grows as entries arrive, and still retains every offer.
    #[test]
    fn huge_k_grows_on_demand() {
        for k in [8, 10] {
            let s = TopKSorter::new(k);
            assert_eq!((s.tags.capacity(), s.table.capacity()), (k, k));
        }
        let mut s = TopKSorter::new(1 << 60);
        assert_eq!(s.table.capacity(), MAX_RESERVED);
        for i in 0..MAX_RESERVED as u64 + 3 {
            assert!(s.offer(i as f32, i));
        }
        assert_eq!(s.len(), MAX_RESERVED + 3);
        assert_eq!(s.threshold(), None);
    }
}
