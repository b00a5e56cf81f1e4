//! The harness's own answers: a brute-force ranking over its copy of the
//! features, in the engine's total order (score descending, feature
//! index ascending), and the checks every program answer must pass.

use deepstore_nn::{Model, Tensor};
use std::cmp::Ordering;

/// One ranked answer: `(score, feature index)`.
pub type Ranked = (f32, u64);

/// The engine's total order: higher score first, lower index on ties.
pub fn rank_order(a: &Ranked, b: &Ranked) -> Ordering {
    b.0.partial_cmp(&a.0)
        .expect("scores are finite")
        .then(a.1.cmp(&b.1))
}

/// Top-`k` of `features` for `query` by [`Model::similarity`], scoring
/// every feature.
pub fn brute_force(model: &Model, query: &Tensor, features: &[Tensor], k: usize) -> Vec<Ranked> {
    let mut all: Vec<Ranked> = features
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let score = model.similarity(query, f).expect("reference similarity");
            (score, i as u64)
        })
        .collect();
    all.sort_by(rank_order);
    all.truncate(k);
    all
}

/// [`brute_force`] for each probe, the probes split over at most
/// `threads` harness threads.
pub fn brute_force_all(
    model: &Model,
    probes: &[Tensor],
    features: &[Tensor],
    k: usize,
    threads: usize,
) -> Vec<Vec<Ranked>> {
    let per = probes.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(per)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| brute_force(model, q, features, k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// An answer must equal the reference exactly: same indices in the same
/// order with bit-equal scores.
pub fn check_equals(got: &[Ranked], want: &[Ranked]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} hits, reference has {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.1 != w.1 || g.0.to_bits() != w.0.to_bits() {
            return Err(format!(
                "rank {rank}: got feature {} score {}, reference feature {} score {}",
                g.1, g.0, w.1, w.0
            ));
        }
    }
    Ok(())
}

/// What every measured answer must satisfy without a reference: exactly
/// `k` hits, in the engine's order, over the whole database.
pub fn check_shape(hits: &[Ranked], k: usize, coverage: f64, total: u64) -> Result<(), String> {
    if hits.len() != k {
        return Err(format!("{} hits, wanted {k}", hits.len()));
    }
    if coverage != 1.0 {
        return Err(format!("coverage {coverage}, wanted 1.0"));
    }
    if let Some(bad) = hits.iter().find(|h| h.1 >= total) {
        return Err(format!("feature {} outside a database of {total}", bad.1));
    }
    if hits
        .windows(2)
        .any(|w| rank_order(&w[0], &w[1]) != Ordering::Less)
    {
        return Err("hits are not in score-descending, index-ascending order".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_core::{DeepStore, DeepStoreConfig, QueryRequest};
    use deepstore_nn::{zoo, ModelGraph};

    #[test]
    fn rank_order_is_score_desc_then_index_asc() {
        let mut v = vec![(1.0, 9), (2.0, 5), (1.0, 3), (2.0, 7)];
        v.sort_by(rank_order);
        assert_eq!(v, vec![(2.0, 5), (2.0, 7), (1.0, 3), (1.0, 9)]);
    }

    #[test]
    fn brute_force_ranks_like_the_engine_including_ties() {
        let model = zoo::textqa().seeded(3);
        // Duplicated features force score ties, which the engine breaks
        // by ascending index.
        let mut features: Vec<Tensor> = (0..40).map(|i| model.random_feature(i % 20)).collect();
        features.push(model.random_feature(5));
        let query = model.random_feature(999);
        let want = brute_force(&model, &query, &features, 12);
        assert!(
            want.windows(2).any(|w| w[0].0 == w[1].0),
            "no tie exercised"
        );

        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        let qid = store
            .query(QueryRequest::new(query.clone(), mid, db).k(12))
            .unwrap();
        let got: Vec<Ranked> = store
            .results(qid)
            .unwrap()
            .top_k
            .iter()
            .map(|h| (h.score, h.feature_index))
            .collect();
        check_equals(&got, &want).unwrap();
        check_shape(&got, 12, 1.0, features.len() as u64).unwrap();
        let split = brute_force_all(&model, &[query], &features, 12, 2);
        assert_eq!(split[0], want);
    }

    #[test]
    fn a_corrupted_answer_is_caught() {
        let want = vec![(3.0, 1), (2.0, 4), (1.0, 2)];
        let mut got = want.clone();
        got.swap(0, 1);
        assert!(check_equals(&got, &want).is_err());
        assert!(check_shape(&got, 3, 1.0, 10).is_err());
        assert!(check_shape(&want, 3, 0.5, 10).is_err());
        assert!(check_shape(&want, 2, 1.0, 10).is_err());
        assert!(check_shape(&want, 3, 1.0, 4).is_err());
        assert!(check_shape(&want, 3, 1.0, 10).is_ok());
    }
}
