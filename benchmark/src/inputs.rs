//! Seed-derived inputs. The same `--seed` always yields the same
//! features, queries and plans; the program under test only ever sees
//! these values, never the seed or the workload name.

use deepstore_nn::{Model, Tensor};
use deepstore_workloads::loadgen::{plan, ArrivalProcess, LoadPlanConfig, Offered};
use deepstore_workloads::TraceDistribution;

use crate::spec;

/// Independent input streams derived from one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Model weights.
    Model = 1,
    /// Database features.
    Features = 2,
    /// Measured-phase queries.
    Queries = 3,
    /// Probe queries verified against the reference.
    Probes = 4,
    /// The serve workload's offered-load plan.
    Plan = 5,
}

/// splitmix64 over `(seed, stream, index)`.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the model weights. The weights stand in for a trained model,
/// which is part of the deployment and not of the traffic: they stay the
/// same under every `--seed`, because how tightly the int8 bound prunes
/// depends on them and would otherwise move every latency by +-10%
/// between seeds.
pub const MODEL_SEED: u64 = 42;

/// The zoo architecture `base` with the fixed [`MODEL_SEED`] weights.
pub fn model(base: Model) -> Model {
    base.seeded(mix(MODEL_SEED, Stream::Model, 0))
}

/// `n` tensors of the model's feature length from one stream, starting
/// at `start`.
pub fn tensors(model: &Model, seed: u64, stream: Stream, start: u64, n: u64) -> Vec<Tensor> {
    (start..start + n)
        .map(|i| model.random_feature(mix(seed, stream, i)))
        .collect()
}

/// The Zipf query stream of the serve workload: `queries` offered queries
/// over a [`spec::SERVE_POOL`]-query pool with noisy near-duplicates,
/// Poisson arrivals at `qps` (closed-loop callers ignore the times).
pub fn zipf_plan(model: &Model, seed: u64, queries: usize, qps: f64) -> Vec<Offered> {
    plan(&LoadPlanConfig {
        queries,
        qps,
        arrivals: ArrivalProcess::Poisson,
        dim: model.feature_len(),
        pool_size: spec::SERVE_POOL,
        clusters: spec::SERVE_CLUSTERS,
        distribution: TraceDistribution::Zipfian {
            alpha: spec::SERVE_ALPHA,
        },
        duplicate_rate: spec::SERVE_DUPLICATES,
        seed: mix(seed, Stream::Plan, 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let m = model(zoo::textqa());
        let a = tensors(&m, 7, Stream::Features, 0, 4);
        assert_eq!(a, tensors(&m, 7, Stream::Features, 0, 4));
        assert_ne!(a, tensors(&m, 8, Stream::Features, 0, 4));
        assert_ne!(a, tensors(&m, 7, Stream::Queries, 0, 4));
        assert_eq!(a[2..], tensors(&m, 7, Stream::Features, 2, 2)[..]);
        let p = zipf_plan(&m, 7, 50, 100.0);
        let q = zipf_plan(&m, 7, 50, 100.0);
        assert!(p
            .iter()
            .zip(&q)
            .all(|(x, y)| x.qfv == y.qfv && x.at == y.at));
    }
}
