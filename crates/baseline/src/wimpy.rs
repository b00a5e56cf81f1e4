//! The wimpy embedded-core baseline (§6.2).
//!
//! Conventional in-storage computing runs application logic on the SSD
//! controller's embedded CPUs. The paper evaluates "a high-end 8-core
//! ARM-A57 as wimpy cores inside the SSD controller" and finds them
//! 4.5–22.8× *slower* than the GPU+SSD baseline: matrix-vector similarity
//! kernels on small cores achieve only a few GFLOPs, nowhere near the
//! throughput the scan needs even though the cores enjoy full internal
//! flash bandwidth.

use crate::ScanSpec;
use deepstore_flash::stream::stripe_pages;
use deepstore_flash::{SimDuration, SsdConfig};
use serde::{Deserialize, Serialize};

/// Embedded-CPU in-storage baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WimpyCores {
    /// Core count.
    pub cores: usize,
    /// Effective aggregate fp32 throughput on SCN matrix-vector kernels,
    /// FLOP/s. The A57's NEON units are poorly utilized by small
    /// matrix-vector products; 2 GFLOPs/core effective is generous.
    pub effective_flops: f64,
    /// The drive the cores live in.
    pub ssd: SsdConfig,
}

impl WimpyCores {
    /// The paper's 8-core ARM A57 configuration.
    pub fn arm_a57_octa() -> Self {
        WimpyCores {
            cores: 8,
            effective_flops: 16.0e9,
            ssd: SsdConfig::paper_default(),
        }
    }

    /// Full-scan query time: compute on the embedded cores overlapped with
    /// internal flash streaming.
    pub fn query_time(&self, spec: &ScanSpec) -> SimDuration {
        let compute = SimDuration::from_secs_f64(spec.total_flops() as f64 / self.effective_flops);
        let pages = spec
            .total_bytes()
            .div_ceil(self.ssd.geometry.page_bytes as u64);
        let per_channel = stripe_pages(pages, self.ssd.geometry.channels);
        let stream = deepstore_flash::stream::all_channels_stream(&self.ssd, &per_channel);
        compute.max(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::GpuSsdSystem;
    use deepstore_nn::zoo;

    const DB: u64 = 25 * (1 << 30);

    #[test]
    fn wimpy_cores_are_compute_bound() {
        let w = WimpyCores::arm_a57_octa();
        let spec = ScanSpec::from_model(&zoo::mir(), DB);
        let t = w.query_time(&spec);
        let compute = spec.total_flops() as f64 / w.effective_flops;
        assert!((t.as_secs_f64() - compute).abs() / compute < 1e-9);
    }

    #[test]
    fn wimpy_is_order_of_magnitude_slower_than_gpu() {
        // Figure 8: wimpy cores are 4.5-22.8x slower than GPU+SSD. Our
        // model lands every app in a 5-100x band.
        let w = WimpyCores::arm_a57_octa();
        for app in ["reid", "mir", "estp", "tir", "textqa"] {
            let model = zoo::by_name(app).unwrap();
            let spec = ScanSpec::from_model(&model, DB);
            let tw = w.query_time(&spec).as_secs_f64();
            let tg = GpuSsdSystem::paper_default(app).query(&spec).total_secs;
            let slowdown = tw / tg;
            assert!(
                (4.0..110.0).contains(&slowdown),
                "{app}: slowdown = {slowdown:.1}"
            );
        }
    }

    #[test]
    fn tiny_scan_is_stream_bound() {
        // With almost no compute, the internal stream becomes the limit.
        let mut w = WimpyCores::arm_a57_octa();
        w.effective_flops = 1e15;
        let spec = ScanSpec {
            feature_bytes: 2048,
            flops_per_cmp: 1,
            macs_per_cmp: 1,
            num_features: 1_000_000,
        };
        let t = w.query_time(&spec);
        assert!(t > SimDuration::ZERO);
    }
}
