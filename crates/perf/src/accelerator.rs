//! Accelerator descriptions (HBM bandwidth/capacity, compute throughput).

/// An accelerator's headline specifications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accelerator {
    /// Human-readable name.
    pub name: &'static str,
    /// HBM capacity in bytes.
    pub hbm_capacity_bytes: u64,
    /// Sustained HBM bandwidth in bytes per second.
    pub hbm_bandwidth_bytes_per_s: f64,
    /// Sustained dense compute throughput in FLOP/s (fp16 tensor-core class).
    pub compute_flops_per_s: f64,
    /// Fixed per-decoder-step kernel launch / synchronisation overhead in seconds.
    pub step_overhead_s: f64,
}

impl Accelerator {
    /// An NVIDIA A100 (80 GB)-class accelerator, the paper's evaluation platform.
    /// Bandwidth and compute are derated to sustained (not peak datasheet) values.
    pub fn a100_80gb() -> Self {
        Accelerator {
            name: "A100-80GB",
            hbm_capacity_bytes: 80 * 1024 * 1024 * 1024,
            hbm_bandwidth_bytes_per_s: 1.6e12,
            compute_flops_per_s: 200e12,
            step_overhead_s: 4.0e-4,
        }
    }

    /// A smaller accelerator (A100 40 GB class) used in capacity-sensitivity studies.
    pub fn a100_40gb() -> Self {
        Accelerator {
            name: "A100-40GB",
            hbm_capacity_bytes: 40 * 1024 * 1024 * 1024,
            ..Self::a100_80gb()
        }
    }

    /// Time to stream `bytes` from HBM, in seconds.
    pub fn memory_time(&self, bytes: f64) -> f64 {
        bytes / self.hbm_bandwidth_bytes_per_s
    }

    /// Time to execute `flops` floating-point operations, in seconds.
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.compute_flops_per_s
    }

    /// Returns `true` if a resident set of `bytes` fits in HBM.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.hbm_capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_capacity_and_rates() {
        let a = Accelerator::a100_80gb();
        assert_eq!(a.hbm_capacity_bytes, 80 * 1024 * 1024 * 1024);
        assert!(a.memory_time(1.6e12) > 0.99 && a.memory_time(1.6e12) < 1.01);
        assert!(a.compute_time(200e12) > 0.99 && a.compute_time(200e12) < 1.01);
        assert!(a.fits(79 * 1024 * 1024 * 1024));
        assert!(!a.fits(81 * 1024 * 1024 * 1024));
    }

    #[test]
    fn smaller_card_has_less_capacity_same_bandwidth() {
        let big = Accelerator::a100_80gb();
        let small = Accelerator::a100_40gb();
        assert!(small.hbm_capacity_bytes < big.hbm_capacity_bytes);
        assert_eq!(
            small.hbm_bandwidth_bytes_per_s,
            big.hbm_bandwidth_bytes_per_s
        );
    }

    #[test]
    fn memory_time_scales_linearly() {
        let a = Accelerator::a100_80gb();
        let t1 = a.memory_time(1e9);
        let t2 = a.memory_time(2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
