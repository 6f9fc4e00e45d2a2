//! Device profiles: the capacities and rates of the simulated hardware.
//!
//! The CLM paper evaluates on two testbeds (an RTX 4090 over PCIe 4.0 and an
//! RTX 2080 Ti over PCIe 3.0).  A [`DeviceProfile`] captures the handful of
//! quantities that CLM's behaviour actually depends on — GPU memory
//! capacity, host (pinned) memory capacity, PCIe bandwidth/latency, relative
//! GPU compute rate and CPU Adam throughput — plus the coefficients of a
//! simple analytic cost model for rendering work.

/// Capacities and rates of one simulated GPU + host testbed.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name (e.g. "RTX 4090").
    pub name: String,
    /// GPU memory capacity in bytes.
    pub gpu_memory_bytes: u64,
    /// Host (CPU) memory capacity in bytes, the pool pinned memory is
    /// allocated from.
    pub host_memory_bytes: u64,
    /// Effective PCIe bandwidth in bytes per second (one direction).
    pub pcie_bandwidth: f64,
    /// Fixed per-transfer latency in seconds (kernel launch + DMA setup).
    pub pcie_latency: f64,
    /// Relative GPU compute throughput (1.0 = RTX 4090).
    pub gpu_compute_rate: f64,
    /// CPU Adam throughput in parameters per second.
    pub cpu_adam_params_per_sec: f64,
    /// Seconds of GPU time per rasterised Gaussian in a forward pass
    /// (before dividing by [`gpu_compute_rate`](Self::gpu_compute_rate)).
    pub forward_cost_per_gaussian: f64,
    /// Seconds of GPU time per output pixel in a forward pass.
    pub forward_cost_per_pixel: f64,
    /// Backward-pass cost as a multiple of the forward pass.
    pub backward_multiplier: f64,
    /// Fraction of GPU memory unusable due to allocator fragmentation
    /// (Appendix A.3 discusses how PyTorch's caching allocator fragments).
    pub fragmentation_overhead: f64,
}

impl DeviceProfile {
    /// The paper's primary testbed: 24 GB RTX 4090, PCIe 4.0 ×16,
    /// 128 GB host RAM, 16-core CPU.
    pub fn rtx4090() -> Self {
        DeviceProfile {
            name: "RTX 4090".to_string(),
            gpu_memory_bytes: 24 * GIB,
            host_memory_bytes: 128 * GIB,
            // ~25 GB/s effective on PCIe 4.0 x16.
            pcie_bandwidth: 25.0e9,
            pcie_latency: 10.0e-6,
            gpu_compute_rate: 1.0,
            // 16-core Threadripper running the vectorised CPU Adam.
            cpu_adam_params_per_sec: 2.0e9,
            forward_cost_per_gaussian: 10.0e-9,
            forward_cost_per_pixel: 1.5e-9,
            backward_multiplier: 2.0,
            fragmentation_overhead: 0.06,
        }
    }

    /// The paper's secondary testbed: 11 GB RTX 2080 Ti, PCIe 3.0 ×16,
    /// 256 GB host RAM, 20-core CPU.  It has ~7× fewer FLOPs than the 4090
    /// (≈4× lower effective rasterisation throughput, since splatting is
    /// partly bandwidth-bound) and half the PCIe bandwidth, which makes it
    /// compute-bound.
    pub fn rtx2080ti() -> Self {
        DeviceProfile {
            name: "RTX 2080 Ti".to_string(),
            gpu_memory_bytes: 11 * GIB,
            host_memory_bytes: 256 * GIB,
            // ~12 GB/s effective on PCIe 3.0 x16.
            pcie_bandwidth: 12.0e9,
            pcie_latency: 10.0e-6,
            gpu_compute_rate: 1.0 / 4.0,
            // Older 20-core Xeon.
            cpu_adam_params_per_sec: 0.7e9,
            forward_cost_per_gaussian: 10.0e-9,
            forward_cost_per_pixel: 1.5e-9,
            backward_multiplier: 2.0,
            fragmentation_overhead: 0.06,
        }
    }

    /// GPU memory usable after subtracting the fragmentation overhead.
    pub fn usable_gpu_memory(&self) -> u64 {
        (self.gpu_memory_bytes as f64 * (1.0 - self.fragmentation_overhead)) as u64
    }

    /// Time in seconds to transfer `bytes` over PCIe in one direction.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.pcie_latency + bytes as f64 / self.pcie_bandwidth
        }
    }

    /// GPU time in seconds for a forward pass over `gaussians` splats
    /// rendered at `pixels` output pixels.
    pub fn forward_time(&self, gaussians: u64, pixels: u64) -> f64 {
        (self.forward_cost_per_gaussian * gaussians as f64
            + self.forward_cost_per_pixel * pixels as f64)
            / self.gpu_compute_rate
    }

    /// GPU time in seconds for the corresponding backward pass.
    pub fn backward_time(&self, gaussians: u64, pixels: u64) -> f64 {
        self.forward_time(gaussians, pixels) * self.backward_multiplier
    }

    /// Time in seconds for the CPU Adam thread to update `params`
    /// parameters.
    pub fn cpu_adam_time(&self, params: u64) -> f64 {
        params as f64 / self.cpu_adam_params_per_sec
    }

    /// Time in seconds for a GPU (fused) Adam update over `params`
    /// parameters; modelled as memory-bound and far faster than CPU Adam.
    pub fn gpu_adam_time(&self, params: u64) -> f64 {
        params as f64 / (self.cpu_adam_params_per_sec * 40.0 * self.gpu_compute_rate)
    }
}

/// One gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_testbeds() {
        let a = DeviceProfile::rtx4090();
        let b = DeviceProfile::rtx2080ti();
        assert_eq!(a.gpu_memory_bytes, 24 * GIB);
        assert_eq!(b.gpu_memory_bytes, 11 * GIB);
        // The 2080 Ti has a severalfold lower effective rendering rate and
        // ~2x less PCIe bandwidth.
        assert!(a.gpu_compute_rate / b.gpu_compute_rate > 3.0);
        assert!(a.pcie_bandwidth / b.pcie_bandwidth > 1.9);
        assert!(b.host_memory_bytes > a.host_memory_bytes);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = DeviceProfile::rtx4090();
        assert_eq!(p.transfer_time(0), 0.0);
        let one_mb = p.transfer_time(1_000_000);
        let ten_mb = p.transfer_time(10_000_000);
        assert!(ten_mb > one_mb);
        // Latency floor matters for tiny transfers.
        assert!(p.transfer_time(1) >= p.pcie_latency);
    }

    #[test]
    fn compute_times_scale_with_rate() {
        let fast = DeviceProfile::rtx4090();
        let slow = DeviceProfile::rtx2080ti();
        let f = fast.forward_time(1_000_000, 100_000);
        let s = slow.forward_time(1_000_000, 100_000);
        assert!((s / f - 4.0).abs() < 0.2, "slow/fast = {}", s / f);
        assert!(fast.backward_time(1_000_000, 100_000) > f);
    }

    #[test]
    fn gpu_adam_is_much_faster_than_cpu_adam() {
        let p = DeviceProfile::rtx4090();
        assert!(p.gpu_adam_time(1_000_000) < p.cpu_adam_time(1_000_000) / 10.0);
    }
}
