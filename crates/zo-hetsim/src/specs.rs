//! Hardware specifications for the simulated testbed.
//!
//! These mirror Table 2 of the paper (a DGX-2 node: 16×V100-32GB, 2×Xeon
//! 8168, 1.5 TB DDR4, 32 GB/s bidirectional PCIe) plus the 8-node
//! InfiniBand cluster used for the scalability experiment (Fig. 11).

/// Gigabytes as bytes.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// A GPU model: compute rates and memory capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Peak fp16 (tensor core) throughput in TFLOP/s.
    pub peak_fp16_tflops: f64,
    /// Peak fp32 throughput in TFLOP/s.
    pub peak_fp32_tflops: f64,
    /// Device memory bandwidth in GB/s.
    pub hbm_gbps: f64,
    /// Fraction of peak achievable by large transformer kernels.
    ///
    /// End-to-end transformer training on V100 lands at 30–50 TFLOPS out
    /// of 112–125 peak; this caps the efficiency model.
    pub max_efficiency: f64,
    /// Micro-batch scale at which kernels reach ~63% of `max_efficiency`.
    ///
    /// Smaller micro-batches launch thinner GEMMs that cannot fill the
    /// device; the efficiency model is
    /// `max_efficiency * (1 - exp(-micro_batch / batch_knee))`.
    pub batch_knee: f64,
}

impl GpuSpec {
    /// Achieved fraction of peak fp16 throughput for a given micro-batch.
    pub fn efficiency(&self, micro_batch: f64) -> f64 {
        self.max_efficiency * (1.0 - (-micro_batch / self.batch_knee).exp())
    }

    /// Achieved fp16 TFLOP/s for a given micro-batch.
    pub fn achieved_tflops(&self, micro_batch: f64) -> f64 {
        self.peak_fp16_tflops * self.efficiency(micro_batch)
    }

    /// Seconds to execute `flops` floating point operations at `micro_batch`.
    pub fn compute_secs(&self, flops: f64, micro_batch: f64) -> f64 {
        flops / (self.achieved_tflops(micro_batch) * 1e12)
    }
}

/// A CPU socket-pair model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Host memory capacity in bytes.
    pub mem_bytes: u64,
    /// Total cores across sockets.
    pub cores: u32,
    /// Aggregate DDR streaming bandwidth in GB/s.
    pub ddr_gbps: f64,
    /// Optimized CPU-Adam latency in seconds per billion parameters.
    ///
    /// Calibrated from Table 4 (CPU-Adam: ~0.25 s/B on 2×Xeon 8168); the
    /// `zo-bench` harness re-measures this constant on the host with the
    /// real `CpuAdam` kernel.
    pub cpu_adam_secs_per_b: f64,
    /// PyTorch-style naive Adam latency in seconds per billion parameters
    /// (Table 4 PT-CPU: ~1.4 s/B).
    pub naive_adam_secs_per_b: f64,
}

impl CpuSpec {
    /// Seconds for an optimized CPU-Adam step over `params` parameters,
    /// using `share` of the node's CPU (1.0 = whole node).
    pub fn adam_secs(&self, params: f64, share: f64) -> f64 {
        (params / 1e9) * self.cpu_adam_secs_per_b / share.max(1e-9)
    }

    /// Seconds for a naive (PT-CPU) Adam step over `params` parameters.
    pub fn naive_adam_secs(&self, params: f64, share: f64) -> f64 {
        (params / 1e9) * self.naive_adam_secs_per_b / share.max(1e-9)
    }
}

/// A point-to-point link (PCIe between one GPU and the host).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth per direction in GB/s.
    pub gbps_each_way: f64,
    /// Fixed per-transfer latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// Seconds to move `bytes` one way.
    pub fn transfer_secs(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / (self.gbps_each_way * 1e9)
    }
}

/// An NVMe device attached to the host — the memory tier below DRAM
/// (ZeRO-Infinity's direction: optimizer states stream from flash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeSpec {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Sequential read bandwidth in GB/s.
    pub read_gbps: f64,
    /// Sequential write bandwidth in GB/s.
    pub write_gbps: f64,
    /// Fixed per-operation latency in seconds.
    pub latency_s: f64,
}

impl NvmeSpec {
    /// Seconds to read `bytes` sequentially.
    pub fn read_secs(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / (self.read_gbps * 1e9)
    }

    /// Seconds to write `bytes` sequentially.
    pub fn write_secs(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / (self.write_gbps * 1e9)
    }

    /// Seconds for one optimizer sweep that reads and rewrites `bytes` of
    /// tier-resident state (the per-step cost of the streaming schedule,
    /// assuming reads and writes share the device serially).
    pub fn sweep_secs(&self, bytes: f64) -> f64 {
        self.read_secs(bytes) + self.write_secs(bytes)
    }
}

/// A multi-GPU node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// The GPU model.
    pub gpu: GpuSpec,
    /// The CPU complex.
    pub cpu: CpuSpec,
    /// Host↔GPU link per GPU.
    pub pcie: LinkSpec,
    /// Effective per-GPU NVLink bus bandwidth for collectives, GB/s.
    pub nvlink_gbps: f64,
    /// Optional NVMe tier below host DRAM (`None` = no flash tier).
    pub nvme: Option<NvmeSpec>,
}

/// A cluster of identical nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Inter-node InfiniBand bandwidth per node in GB/s.
    pub ib_gbps_per_node: f64,
}

impl ClusterSpec {
    /// Total GPU count.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.node.gpus_per_node
    }

    /// Effective per-GPU bus bandwidth (GB/s) for ring collectives over
    /// `gpus` participants.
    ///
    /// Within one node the ring runs over NVLink; as soon as it spans
    /// nodes, the slowest hop — the InfiniBand uplink shared by all GPUs
    /// of a node — bounds the ring.
    pub fn collective_gbps(&self, gpus: u32) -> f64 {
        if gpus <= self.node.gpus_per_node {
            self.node.nvlink_gbps
        } else {
            // Each node's uplink carries the traffic of its whole GPU set.
            self.ib_gbps_per_node / self.node.gpus_per_node as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn gpu_efficiency_monotone_and_bounded() {
        let gpu = presets::v100();
        let mut last = 0.0;
        for mb in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let e = gpu.efficiency(mb);
            assert!(e > last, "efficiency must grow with micro-batch");
            assert!(e <= gpu.max_efficiency);
            last = e;
        }
        // Large batches saturate near max_efficiency.
        assert!(gpu.efficiency(256.0) > 0.99 * gpu.max_efficiency);
    }

    #[test]
    fn compute_secs_scales_linearly_in_flops() {
        let gpu = presets::v100();
        let t1 = gpu.compute_secs(1e12, 16.0);
        let t2 = gpu.compute_secs(2e12, 16.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn link_transfer_includes_latency() {
        let link = LinkSpec {
            gbps_each_way: 16.0,
            latency_s: 10e-6,
        };
        // 16 GB at 16 GB/s = 1 s plus latency.
        let t = link.transfer_secs(16e9);
        assert!((t - 1.00001).abs() < 1e-9);
    }

    #[test]
    fn adam_secs_scale_with_share() {
        let cpu = presets::dgx2().cpu;
        let whole = cpu.adam_secs(10e9, 1.0);
        let quarter = cpu.adam_secs(10e9, 0.25);
        assert!((quarter / whole - 4.0).abs() < 1e-9);
        assert!(cpu.naive_adam_secs(1e9, 1.0) > cpu.adam_secs(1e9, 1.0));
    }

    #[test]
    fn cluster_collective_bandwidth_drops_across_nodes() {
        let cluster = presets::dgx2_cluster(8);
        let intra = cluster.collective_gbps(16);
        let inter = cluster.collective_gbps(32);
        assert!(intra > inter, "IB must be slower than NVLink");
        assert_eq!(cluster.total_gpus(), 128);
    }
}
