//! Simulated CPU configurations (paper Table 2) and internal-bandwidth
//! curves (pmbw measurements, Figures 10c / 11c / 12c).

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// How a CPU's measured LLC-to-cores bandwidth scales with active cores.
///
/// The paper measured these with pmbw; the three evaluation CPUs show three
/// qualitatively different shapes, which drive the three figures' stories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InternalBwCurve {
    /// Linear at `gbs_per_core` up to `knee` cores, then a shallower
    /// `gbs_per_core_past_knee` slope (Intel i9-10900K: saturates past ~6
    /// cores, Figure 10c).
    Saturating {
        /// GB/s added per core before the knee.
        gbs_per_core: f64,
        /// Core count where scaling degrades.
        knee: usize,
        /// GB/s added per core past the knee.
        gbs_per_core_past_knee: f64,
    },
    /// `gbs_per_core * p` for all p (AMD 5950X: "increases roughly linearly
    /// by 50 GB/s per core", Figure 12c).
    Linear {
        /// GB/s added per core.
        gbs_per_core: f64,
    },
    /// Flat beyond a couple of cores (ARM Cortex-A53: "does not increase
    /// with the number of cores beyond 2", Figure 11c).
    Flat {
        /// Single-core bandwidth.
        base_gbs: f64,
        /// Asymptotic multi-core bandwidth.
        plateau_gbs: f64,
    },
}

impl InternalBwCurve {
    /// Measured-shape internal bandwidth at `p` active cores, GB/s.
    pub fn at(&self, p: usize) -> f64 {
        let pf = p as f64;
        match *self {
            InternalBwCurve::Saturating {
                gbs_per_core,
                knee,
                gbs_per_core_past_knee,
            } => {
                if p <= knee {
                    gbs_per_core * pf
                } else {
                    gbs_per_core * knee as f64 + gbs_per_core_past_knee * (pf - knee as f64)
                }
            }
            InternalBwCurve::Linear { gbs_per_core } => gbs_per_core * pf,
            InternalBwCurve::Flat { base_gbs, plateau_gbs } => {
                if p <= 1 {
                    base_gbs
                } else {
                    // Smooth approach to the plateau from 2 cores on.
                    plateau_gbs - (plateau_gbs - base_gbs) / pf
                }
            }
        }
    }

    /// The idealized linear extrapolation the paper's dashed lines use
    /// ("assume internal bandwidth increases proportionally per core").
    pub fn extrapolated(&self, p: usize) -> f64 {
        let slope = match *self {
            InternalBwCurve::Saturating { gbs_per_core, .. } => gbs_per_core,
            InternalBwCurve::Linear { gbs_per_core } => gbs_per_core,
            InternalBwCurve::Flat { base_gbs, .. } => base_gbs,
        };
        slope * p as f64
    }
}

/// A simulated CPU: Table 2 entries plus kernel/clock characteristics used
/// by the timing engine.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Human-readable name.
    pub name: String,
    /// Physical cores.
    pub cores: usize,
    /// Core clock, GHz.
    pub freq_ghz: f64,
    /// Per-core L1 data cache, bytes.
    pub l1_bytes: usize,
    /// Per-core private L2, bytes.
    pub l2_bytes: usize,
    /// Shared last-level cache, bytes (for the ARM part this *is* the L2;
    /// `l2_bytes` then models the L1 as the private level, following the
    /// paper's "local memory may be the L2 or L3 depending on
    /// architecture").
    pub llc_bytes: usize,
    /// DRAM capacity, bytes.
    pub dram_bytes: usize,
    /// Peak DRAM bandwidth, GB/s (Table 2).
    pub dram_bw_gbs: f64,
    /// Fraction of peak DRAM bandwidth sustainable under GEMM's mixed
    /// read/write streams (refresh, bank conflicts, write turnaround).
    /// ~1.0 for desktop DDR4, well below 1 for the A53's LPDDR interface
    /// (Figure 11a: ARMPL saturates near 1.1 GB/s of the nominal 2).
    pub dram_efficiency: f64,
    /// Memory-bus clock, GHz (DDR4-2933 runs its bus at 1.4665 GHz, etc).
    /// The event engine derives the DRAM channel's clock divider from the
    /// ratio of this to `freq_ghz`.
    pub dram_clock_ghz: f64,
    /// Uncore / LLC-fabric clock, GHz; divider source for the LLC port.
    pub llc_clock_ghz: f64,
    /// Whether DRAM stores allocate (read the line first). Vendor desktop
    /// libraries use non-temporal stores for C (no allocate); the ARM
    /// kernels use plain stores, doubling partial-C write traffic.
    pub write_allocate: bool,
    /// Measured internal-bandwidth scaling curve.
    pub internal_bw: InternalBwCurve,
    /// Sustained MACs per cycle per core for f32 GEMM (captures SIMD width
    /// and FMA throughput after real-kernel derating; calibrated to the
    /// paper's reported GFLOP/s).
    pub macs_per_cycle_f32: f64,
    /// Kernel register-tile rows used on this CPU.
    pub mr: usize,
    /// Kernel register-tile columns used on this CPU.
    pub nr: usize,
    /// Memory-level latencies in cycles (L1, L2, LLC, DRAM) for the stall
    /// model of Figure 7a.
    pub latency_cycles: [f64; 4],
}

impl CpuConfig {
    /// Intel i9-10900K (Table 2 row 1): 10 cores, 40 GB/s DRAM, 20 MiB L3,
    /// internal bandwidth saturating past 6 cores (Figure 10c).
    pub fn intel_i9_10900k() -> Self {
        Self {
            name: "Intel i9-10900K".into(),
            cores: 10,
            freq_ghz: 3.7,
            l1_bytes: 32 * KIB,
            l2_bytes: 256 * KIB,
            llc_bytes: 20 * MIB,
            dram_bytes: 32 * 1024 * MIB,
            dram_bw_gbs: 40.0,
            dram_efficiency: 0.95,
            dram_clock_ghz: 1.4665, // DDR4-2933 bus clock
            llc_clock_ghz: 3.0,     // Comet Lake uncore
            write_allocate: false,
            internal_bw: InternalBwCurve::Saturating {
                gbs_per_core: 58.0,
                knee: 6,
                gbs_per_core_past_knee: 20.0,
            },
            macs_per_cycle_f32: 16.0, // ~1.18 TFLOP/s at 10 cores
            mr: 6,
            nr: 16,
            latency_cycles: [4.0, 14.0, 42.0, 220.0],
        }
    }

    /// AMD Ryzen 9 5950X (Table 2 row 2): 16 cores, 47 GB/s DRAM, 64 MiB
    /// L3, internal bandwidth ~linear at 50 GB/s per core (Figure 12c).
    pub fn amd_ryzen_9_5950x() -> Self {
        Self {
            name: "AMD Ryzen 9 5950X".into(),
            cores: 16,
            freq_ghz: 3.4,
            l1_bytes: 32 * KIB,
            l2_bytes: 512 * KIB,
            llc_bytes: 64 * MIB,
            dram_bytes: 128 * 1024 * MIB,
            dram_bw_gbs: 47.0,
            dram_efficiency: 0.95,
            dram_clock_ghz: 1.6, // DDR4-3200 bus clock
            llc_clock_ghz: 1.8,  // Zen 3 fabric (fclk)
            write_allocate: false,
            internal_bw: InternalBwCurve::Linear { gbs_per_core: 50.0 },
            macs_per_cycle_f32: 11.0, // ~1.2 TFLOP/s at 16 cores
            mr: 6,
            nr: 16,
            latency_cycles: [4.0, 12.0, 46.0, 210.0],
        }
    }

    /// ARM v8 Cortex-A53 (Table 2 row 3): 4 cores, 2 GB/s DRAM, 512 KiB
    /// shared L2 as the LLC, internal bandwidth flat past 2 cores
    /// (Figure 11c).
    pub fn arm_cortex_a53() -> Self {
        Self {
            name: "ARM v8 Cortex-A53".into(),
            cores: 4,
            freq_ghz: 1.4,
            l1_bytes: 16 * KIB,
            // No private L2 on this part: the private level is the L1 and
            // the shared 512 KiB L2 plays the LLC role.
            l2_bytes: 16 * KIB,
            llc_bytes: 512 * KIB,
            dram_bytes: 1024 * MIB,
            dram_bw_gbs: 2.0,
            dram_efficiency: 0.55,
            dram_clock_ghz: 0.8, // LPDDR3 bus clock
            llc_clock_ghz: 0.7,  // CCI/L2 fabric
            write_allocate: true,
            internal_bw: InternalBwCurve::Flat {
                base_gbs: 10.0,
                plateau_gbs: 14.0,
            },
            macs_per_cycle_f32: 1.0, // NEON dual-issue FMA derated; ~11 GFLOP/s at 4 cores
            mr: 4,
            nr: 4,
            latency_cycles: [3.0, 15.0, 15.0, 150.0],
        }
    }

    /// All Table 2 CPUs.
    pub fn table2() -> Vec<CpuConfig> {
        vec![
            Self::intel_i9_10900k(),
            Self::amd_ryzen_9_5950x(),
            Self::arm_cortex_a53(),
        ]
    }

    /// Look a Table-2 CPU up by its short name (`intel`, `amd`, `arm`).
    pub fn by_name(name: &str) -> Option<CpuConfig> {
        match name {
            "intel" => Some(Self::intel_i9_10900k()),
            "amd" => Some(Self::amd_ryzen_9_5950x()),
            "arm" => Some(Self::arm_cortex_a53()),
            _ => None,
        }
    }

    /// Short names accepted by [`Self::by_name`], in Table-2 order.
    pub fn table2_names() -> [&'static str; 3] {
        ["intel", "amd", "arm"]
    }

    /// Internal bandwidth at `p` cores, GB/s (measured shape).
    pub fn internal_bw_gbs(&self, p: usize) -> f64 {
        self.internal_bw.at(p)
    }

    /// Usable DRAM bandwidth, GB/s.
    pub fn usable_dram_bw_gbs(&self) -> f64 {
        self.dram_bw_gbs * self.dram_efficiency
    }

    /// Peak f32 throughput at `p` cores, GFLOP/s.
    pub fn peak_gflops(&self, p: usize) -> f64 {
        2.0 * self.macs_per_cycle_f32 * p as f64 * self.freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_constants() {
        let intel = CpuConfig::intel_i9_10900k();
        assert_eq!(intel.cores, 10);
        assert_eq!(intel.llc_bytes, 20 * MIB);
        assert_eq!(intel.dram_bw_gbs, 40.0);

        let amd = CpuConfig::amd_ryzen_9_5950x();
        assert_eq!(amd.cores, 16);
        assert_eq!(amd.llc_bytes, 64 * MIB);
        assert_eq!(amd.dram_bw_gbs, 47.0);

        let arm = CpuConfig::arm_cortex_a53();
        assert_eq!(arm.cores, 4);
        assert_eq!(arm.dram_bw_gbs, 2.0);
        assert_eq!(arm.llc_bytes, 512 * KIB);
    }

    #[test]
    fn intel_internal_bw_saturates_past_knee() {
        let c = CpuConfig::intel_i9_10900k();
        let slope_early = c.internal_bw_gbs(4) - c.internal_bw_gbs(3);
        let slope_late = c.internal_bw_gbs(9) - c.internal_bw_gbs(8);
        assert!(slope_late < slope_early * 0.5);
        // Monotone non-decreasing.
        for p in 1..10 {
            assert!(c.internal_bw_gbs(p + 1) >= c.internal_bw_gbs(p));
        }
    }

    #[test]
    fn amd_internal_bw_linear() {
        let c = CpuConfig::amd_ryzen_9_5950x();
        for p in 1..=16 {
            assert!((c.internal_bw_gbs(p) - 50.0 * p as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn arm_internal_bw_flat_past_two_cores() {
        let c = CpuConfig::arm_cortex_a53();
        let d12 = c.internal_bw_gbs(2) - c.internal_bw_gbs(1);
        let d34 = c.internal_bw_gbs(4) - c.internal_bw_gbs(3);
        assert!(d34 < d12 * 0.6, "d12={d12} d34={d34}");
        assert!(c.internal_bw_gbs(8) < 15.0);
    }

    #[test]
    fn extrapolation_is_linear_everywhere() {
        for c in CpuConfig::table2() {
            let e1 = c.internal_bw.extrapolated(1);
            for p in 2..=2 * c.cores {
                assert!((c.internal_bw.extrapolated(p) - e1 * p as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn peak_gflops_in_papers_ballpark() {
        // Figure 10b: Intel ~1.1-1.2 TFLOP/s at 10 cores.
        let intel = CpuConfig::intel_i9_10900k();
        let g = intel.peak_gflops(10);
        assert!((1000.0..1400.0).contains(&g), "intel {g}");
        // Figure 12b: AMD ~1.2 TFLOP/s at 16 cores.
        let amd = CpuConfig::amd_ryzen_9_5950x();
        let g = amd.peak_gflops(16);
        assert!((1000.0..1400.0).contains(&g), "amd {g}");
        // Figure 11b: ARM ~10-11 GFLOP/s at 4 cores.
        let arm = CpuConfig::arm_cortex_a53();
        let g = arm.peak_gflops(4);
        assert!((8.0..14.0).contains(&g), "arm {g}");
    }

    #[test]
    fn by_name_covers_table2_and_rejects_unknown() {
        for name in CpuConfig::table2_names() {
            assert!(CpuConfig::by_name(name).is_some(), "{name} missing");
        }
        assert!(CpuConfig::by_name("m1").is_none());
        assert_eq!(CpuConfig::by_name("arm").unwrap().cores, 4);
    }

    #[test]
    fn clock_domains_are_slower_than_cores() {
        // Every Table-2 part clocks its memory bus and LLC fabric at or
        // below the core clock, so the event engine's dividers are >= 1.
        for c in CpuConfig::table2() {
            assert!(c.dram_clock_ghz > 0.0 && c.dram_clock_ghz <= c.freq_ghz);
            assert!(c.llc_clock_ghz > 0.0 && c.llc_clock_ghz <= c.freq_ghz);
        }
    }

    #[test]
    fn configs_clone_round_trip() {
        let c = CpuConfig::intel_i9_10900k();
        let back = c.clone();
        assert_eq!(back.name, c.name);
        assert_eq!(back.cores, c.cores);
        assert_eq!(back.internal_bw, c.internal_bw);
    }
}
