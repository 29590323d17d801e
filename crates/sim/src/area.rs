//! Silicon-area to microarchitecture mapping (paper Eqs. 11–12).
//!
//! The C²-Bound optimizer works in the area domain: a core of area `A0`,
//! a private L1 of area `A1` and an L2 slice of area `A2` per core, `N`
//! cores, and a fixed shared-function area `Ac`, constrained by
//! `A = N(A0 + A1 + A2) + Ac` (Eq. 12). This module translates an area
//! point into a concrete [`ChipConfig`] the simulator can run:
//!
//! * **Pollack's rule** (Eq. 11): core performance scales with the
//!   square root of core area, so `CPI_exe = k0 · A0^{-1/2} + φ0`, and
//!   the issue width / ROB size grow with `sqrt(A0)`;
//! * **cache density**: capacity is proportional to area, rounded to a
//!   power of two for indexability.

use crate::config::{CacheConfig, ChipConfig, CoreConfig};
use crate::{Error, Result};

/// The total silicon budget (the fixed right-hand side of Eq. 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiliconBudget {
    /// Total die area `A` in mm².
    pub total_area: f64,
    /// Shared-function area `Ac` (interconnect, memory controllers,
    /// test/debug) in mm².
    pub shared_area: f64,
}

impl SiliconBudget {
    /// Validated constructor: a finite total area, `0 <= shared < total`.
    pub fn new(total_area: f64, shared_area: f64) -> Result<Self> {
        if !total_area.is_finite() || !(0.0..total_area).contains(&shared_area) {
            return Err(Error::InvalidConfig("invalid silicon budget"));
        }
        Ok(SiliconBudget {
            total_area,
            shared_area,
        })
    }

    /// Validated construction from a scenario budget spec.
    pub fn from_spec(spec: &c2_config::BudgetSpec) -> Result<Self> {
        SiliconBudget::new(spec.total_area_mm2, spec.shared_area_mm2)
    }

    /// Area available for cores and caches: `A − Ac`.
    pub fn usable(&self) -> f64 {
        self.total_area - self.shared_area
    }

    /// Whether an `(N, A0, A1, A2)` point satisfies Eq. 12 (with slack).
    pub fn admits(&self, n: f64, a0: f64, a1: f64, a2: f64) -> bool {
        n * (a0 + a1 + a2) <= self.usable() + 1e-9
    }
}

/// Technology constants for the area translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Pollack coefficient `k0` in `CPI_exe = k0 · A0^{-1/2} + φ0`.
    pub pollack_k0: f64,
    /// Pollack floor `φ0` (the CPI of an infinitely large core).
    pub pollack_phi0: f64,
    /// Reference core area (mm²) of a 4-wide, 128-entry-ROB OoO core.
    pub reference_core_area: f64,
    /// Cache density in bytes per mm².
    pub cache_bytes_per_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            pollack_k0: 1.0,
            pollack_phi0: 0.2,
            reference_core_area: 4.0,
            cache_bytes_per_mm2: 512.0 * 1024.0,
        }
    }
}

impl AreaModel {
    /// Validated construction from a scenario area spec.
    pub fn from_spec(spec: &c2_config::AreaSpec) -> Result<Self> {
        for x in [
            spec.pollack_k0,
            spec.pollack_phi0,
            spec.reference_core_area,
            spec.cache_bytes_per_mm2,
        ] {
            if !(x > 0.0) || !x.is_finite() {
                return Err(Error::InvalidConfig(
                    "area-model coefficients must be finite and positive",
                ));
            }
        }
        Ok(AreaModel {
            pollack_k0: spec.pollack_k0,
            pollack_phi0: spec.pollack_phi0,
            reference_core_area: spec.reference_core_area,
            cache_bytes_per_mm2: spec.cache_bytes_per_mm2,
        })
    }

    /// `CPI_exe(A0) = k0 · A0^{-1/2} + φ0` (paper Eq. 11).
    pub fn cpi_exe(&self, a0: f64) -> f64 {
        debug_assert!(a0 > 0.0);
        self.pollack_k0 / a0.sqrt() + self.pollack_phi0
    }

    /// Core microarchitecture for a core area: issue width and ROB scale
    /// with `sqrt(A0 / A_ref)` around the 4-wide/128-entry reference.
    pub fn core_config(&self, a0: f64) -> CoreConfig {
        debug_assert!(a0 > 0.0);
        let scale = (a0 / self.reference_core_area).sqrt();
        let issue_width = ((4.0 * scale).round() as usize).clamp(1, 16);
        let rob_size = ((128.0 * scale).round() as usize).clamp(1, 1024);
        CoreConfig {
            issue_width,
            rob_size,
            exec_latency: 1,
        }
    }

    /// Continuous cache capacity in bytes (no power-of-two rounding) —
    /// used by the analytical optimizer, where a piecewise-constant
    /// capacity map would zero out the gradients.
    pub fn cache_bytes_continuous(&self, area: f64) -> f64 {
        debug_assert!(area > 0.0);
        (area * self.cache_bytes_per_mm2).max(4096.0)
    }

    /// `d/d(area)` of [`AreaModel::cache_bytes_continuous`]: the density
    /// above the 4 KiB floor, 0 on it. The second derivative is 0
    /// everywhere off the kink.
    pub fn cache_bytes_slope(&self, area: f64) -> f64 {
        debug_assert!(area > 0.0);
        if area * self.cache_bytes_per_mm2 > 4096.0 {
            self.cache_bytes_per_mm2
        } else {
            0.0
        }
    }

    /// Cache capacity (bytes, power of two, ≥ 4 KiB) for a cache area.
    pub fn cache_bytes(&self, area: f64) -> u64 {
        debug_assert!(area > 0.0);
        let raw = (area * self.cache_bytes_per_mm2).max(4096.0);
        let bits = (raw.log2().round() as u32).min(34);
        1u64 << bits
    }

    /// L1 configuration for area `a1`: capacity from the density model;
    /// latency grows logarithmically with capacity; MSHRs and ports grow
    /// with the owning core's issue width.
    pub fn l1_config(&self, a1: f64, core: &CoreConfig) -> CacheConfig {
        let size = self.cache_bytes(a1);
        // 3 cycles at 32 KiB, +1 per 4x capacity.
        let steps = (size as f64 / (32.0 * 1024.0)).log2().max(0.0) / 2.0;
        CacheConfig {
            size_bytes: size,
            line_size: 64,
            associativity: 8,
            hit_latency: 3 + steps.round() as u32,
            mshr_entries: (2 * core.issue_width).max(4),
            ports: (core.issue_width / 2).max(1),
            banks: 4,
            next_line_prefetch: false,
        }
    }

    /// Shared L2 configuration for `n` cores each contributing area `a2`.
    pub fn l2_config(&self, a2: f64, n: usize) -> CacheConfig {
        let size = self.cache_bytes(a2 * n as f64 * 2.0); // L2 SRAM is denser
        let steps = (size as f64 / (2.0 * 1024.0 * 1024.0)).log2().max(0.0) / 2.0;
        CacheConfig {
            size_bytes: size.max(64 * 1024),
            line_size: 64,
            associativity: 16,
            hit_latency: 12 + steps.round() as u32,
            mshr_entries: (4 * n).clamp(16, 64),
            ports: n.clamp(2, 8),
            banks: (n.next_power_of_two()).clamp(4, 32),
            next_line_prefetch: false,
        }
    }

    /// Translate a full `(N, A0, A1, A2)` design point into a simulatable
    /// chip configuration.
    pub fn chip_config(
        &self,
        budget: &SiliconBudget,
        n: usize,
        a0: f64,
        a1: f64,
        a2: f64,
    ) -> Result<ChipConfig> {
        if n == 0 || !(a0 > 0.0) || !(a1 > 0.0) || !(a2 > 0.0) {
            return Err(Error::InvalidConfig("non-positive design point"));
        }
        if !budget.admits(n as f64, a0, a1, a2) {
            return Err(Error::InvalidConfig("design point exceeds the area budget"));
        }
        let core = self.core_config(a0);
        let config = ChipConfig {
            cores: n,
            core,
            l1: self.l1_config(a1, &core),
            l2: self.l2_config(a2, n),
            dram: crate::config::DramConfig::default_ddr3(),
            noc: crate::config::NocConfig::default_mesh(),
            max_cycles: 500_000_000,
            fault: crate::fault::FaultPlan::default(),
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rejects_non_finite_areas() {
        assert!(SiliconBudget::new(400.0, 40.0).is_ok());
        for (total, shared) in [
            (f64::INFINITY, 40.0),
            (f64::NAN, 40.0),
            (400.0, f64::NAN),
            (400.0, f64::INFINITY),
        ] {
            assert!(
                SiliconBudget::new(total, shared).is_err(),
                "{total} {shared}"
            );
        }
    }

    #[test]
    fn pollack_cpi_decreases_with_area() {
        let m = AreaModel::default();
        assert!(m.cpi_exe(1.0) > m.cpi_exe(4.0));
        assert!(m.cpi_exe(4.0) > m.cpi_exe(16.0));
        // sqrt scaling: quadrupling area halves the k0 term.
        let d1 = m.cpi_exe(1.0) - m.pollack_phi0;
        let d4 = m.cpi_exe(4.0) - m.pollack_phi0;
        assert!((d1 / d4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reference_core_is_the_paper_ooo() {
        let m = AreaModel::default();
        let c = m.core_config(m.reference_core_area);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_size, 128);
    }

    #[test]
    fn small_core_is_narrow() {
        let m = AreaModel::default();
        let c = m.core_config(0.25);
        assert_eq!(c.issue_width, 1);
        assert!(c.rob_size <= 32);
    }

    #[test]
    fn cache_bytes_power_of_two_and_monotone() {
        let m = AreaModel::default();
        let mut prev = 0;
        for area in [0.01, 0.05, 0.2, 1.0, 4.0, 16.0] {
            let b = m.cache_bytes(area);
            assert!(b.is_power_of_two());
            assert!(b >= prev);
            prev = b;
        }
        // ~0.0625 mm2 at 512 KiB/mm2 -> 32 KiB.
        assert_eq!(m.cache_bytes(0.0625), 32 * 1024);
    }

    #[test]
    fn cache_bytes_slope_is_the_density_above_the_floor() {
        let m = AreaModel::default();
        assert_eq!(m.cache_bytes_slope(0.5), m.cache_bytes_per_mm2);
        // 0.005 mm² buys 2.6 KB: on the 4 KiB floor, flat.
        assert_eq!(m.cache_bytes_continuous(0.005), 4096.0);
        assert_eq!(m.cache_bytes_slope(0.005), 0.0);
    }

    #[test]
    fn l1_latency_grows_with_capacity() {
        let m = AreaModel::default();
        let core = m.core_config(4.0);
        let small = m.l1_config(0.0625, &core);
        let big = m.l1_config(1.0, &core);
        assert!(big.size_bytes > small.size_bytes);
        assert!(big.hit_latency > small.hit_latency);
        assert!(small.validate().is_ok());
        assert!(big.validate().is_ok());
    }

    #[test]
    fn chip_config_respects_budget() {
        let m = AreaModel::default();
        let budget = SiliconBudget::new(100.0, 10.0).unwrap();
        // 8 cores * (4 + 0.5 + 1) = 44 <= 90: fine.
        let c = m.chip_config(&budget, 8, 4.0, 0.5, 1.0).unwrap();
        assert_eq!(c.cores, 8);
        assert!(c.validate().is_ok());
        // 32 cores * 11.25 > 90: rejected.
        assert!(m.chip_config(&budget, 32, 10.0, 0.75, 0.5).is_err());
    }

    #[test]
    fn budget_validation() {
        assert!(SiliconBudget::new(0.0, 0.0).is_err());
        assert!(SiliconBudget::new(10.0, 10.0).is_err());
        assert!(SiliconBudget::new(10.0, -1.0).is_err());
        let b = SiliconBudget::new(100.0, 20.0).unwrap();
        assert!((b.usable() - 80.0).abs() < 1e-12);
        assert!(b.admits(10.0, 4.0, 2.0, 2.0));
        assert!(!b.admits(11.0, 4.0, 2.0, 2.0));
    }

    #[test]
    fn degenerate_points_rejected() {
        let m = AreaModel::default();
        let budget = SiliconBudget::new(100.0, 10.0).unwrap();
        assert!(m.chip_config(&budget, 0, 1.0, 1.0, 1.0).is_err());
        assert!(m.chip_config(&budget, 1, 0.0, 1.0, 1.0).is_err());
        assert!(m.chip_config(&budget, 1, 1.0, -1.0, 1.0).is_err());
    }
}
