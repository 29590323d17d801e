//! C-AMAT as a function of cache capacities.
//!
//! The paper's objective (Eq. 10) contains C-AMAT; for the *optimizer*
//! to trade cache area against cores, C-AMAT must respond to the cache
//! capacities the areas buy. This module provides that link:
//!
//! ```text
//! C-AMAT(c1, c2) = H/C_H + pMR(c1) · pAMP(c2) / C_M
//! pMR(c1)  = pure_ratio · MR1(c1)
//! pAMP(c2) = l2_latency + MR2(c2) · dram_latency
//! ```
//!
//! with each level's miss rate following the power-law miss curve
//! `MR(c) = mr0 · (c/c0)^{-α}` (α = 0.5 is the classic √2-rule; large-
//! working-set applications like the paper's fluidanimate case study
//! show heavier tails, α → 1) — or, when a measured
//! [`c2_trace::stats::ReuseProfile`] is available, the *measured* curve.

use c2_trace::stats::ReuseProfile;

use crate::{Error, Result};

/// How a cache level's miss rate responds to capacity.
#[derive(Debug, Clone)]
pub enum CacheSensitivity {
    /// Power law `mr0 · (c/c0)^{-alpha}`, clamped to `[floor, 1]`.
    PowerLaw {
        /// Miss rate at the reference capacity.
        mr0: f64,
        /// Reference capacity in bytes.
        c0: f64,
        /// Capacity exponent (0.5 = √2-rule, 1.0 = heavy tail).
        alpha: f64,
        /// Compulsory-miss floor.
        floor: f64,
    },
    /// A measured LRU miss-rate curve.
    Measured(ReuseProfile),
}

impl CacheSensitivity {
    /// Power-law constructor with validation.
    pub fn power_law(mr0: f64, c0: f64, alpha: f64, floor: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&mr0) {
            return Err(Error::InvalidParameter {
                name: "mr0",
                value: mr0,
            });
        }
        if !(c0 > 0.0) {
            return Err(Error::InvalidParameter {
                name: "c0",
                value: c0,
            });
        }
        if !(alpha >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                value: alpha,
            });
        }
        if !(0.0..=1.0).contains(&floor) {
            return Err(Error::InvalidParameter {
                name: "floor",
                value: floor,
            });
        }
        Ok(CacheSensitivity::PowerLaw {
            mr0,
            c0,
            alpha,
            floor,
        })
    }

    /// Miss rate at capacity `bytes`.
    pub fn miss_rate(&self, bytes: f64) -> f64 {
        match self {
            CacheSensitivity::PowerLaw {
                mr0,
                c0,
                alpha,
                floor,
            } => {
                let raw = mr0 * (bytes / c0).powf(-alpha);
                raw.clamp(*floor, 1.0)
            }
            CacheSensitivity::Measured(profile) => {
                profile.miss_rate_for_capacity(bytes.max(0.0) as u64)
            }
        }
    }

    /// [`CacheSensitivity::miss_rate`] and its first and second
    /// derivatives in capacity. A power law clamped at its floor or at 1
    /// is flat there (slope 0); a measured curve is piecewise constant,
    /// so its slope is 0 everywhere.
    pub fn miss_rate_derivatives(&self, bytes: f64) -> [f64; 3] {
        match self {
            CacheSensitivity::PowerLaw {
                mr0,
                c0,
                alpha,
                floor,
            } => {
                let raw = mr0 * (bytes / c0).powf(-alpha);
                if raw > *floor && raw < 1.0 {
                    let d1 = -alpha * raw / bytes;
                    [raw, d1, -(alpha + 1.0) * d1 / bytes]
                } else {
                    [raw.clamp(*floor, 1.0), 0.0, 0.0]
                }
            }
            CacheSensitivity::Measured(_) => [self.miss_rate(bytes), 0.0, 0.0],
        }
    }
}

/// The program- and hierarchy-specific memory model.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    /// L1 hit time `H` in cycles.
    pub hit_time: f64,
    /// Hit concurrency `C_H` (≥ 1).
    pub hit_concurrency: f64,
    /// Pure-miss concurrency `C_M` (≥ 1).
    pub pure_miss_concurrency: f64,
    /// Ratio of pure misses to conventional misses (`pMR = ratio · MR`).
    pub pure_ratio: f64,
    /// L1-miss-to-L2 service latency in cycles.
    pub l2_latency: f64,
    /// L2-miss-to-DRAM service latency in cycles.
    pub dram_latency: f64,
    /// L1 capacity sensitivity.
    pub l1: CacheSensitivity,
    /// L2 capacity sensitivity.
    pub l2: CacheSensitivity,
}

impl MemoryModel {
    /// A validated model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        hit_time: f64,
        hit_concurrency: f64,
        pure_miss_concurrency: f64,
        pure_ratio: f64,
        l2_latency: f64,
        dram_latency: f64,
        l1: CacheSensitivity,
        l2: CacheSensitivity,
    ) -> Result<Self> {
        for (name, value, lo) in [
            ("hit_time", hit_time, 0.0),
            ("l2_latency", l2_latency, 0.0),
            ("dram_latency", dram_latency, 0.0),
        ] {
            if !(value > lo) {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        for (name, value) in [
            ("hit_concurrency", hit_concurrency),
            ("pure_miss_concurrency", pure_miss_concurrency),
        ] {
            if !(value >= 1.0) {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        if !(0.0..=1.0).contains(&pure_ratio) {
            return Err(Error::InvalidParameter {
                name: "pure_ratio",
                value: pure_ratio,
            });
        }
        Ok(MemoryModel {
            hit_time,
            hit_concurrency,
            pure_miss_concurrency,
            pure_ratio,
            l2_latency,
            dram_latency,
            l1,
            l2,
        })
    }

    /// A representative default: Core-i7-like latencies, moderate
    /// concurrency, √2-rule L1 and heavy-tail L2 around a 32 KiB / 2 MiB
    /// reference hierarchy.
    ///
    /// The `expect`s are unreachable: the literal arguments satisfy
    /// `power_law`'s validation.
    pub fn default_big_data() -> Self {
        MemoryModel {
            hit_time: 3.0,
            hit_concurrency: 2.0,
            pure_miss_concurrency: 2.0,
            pure_ratio: 0.6,
            l2_latency: 16.0,
            dram_latency: 120.0,
            l1: CacheSensitivity::power_law(0.10, 32.0 * 1024.0, 0.5, 1e-4).expect("valid"),
            l2: CacheSensitivity::power_law(0.40, 2.0 * 1024.0 * 1024.0, 1.0, 1e-3).expect("valid"),
        }
    }

    /// Build the model from a simulator characterization run plus
    /// assumed capacity exponents.
    pub fn from_characterization(
        ch: &c2_workloads::Characterization,
        l1_ref_bytes: f64,
        l2_ref_bytes: f64,
        l1_alpha: f64,
        l2_alpha: f64,
        l2_latency: f64,
        dram_latency: f64,
    ) -> Result<Self> {
        let m = &ch.camat;
        let mr = m.miss_rate().max(1e-6);
        let pure_ratio = (m.pure_miss_rate() / mr).clamp(0.0, 1.0);
        MemoryModel::new(
            m.hit_time.max(1.0),
            m.hit_concurrency.max(1.0),
            m.pure_miss_concurrency.max(1.0),
            pure_ratio,
            l2_latency,
            dram_latency,
            CacheSensitivity::power_law(
                ch.l1_miss_rate.clamp(1e-6, 1.0),
                l1_ref_bytes,
                l1_alpha,
                1e-4,
            )?,
            CacheSensitivity::power_law(
                ch.l2_miss_rate.clamp(1e-6, 1.0),
                l2_ref_bytes,
                l2_alpha,
                1e-3,
            )?,
        )
    }

    /// Conventional miss rate at L1 capacity `c1`.
    pub fn l1_miss_rate(&self, c1_bytes: f64) -> f64 {
        self.l1.miss_rate(c1_bytes)
    }

    /// Pure miss rate `pMR(c1)`.
    pub fn pure_miss_rate(&self, c1_bytes: f64) -> f64 {
        self.pure_ratio * self.l1.miss_rate(c1_bytes)
    }

    /// Pure average miss penalty `pAMP(c2)`.
    pub fn pure_amp(&self, c2_bytes: f64) -> f64 {
        self.l2_latency + self.l2.miss_rate(c2_bytes) * self.dram_latency
    }

    /// `C-AMAT(c1, c2)` in cycles per access (paper Eq. 2 with
    /// capacity-dependent pMR and pAMP).
    pub fn camat(&self, c1_bytes: f64, c2_bytes: f64) -> f64 {
        self.hit_time / self.hit_concurrency
            + self.pure_miss_rate(c1_bytes) * self.pure_amp(c2_bytes) / self.pure_miss_concurrency
    }

    /// Gradient and Hessian of [`MemoryModel::camat`] in `(c1, c2)`.
    /// `pMR` depends only on `c1` and `pAMP` only on `c2`, so
    /// `∂²/∂c1∂c2 = pMR'(c1)·pAMP'(c2)/C_M`.
    pub fn camat_derivatives(&self, c1_bytes: f64, c2_bytes: f64) -> ([f64; 2], [[f64; 2]; 2]) {
        let [mr1, mr1_d1, mr1_d2] = self.l1.miss_rate_derivatives(c1_bytes);
        let [mr2, mr2_d1, mr2_d2] = self.l2.miss_rate_derivatives(c2_bytes);
        let cm = self.pure_miss_concurrency;
        let pmr = [mr1, mr1_d1, mr1_d2].map(|m| self.pure_ratio * m / cm);
        let amp = self.l2_latency + mr2 * self.dram_latency;
        let (amp_d1, amp_d2) = (self.dram_latency * mr2_d1, self.dram_latency * mr2_d2);
        let cross = pmr[1] * amp_d1;
        (
            [pmr[1] * amp, pmr[0] * amp_d1],
            [[pmr[2] * amp, cross], [cross, pmr[0] * amp_d2]],
        )
    }

    /// `AMAT(c1, c2)` — the sequential counterpart (Eq. 1), for
    /// C = AMAT/C-AMAT reporting.
    pub fn amat(&self, c1_bytes: f64, c2_bytes: f64) -> f64 {
        self.hit_time + self.l1.miss_rate(c1_bytes) * self.pure_amp(c2_bytes)
    }

    /// The model with both concurrency knobs scaled by `factor`
    /// (clamped at 1) — the paper's C ∈ {1, 4, 8} axis.
    pub fn with_concurrency(&self, factor: f64) -> Result<Self> {
        if !(factor > 0.0) {
            return Err(Error::InvalidParameter {
                name: "factor",
                value: factor,
            });
        }
        let mut m = self.clone();
        m.hit_concurrency = (self.hit_concurrency * factor).max(1.0);
        m.pure_miss_concurrency = (self.pure_miss_concurrency * factor).max(1.0);
        Ok(m)
    }

    /// A fully sequential variant (`C_H = C_M = 1`, pure ratio 1):
    /// C-AMAT degenerates to AMAT.
    pub fn sequential(&self) -> Self {
        let mut m = self.clone();
        m.hit_concurrency = 1.0;
        m.pure_miss_concurrency = 1.0;
        m.pure_ratio = 1.0;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_miss_rate() {
        let s = CacheSensitivity::power_law(0.1, 1024.0, 0.5, 0.001).unwrap();
        assert!((s.miss_rate(1024.0) - 0.1).abs() < 1e-12);
        // Quadrupling capacity halves the miss rate at alpha = 0.5.
        assert!((s.miss_rate(4096.0) - 0.05).abs() < 1e-12);
        // Clamped at the floor and at 1.
        assert_eq!(s.miss_rate(1e18), 0.001);
        assert_eq!(s.miss_rate(1e-6), 1.0);
    }

    #[test]
    fn measured_curve_is_used() {
        use c2_trace::TraceBuilder;
        let mut b = TraceBuilder::new();
        // a b a b: 2 cold + 2 reuses at distance 1.
        for line in [0u64, 1, 0, 1] {
            b.read(line * 64);
        }
        let profile = ReuseProfile::compute(&b.finish(), 64);
        let s = CacheSensitivity::Measured(profile);
        assert!((s.miss_rate(64.0) - 1.0).abs() < 1e-12);
        assert!((s.miss_rate(128.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_derivatives_follow_the_clamps() {
        let s = CacheSensitivity::power_law(0.1, 1024.0, 0.5, 0.001).unwrap();
        // Interior: MR = 0.05 at 4 KiB, MR' = −α·MR/c, MR'' = α(α+1)·MR/c².
        let [mr, d1, d2] = s.miss_rate_derivatives(4096.0);
        assert_eq!(mr, s.miss_rate(4096.0));
        assert!((d1 + 0.5 * 0.05 / 4096.0).abs() < 1e-15);
        assert!((d2 - 0.75 * 0.05 / (4096.0 * 4096.0)).abs() < 1e-18);
        // Clamped at the floor and at 1: flat.
        assert_eq!(s.miss_rate_derivatives(1e18), [0.001, 0.0, 0.0]);
        assert_eq!(s.miss_rate_derivatives(1e-6), [1.0, 0.0, 0.0]);
    }

    #[test]
    fn measured_curve_has_zero_slope() {
        use c2_trace::TraceBuilder;
        let mut b = TraceBuilder::new();
        for line in [0u64, 1, 2, 0, 1, 2, 3, 0] {
            b.read(line * 64);
        }
        let s = CacheSensitivity::Measured(ReuseProfile::compute(&b.finish(), 64));
        for bytes in [64.0, 100.0, 128.0, 192.0, 1e6] {
            assert_eq!(
                s.miss_rate_derivatives(bytes),
                [s.miss_rate(bytes), 0.0, 0.0]
            );
        }
        // So a measured L1 contributes nothing to C-AMAT's gradient.
        let mut m = MemoryModel::default_big_data();
        m.l1 = s;
        let ([d1, _], [[d11, d12], _]) = m.camat_derivatives(128.0, 2e6);
        assert_eq!((d1, d11, d12), (0.0, 0.0, 0.0));
    }

    #[test]
    fn camat_decreases_with_either_cache() {
        let m = MemoryModel::default_big_data();
        let base = m.camat(32e3, 2e6);
        assert!(m.camat(128e3, 2e6) < base);
        assert!(m.camat(32e3, 8e6) < base);
    }

    #[test]
    fn camat_below_amat_and_ratio_is_concurrency() {
        let m = MemoryModel::default_big_data();
        let c1 = 32e3;
        let c2 = 2e6;
        assert!(m.camat(c1, c2) < m.amat(c1, c2));
        let seq = m.sequential();
        assert!((seq.camat(c1, c2) - seq.amat(c1, c2)).abs() < 1e-12);
    }

    #[test]
    fn concurrency_scaling() {
        let m = MemoryModel::default_big_data();
        let c4 = m.with_concurrency(4.0).unwrap();
        let c1 = 32e3;
        let c2 = 2e6;
        assert!(c4.camat(c1, c2) < m.camat(c1, c2));
        // Exactly 4x on both terms.
        assert!((c4.camat(c1, c2) - m.camat(c1, c2) / 4.0).abs() < 1e-12);
        assert!(m.with_concurrency(0.0).is_err());
    }

    #[test]
    fn pure_amp_reflects_l2_capture() {
        let m = MemoryModel::default_big_data();
        // A huge L2 absorbs almost everything: pAMP -> l2_latency.
        let amp_big = m.pure_amp(1e12);
        assert!((amp_big - (m.l2_latency + 0.001 * m.dram_latency)).abs() < 1e-9);
        // A tiny L2 exposes DRAM latency.
        let amp_small = m.pure_amp(1.0);
        assert!(amp_small > m.l2_latency + 0.9 * m.dram_latency);
    }

    #[test]
    fn validation() {
        assert!(CacheSensitivity::power_law(1.5, 1.0, 0.5, 0.0).is_err());
        assert!(CacheSensitivity::power_law(0.5, 0.0, 0.5, 0.0).is_err());
        assert!(CacheSensitivity::power_law(0.5, 1.0, -0.5, 0.0).is_err());
        let l1 = CacheSensitivity::power_law(0.1, 1e3, 0.5, 0.0).unwrap();
        let l2 = CacheSensitivity::power_law(0.4, 1e6, 1.0, 0.0).unwrap();
        assert!(MemoryModel::new(0.0, 1.0, 1.0, 0.5, 10.0, 100.0, l1.clone(), l2.clone()).is_err());
        assert!(MemoryModel::new(3.0, 0.5, 1.0, 0.5, 10.0, 100.0, l1.clone(), l2.clone()).is_err());
        assert!(MemoryModel::new(3.0, 1.0, 1.0, 1.5, 10.0, 100.0, l1, l2).is_err());
    }
}
