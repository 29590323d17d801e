//! The C²-Bound objective function and constraints (paper Eqs. 10–12).

use c2_sim::area::{AreaModel, SiliconBudget};
use c2_speedup::law::ScalabilityLaw;
use c2_speedup::scale::ScaleFunction;

use crate::mem_model::MemoryModel;
use crate::{Error, Result};

/// Program-specific inputs measured by characterization (paper Fig 5,
/// "input" stage).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramProfile {
    /// Base problem size in dynamic instructions (`IC0`, at N = 1).
    pub ic0: f64,
    /// Sequential fraction `f_seq`.
    pub f_seq: f64,
    /// Memory-access fraction `f_mem`.
    pub f_mem: f64,
    /// Compute/memory overlap ratio (Eq. 7's `overlapRatio_{c-m}`).
    pub overlap_cm: f64,
    /// The problem-size scale function `g(N)`.
    pub g: ScaleFunction,
}

impl ProgramProfile {
    /// Validated constructor.
    pub fn new(
        ic0: f64,
        f_seq: f64,
        f_mem: f64,
        overlap_cm: f64,
        g: ScaleFunction,
    ) -> Result<Self> {
        if !(ic0 > 0.0) {
            return Err(Error::InvalidParameter {
                name: "ic0",
                value: ic0,
            });
        }
        for (name, value) in [
            ("f_seq", f_seq),
            ("f_mem", f_mem),
            ("overlap_cm", overlap_cm),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        Ok(ProgramProfile {
            ic0,
            f_seq,
            f_mem,
            overlap_cm,
            g,
        })
    }
}

/// The continuous design variables of Eq. 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignVariables {
    /// Number of cores `N`.
    pub n: f64,
    /// Core area `A0` (mm²).
    pub a0: f64,
    /// Private L1 area per core `A1` (mm²).
    pub a1: f64,
    /// L2 area per core `A2` (mm²).
    pub a2: f64,
}

impl DesignVariables {
    /// Total per-core area.
    pub fn per_core(&self) -> f64 {
        self.a0 + self.a1 + self.a2
    }
}

/// Which optimization case applies (paper §III.C / Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizationCase {
    /// `g(N) ≥ O(N)`: no finite N minimizes T — maximize throughput W/T.
    MaximizeThroughput,
    /// `g(N) < O(N)`: a finite optimum of T exists — minimize T.
    MinimizeTime,
}

/// The full C²-Bound model: program profile + memory model + silicon.
#[derive(Debug, Clone)]
pub struct C2BoundModel {
    /// Program inputs.
    pub program: ProgramProfile,
    /// Capacity-sensitive memory model.
    pub memory: MemoryModel,
    /// Area-to-microarchitecture translation (Pollack's rule etc.).
    pub area: AreaModel,
    /// Silicon budget (Eq. 12 right-hand side).
    pub budget: SiliconBudget,
    /// Scalability-law override. `None` — the default — means Sun-Ni
    /// over the live `program.g` (the paper's law, evaluated exactly as
    /// the pre-trait code did, so default-path results stay
    /// bit-identical and mutating `program` keeps taking effect).
    /// `Some(law)` dispatches every speedup/time-factor computation
    /// through the [`ScalabilityLaw`] object instead.
    pub law: Option<std::sync::Arc<dyn ScalabilityLaw>>,
}

impl C2BoundModel {
    /// Assemble the model with the default Sun-Ni law over
    /// `program.g`.
    pub fn new(
        program: ProgramProfile,
        memory: MemoryModel,
        area: AreaModel,
        budget: SiliconBudget,
    ) -> Self {
        C2BoundModel {
            program,
            memory,
            area,
            budget,
            law: None,
        }
    }

    /// The same model with every speedup/time-factor computation
    /// dispatched through `law` instead of the built-in Sun-Ni path.
    pub fn with_law(mut self, law: std::sync::Arc<dyn ScalabilityLaw>) -> Self {
        self.law = Some(law);
        self
    }

    /// `CPI_exe(A0)` by Pollack's rule (Eq. 11).
    pub fn cpi_exe(&self, a0: f64) -> f64 {
        self.area.cpi_exe(a0)
    }

    /// The per-instruction cycle cost at a design point:
    /// `CPI_exe + f_mem · C-AMAT · (1 − overlap)` (the bracket of Eq. 10).
    pub fn cycles_per_instruction(&self, v: &DesignVariables) -> f64 {
        let (c1, c2) = self.capacities(v);
        let camat = self.memory.camat(c1, c2);
        self.cpi_exe(v.a0) + self.program.f_mem * camat * (1.0 - self.program.overlap_cm)
    }

    /// Gradient and Hessian of [`C2BoundModel::cycles_per_instruction`]
    /// in `(A0, A1, A2)` at the point's fixed `N`, in closed form.
    ///
    /// `CPI = k0·A0^(−1/2) + φ0 + f_mem(1 − overlap)·C-AMAT(c1(A1), c2(A2))`
    /// with `c1 = bytes(A1)` and `c2 = 2·bytes(N·A2)`. Each capacity is
    /// linear in its area off the 4 KiB floor, so the chain rule needs
    /// only the capacity slope; there are no `A0`–cache cross terms. A
    /// clamped branch (capacity floor, miss-rate floor or ceiling) has
    /// slope 0.
    pub fn cpi_derivatives(&self, v: &DesignVariables) -> ([f64; 3], [[f64; 3]; 3]) {
        let n = v.n.max(1.0);
        let (c1, c2) = self.capacities(v);
        let s1 = self.area.cache_bytes_slope(v.a1);
        let s2 = 2.0 * n * self.area.cache_bytes_slope(v.a2 * n);
        let ([d1, d2], [[d11, d12], [_, d22]]) = self.memory.camat_derivatives(c1, c2);
        let k = self.program.f_mem * (1.0 - self.program.overlap_cm);
        // d/dA0 of k0·A0^(−1/2): −k0/(2·A0^(3/2)), then 3k0/(4·A0^(5/2)).
        let pollack_d1 = -0.5 * self.area.pollack_k0 / (v.a0 * v.a0.sqrt());
        let cross = k * d12 * s1 * s2;
        (
            [pollack_d1, k * d1 * s1, k * d2 * s2],
            [
                [-1.5 * pollack_d1 / v.a0, 0.0, 0.0],
                [0.0, k * d11 * s1 * s1, cross],
                [0.0, cross, k * d22 * s2 * s2],
            ],
        )
    }

    /// The execution-time objective `J_D` (Eq. 10), in cycles.
    pub fn execution_time(&self, v: &DesignVariables) -> f64 {
        let n = v.n.max(1.0);
        let parallel_factor = match &self.law {
            // The pre-trait expression, verbatim: the default path's
            // floats are pinned by tests/golden/pre_law_*.
            None => {
                let gn = self.program.g.eval(n);
                self.program.f_seq + gn * (1.0 - self.program.f_seq) / n
            }
            Some(law) => law.time_factor(self.program.f_seq, n),
        };
        self.program.ic0 * self.cycles_per_instruction(v) * parallel_factor
    }

    /// The scaled problem size `W(N) = g(N) · IC0` (Eq. 9); fixed-size
    /// laws (Amdahl, memory-wall, USL) keep `W = IC0`.
    pub fn problem_size(&self, n: f64) -> f64 {
        let n = n.max(1.0);
        match &self.law {
            None => self.program.g.eval(n) * self.program.ic0,
            Some(law) => law.work_scale(n) * self.program.ic0,
        }
    }

    /// Throughput `W/T` at a design point.
    pub fn throughput(&self, v: &DesignVariables) -> f64 {
        self.problem_size(v.n) / self.execution_time(v)
    }

    /// Speedup at `N` under the model's scalability law (Sun-Ni Eq. 4
    /// by default) — independent of the area split.
    pub fn speedup(&self, n: f64) -> f64 {
        let n = n.max(1.0);
        match &self.law {
            None => c2_speedup::laws::sun_ni(self.program.f_seq, n, &self.program.g),
            Some(law) => law.speedup(self.program.f_seq, n),
        }
    }

    /// Whether a design point satisfies the area constraint (Eq. 12).
    pub fn feasible(&self, v: &DesignVariables) -> bool {
        v.n >= 1.0
            && v.a0 > 0.0
            && v.a1 > 0.0
            && v.a2 > 0.0
            && self.budget.admits(v.n, v.a0, v.a1, v.a2)
    }

    /// The case split of §III.C: the sign of `∂L/∂N` for large N is
    /// decided by whether `g(N) ≥ O(N)`.
    pub fn case(&self) -> OptimizationCase {
        let at_least_linear = match &self.law {
            None => self.program.g.is_at_least_linear(),
            Some(law) => law.work_is_at_least_linear(),
        };
        if at_least_linear {
            OptimizationCase::MaximizeThroughput
        } else {
            OptimizationCase::MinimizeTime
        }
    }

    /// Measured data-access concurrency `C = AMAT / C-AMAT` at a point.
    pub fn concurrency(&self, v: &DesignVariables) -> f64 {
        let (c1, c2) = self.capacities(v);
        self.memory.amat(c1, c2) / self.memory.camat(c1, c2)
    }

    /// The (continuous) L1 and L2 capacities a design point buys. `A2`
    /// is the per-core share; the shared L2 a core sees is `N·A2`
    /// (paper Fig 3's organization), at twice the L1 SRAM density.
    pub fn capacities(&self, v: &DesignVariables) -> (f64, f64) {
        let c1 = self.area.cache_bytes_continuous(v.a1);
        let c2 = self.area.cache_bytes_continuous(v.a2 * v.n.max(1.0)) * 2.0;
        (c1, c2)
    }

    /// A reasonable default model for exploration demos: a big-data
    /// profile on a 400 mm² die.
    ///
    /// The `expect`s are unreachable: the literal arguments satisfy the
    /// constructors' validation.
    pub fn example_big_data() -> Self {
        C2BoundModel {
            program: ProgramProfile::new(1e9, 0.05, 0.3, 0.1, ScaleFunction::Power(1.5))
                .expect("valid profile"),
            memory: MemoryModel::default_big_data(),
            area: AreaModel::default(),
            budget: SiliconBudget::new(400.0, 40.0).expect("valid budget"),
            law: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> C2BoundModel {
        C2BoundModel::example_big_data()
    }

    fn point(n: f64, a0: f64, a1: f64, a2: f64) -> DesignVariables {
        DesignVariables { n, a0, a1, a2 }
    }

    #[test]
    fn execution_time_is_positive_and_scales_with_ic() {
        let m = model();
        let v = point(16.0, 4.0, 0.5, 1.0);
        let t = m.execution_time(&v);
        assert!(t > 0.0);
        let mut m2 = model();
        m2.program.ic0 *= 2.0;
        assert!((m2.execution_time(&v) - 2.0 * t).abs() / t < 1e-12);
    }

    #[test]
    fn bigger_core_lowers_cpi() {
        let m = model();
        assert!(m.cpi_exe(8.0) < m.cpi_exe(2.0));
    }

    #[test]
    fn bigger_l1_lowers_cycle_cost() {
        let m = model();
        let small = m.cycles_per_instruction(&point(16.0, 4.0, 0.25, 1.0));
        let big = m.cycles_per_instruction(&point(16.0, 4.0, 2.0, 1.0));
        assert!(big < small);
    }

    #[test]
    fn feasibility_respects_budget() {
        let m = model();
        // 360 usable mm2.
        assert!(m.feasible(&point(32.0, 4.0, 0.5, 1.0))); // 32*5.5 = 176
        assert!(!m.feasible(&point(100.0, 4.0, 0.5, 1.0))); // 550 > 360
        assert!(!m.feasible(&point(0.5, 4.0, 0.5, 1.0)));
        assert!(!m.feasible(&point(4.0, -1.0, 0.5, 1.0)));
    }

    #[test]
    fn case_split_follows_g() {
        let mut m = model();
        assert_eq!(m.case(), OptimizationCase::MaximizeThroughput);
        m.program.g = ScaleFunction::Constant;
        assert_eq!(m.case(), OptimizationCase::MinimizeTime);
        m.program.g = ScaleFunction::Power(0.7);
        assert_eq!(m.case(), OptimizationCase::MinimizeTime);
        m.program.g = ScaleFunction::Power(1.0);
        assert_eq!(m.case(), OptimizationCase::MaximizeThroughput);
    }

    #[test]
    fn amdahl_regime_time_decreases_then_saturates() {
        // With g = 1 and f_seq > 0, parallel time shrinks toward the
        // serial floor as N grows (at fixed areas).
        let mut m = model();
        m.program.g = ScaleFunction::Constant;
        let t4 = m.execution_time(&point(4.0, 4.0, 0.5, 1.0));
        let t16 = m.execution_time(&point(16.0, 4.0, 0.5, 1.0));
        assert!(t16 < t4);
    }

    #[test]
    fn concurrency_at_least_one() {
        let m = model();
        let c = m.concurrency(&point(16.0, 4.0, 0.5, 1.0));
        assert!(c >= 1.0, "C = {c}");
        // The sequential variant has C = 1.
        let mut seq = model();
        seq.memory = seq.memory.sequential();
        let c1 = seq.concurrency(&point(16.0, 4.0, 0.5, 1.0));
        assert!((c1 - 1.0).abs() < 1e-9, "C = {c1}");
    }

    #[test]
    fn speedup_matches_sun_ni() {
        let m = model();
        let s = m.speedup(64.0);
        let direct = c2_speedup::laws::sun_ni(0.05, 64.0, &ScaleFunction::Power(1.5));
        assert!((s - direct).abs() < 1e-12);
    }

    #[test]
    fn profile_validation() {
        assert!(ProgramProfile::new(0.0, 0.1, 0.3, 0.0, ScaleFunction::Constant).is_err());
        assert!(ProgramProfile::new(1e9, 1.5, 0.3, 0.0, ScaleFunction::Constant).is_err());
        assert!(ProgramProfile::new(1e9, 0.1, -0.1, 0.0, ScaleFunction::Constant).is_err());
        assert!(ProgramProfile::new(1e9, 0.1, 0.3, 2.0, ScaleFunction::Constant).is_err());
    }
}
