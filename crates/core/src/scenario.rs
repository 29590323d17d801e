//! Scenario → model wiring: build the analytical model, design space,
//! and APS driver from a declarative [`Scenario`].
//!
//! The defaults of every `c2-config` spec are chosen so that a default
//! scenario reproduces, bit for bit, the model the CLI historically
//! assembled from hard-coded constants (`model_from` in
//! `c2bound-tool`); tests below pin that equivalence. The scenario
//! layer only *relocates* those constants into data — it must not move
//! any numbers.

use std::sync::Arc;

use c2_config::{LawKind, Scenario};
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::ChipConfig;
use c2_speedup::law::{Amdahl, MemoryWall, ScalabilityLaw, Usl};
use c2_speedup::scale::ScaleFunction;
use c2_workloads::{Characterization, Workload};

use crate::aps::Aps;
use crate::backend::{GpuSmBackend, GpuSmModel};
use crate::dse::DesignSpace;
use crate::mem_model::{CacheSensitivity, MemoryModel};
use crate::model::{C2BoundModel, ProgramProfile};
use crate::optimize::SolverTuning;
use crate::{Error, Result};

/// The scaling function `g(N)` for a scenario: an explicit
/// `model.g_exponent` wins; otherwise the workload's complexity-derived
/// scale function; linear scaling is the last resort (the historical
/// CLI fallback).
pub fn scale_function(sc: &Scenario, workload: &dyn Workload) -> ScaleFunction {
    match sc.model.g_exponent {
        Some(exp) => ScaleFunction::Power(exp),
        None => workload
            .complexity()
            .scale_function()
            .unwrap_or(ScaleFunction::Power(1.0)),
    }
}

/// The scalability law selected by a scenario's `speedup` block.
///
/// Returns `None` for the default Sun-Ni law: the model's built-in
/// path evaluates Sun-Ni over the live `program.g` with the exact
/// pre-trait float ordering, and keeping it selected (rather than
/// boxing an equivalent law object) is what the `pre_law_*` goldens
/// pin. Non-default laws construct the validated `c2-speedup` object.
pub fn law_from_scenario(sc: &Scenario) -> Result<Option<Arc<dyn ScalabilityLaw>>> {
    fn adapt(e: c2_speedup::Error) -> Error {
        match e {
            c2_speedup::Error::InvalidParameter { name, value } => {
                Error::InvalidParameter { name, value }
            }
            c2_speedup::Error::InversionFailed(what) => Error::Optimization(what.to_string()),
        }
    }
    Ok(match sc.speedup.law {
        LawKind::SunNi => None,
        LawKind::Amdahl => Some(Arc::new(Amdahl)),
        LawKind::MemoryWall => {
            let mw = &sc.speedup.memory_wall;
            Some(Arc::new(MemoryWall::new(mw.beta, mw.n_sat).map_err(adapt)?))
        }
        LawKind::Usl => {
            let u = &sc.speedup.usl;
            Some(Arc::new(Usl::new(u.sigma, u.kappa).map_err(adapt)?))
        }
    })
}

/// Assemble the C²-Bound model from a characterization run and the
/// scenario's model/area/budget knobs. `chip` is the characterization
/// chip: it supplies the reference cache capacities and the L2 service
/// latency (`l2.hit_latency + 2·noc.l1_l2_latency`), exactly as the CLI
/// always derived them.
pub fn model_from_scenario(
    sc: &Scenario,
    ch: &Characterization,
    chip: &ChipConfig,
    g: ScaleFunction,
) -> Result<C2BoundModel> {
    let l2_latency = chip.l2.hit_latency as f64 + 2.0 * chip.noc.l1_l2_latency as f64;
    let memory = match &sc.model.camat {
        None => MemoryModel::from_characterization(
            ch,
            chip.l1.size_bytes as f64,
            chip.l2.size_bytes as f64,
            sc.model.l1_alpha,
            sc.model.l2_alpha,
            l2_latency,
            sc.model.dram_latency,
        )?,
        Some(spec) => {
            let params = c2_camat::CamatParams::from_spec(spec).map_err(|e| match e {
                c2_camat::Error::InvalidParameter { name, value } => {
                    Error::InvalidParameter { name, value }
                }
            })?;
            // The override replaces the *measured* memory behavior; the
            // capacity-sensitivity curves still come from the
            // characterization (they describe the workload's reuse, not
            // the measurement).
            let pure_ratio = (params.pure_miss_rate / ch.l1_miss_rate.max(1e-6)).clamp(0.0, 1.0);
            MemoryModel::new(
                params.hit_time.max(1.0),
                params.hit_concurrency.max(1.0),
                params.pure_miss_concurrency.max(1.0),
                pure_ratio,
                l2_latency,
                sc.model.dram_latency,
                CacheSensitivity::power_law(
                    ch.l1_miss_rate.clamp(1e-6, 1.0),
                    chip.l1.size_bytes as f64,
                    sc.model.l1_alpha,
                    1e-4,
                )?,
                CacheSensitivity::power_law(
                    ch.l2_miss_rate.clamp(1e-6, 1.0),
                    chip.l2.size_bytes as f64,
                    sc.model.l2_alpha,
                    1e-3,
                )?,
            )?
        }
    };
    let program = ProgramProfile::new(
        ch.instruction_count as f64,
        ch.f_seq,
        ch.f_mem,
        ch.overlap_cm.clamp(0.0, sc.model.overlap_cap),
        g,
    )?;
    let model = C2BoundModel::new(
        program,
        memory,
        AreaModel::from_spec(&sc.area)?,
        SiliconBudget::from_spec(&sc.budget)?,
    );
    Ok(match law_from_scenario(sc)? {
        None => model,
        Some(law) => model.with_law(law),
    })
}

/// The fully assembled APS driver for a scenario: model, design space
/// and solver tuning, all validated.
pub fn aps_from_scenario(
    sc: &Scenario,
    ch: &Characterization,
    chip: &ChipConfig,
    g: ScaleFunction,
) -> Result<Aps> {
    let model = model_from_scenario(sc, ch, chip, g)?;
    let space = DesignSpace::from_spec(&sc.space)?;
    let tuning = SolverTuning::from_spec(&sc.solver)?;
    Ok(Aps::with_tuning(model, space, tuning))
}

/// The fully assembled GPU-SM sweep for a scenario: model knobs from
/// `backend.gpu`, the silicon budget, and the (reinterpreted) space
/// axes, all validated.
///
/// Rejects a phase-mode oracle: phase windows cluster trace intervals
/// by C-AMAT memory behaviour the GPU bound never models, so the
/// combination is a typed error here (the engine layer) for library
/// callers that never call `Scenario::validate`, which rejects it with
/// the same message.
pub fn gpu_sweep_from_scenario(sc: &Scenario) -> Result<GpuSmBackend> {
    if sc.oracle.mode == c2_config::OracleMode::Phase {
        return Err(Error::Optimization(
            "phase oracle requires the cpu-cmp backend".to_string(),
        ));
    }
    let g = &sc.backend.gpu;
    for (name, value) in [
        ("work_flops", g.work_flops),
        ("mem_bytes_per_flop", g.mem_bytes_per_flop),
        ("mem_bandwidth", g.mem_bandwidth),
    ] {
        if !(value > 0.0) || !value.is_finite() {
            return Err(Error::Optimization(format!(
                "backend.gpu.{name} = {value} must be finite and positive"
            )));
        }
    }
    if !(0.0..=1.0).contains(&g.m_fma) {
        return Err(Error::Optimization(format!(
            "backend.gpu.m_fma = {} must lie in [0, 1]",
            g.m_fma
        )));
    }
    if g.warp_lanes == 0 || g.resident_warps == 0 || g.max_warps == 0 {
        return Err(Error::Optimization(
            "backend.gpu warp counts must be at least 1".to_string(),
        ));
    }
    let model = GpuSmModel {
        work_flops: g.work_flops,
        m_fma: g.m_fma,
        warp_lanes: g.warp_lanes as f64,
        mem_bytes_per_flop: g.mem_bytes_per_flop,
        mem_bandwidth: g.mem_bandwidth,
        resident_warps: g.resident_warps as f64,
        max_warps: g.max_warps as f64,
        budget: SiliconBudget::from_spec(&sc.budget)?,
    };
    let space = DesignSpace::from_spec(&sc.space)?;
    Ok(GpuSmBackend { model, space })
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_workloads::characterize;

    fn characterized() -> (Box<dyn Workload>, Characterization, ChipConfig) {
        let spec = c2_config::WorkloadSpec {
            name: "stencil".into(),
            size: 16,
        };
        let w = c2_workloads::workload_from_spec(&spec).unwrap();
        let chip = ChipConfig::default_single_core();
        let ch = characterize(&w.generate(), &chip).unwrap();
        (w, ch, chip)
    }

    #[test]
    fn default_scenario_reproduces_the_hardcoded_model() {
        let sc = Scenario::default();
        let (w, ch, chip) = characterized();
        let g = scale_function(&sc, w.as_ref());
        let new = model_from_scenario(&sc, &ch, &chip, g).unwrap();

        // The CLI's historical hard-coded construction.
        let memory = MemoryModel::from_characterization(
            &ch,
            chip.l1.size_bytes as f64,
            chip.l2.size_bytes as f64,
            0.5,
            1.0,
            chip.l2.hit_latency as f64 + 2.0 * chip.noc.l1_l2_latency as f64,
            120.0,
        )
        .unwrap();
        let program = ProgramProfile::new(
            ch.instruction_count as f64,
            ch.f_seq,
            ch.f_mem,
            ch.overlap_cm.clamp(0.0, 0.95),
            scale_function(&sc, w.as_ref()),
        )
        .unwrap();
        let old = C2BoundModel::new(
            program,
            memory,
            AreaModel::default(),
            SiliconBudget::new(400.0, 40.0).unwrap(),
        );

        assert_eq!(new.program, old.program);
        assert_eq!(new.area, old.area);
        assert_eq!(new.budget, old.budget);
        // MemoryModel is not PartialEq; compare it through its outputs
        // on a spread of capacities.
        for (c1, c2) in [(16e3, 1e6), (32e3, 2e6), (256e3, 16e6)] {
            assert_eq!(
                new.memory.camat(c1, c2).to_bits(),
                old.memory.camat(c1, c2).to_bits()
            );
            assert_eq!(
                new.memory.amat(c1, c2).to_bits(),
                old.memory.amat(c1, c2).to_bits()
            );
        }
    }

    #[test]
    fn g_exponent_override_wins() {
        let mut sc = Scenario::default();
        let (w, _, _) = characterized();
        sc.model.g_exponent = Some(0.5);
        assert_eq!(scale_function(&sc, w.as_ref()), ScaleFunction::Power(0.5));
    }

    #[test]
    fn camat_override_replaces_measurement() {
        let mut sc = Scenario::default();
        sc.model.camat = Some(c2_config::CamatSpec {
            hit_time: 3.0,
            hit_concurrency: 2.5,
            pure_miss_rate: 0.02,
            pure_avg_miss_penalty: 20.0,
            pure_miss_concurrency: 2.0,
        });
        let (w, ch, chip) = characterized();
        let g = scale_function(&sc, w.as_ref());
        let m = model_from_scenario(&sc, &ch, &chip, g).unwrap();
        assert_eq!(m.memory.hit_time, 3.0);
        assert_eq!(m.memory.hit_concurrency, 2.5);
        assert_eq!(m.memory.pure_miss_concurrency, 2.0);

        // An invalid override is rejected with a typed error.
        sc.model.camat.as_mut().unwrap().hit_concurrency = 0.5;
        let err = model_from_scenario(&sc, &ch, &chip, g).unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidParameter {
                name: "hit_concurrency",
                ..
            }
        ));
    }

    #[test]
    fn gpu_sweep_from_scenario_builds_and_rejects_phase_oracle() {
        let mut sc = Scenario {
            space: c2_config::SpaceSpec::gpu_sm(),
            backend: c2_config::BackendSpec {
                kind: c2_config::BackendKind::GpuSm,
                ..c2_config::BackendSpec::default()
            },
            ..Scenario::default()
        };
        let backend = gpu_sweep_from_scenario(&sc).unwrap();
        assert_eq!(backend.model.work_flops, 1e9);
        assert_eq!(backend.space, DesignSpace::from_spec(&sc.space).unwrap());

        sc.oracle.mode = c2_config::OracleMode::Phase;
        let err = gpu_sweep_from_scenario(&sc).unwrap_err();
        assert!(matches!(err, Error::Optimization(ref w) if w.contains("cpu-cmp backend")));
    }

    #[test]
    fn law_from_scenario_selects_and_validates() {
        let mut sc = Scenario::default();
        // Default: Sun-Ni stays on the built-in (None) path.
        assert!(law_from_scenario(&sc).unwrap().is_none());

        sc.speedup.law = c2_config::LawKind::Amdahl;
        assert_eq!(law_from_scenario(&sc).unwrap().unwrap().name(), "amdahl");

        sc.speedup.law = c2_config::LawKind::MemoryWall;
        sc.speedup.memory_wall.beta = 0.7;
        sc.speedup.memory_wall.n_sat = 32.0;
        let law = law_from_scenario(&sc).unwrap().unwrap();
        assert_eq!(law.name(), "memory-wall");
        // Saturated: beta = 0.7 of parallel work is stuck at n_sat.
        assert!(law.speedup(0.0, 512.0) < law.work_scale(512.0) * 512.0);

        sc.speedup.memory_wall.beta = 2.0;
        let err = law_from_scenario(&sc).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { name: "beta", .. }));

        sc.speedup.law = c2_config::LawKind::Usl;
        sc.speedup.usl = c2_config::UslSpec {
            sigma: Some(0.05),
            kappa: 0.001,
        };
        assert_eq!(law_from_scenario(&sc).unwrap().unwrap().name(), "usl");
    }

    #[test]
    fn non_default_law_changes_the_assembled_model() {
        let (w, ch, chip) = characterized();
        let sc = Scenario::default();
        let g = scale_function(&sc, w.as_ref());
        let sun_ni = model_from_scenario(&sc, &ch, &chip, g).unwrap();

        let mut amdahl_sc = Scenario::default();
        amdahl_sc.speedup.law = c2_config::LawKind::Amdahl;
        let amdahl = model_from_scenario(&amdahl_sc, &ch, &chip, g).unwrap();

        // Same point, different law ⇒ different analytic time (the
        // stencil workload's g(N) = N is far from fixed-size).
        let v = crate::model::DesignVariables {
            a0: 4.0,
            a1: 0.25,
            a2: 1.0,
            n: 16.0,
        };
        assert!(sun_ni.law.is_none());
        assert!(amdahl.law.is_some());
        assert!(amdahl.execution_time(&v) < sun_ni.execution_time(&v));
        assert_eq!(amdahl.problem_size(16.0), amdahl.program.ic0);
    }

    #[test]
    fn aps_from_scenario_matches_paper_scale_space() {
        let sc = Scenario::default();
        let (w, ch, chip) = characterized();
        let g = scale_function(&sc, w.as_ref());
        let aps = aps_from_scenario(&sc, &ch, &chip, g).unwrap();
        assert_eq!(aps.space, DesignSpace::paper_scale());
        assert_eq!(aps.tuning, SolverTuning::default());
    }
}
