//! Property tests of the Eq. 13 area split.
//!
//! 1. The closed-form gradient and Hessian of the per-instruction cycle
//!    cost ([`C2BoundModel::cpi_derivatives`]) match central differences
//!    of [`C2BoundModel::cycles_per_instruction`] away from clamp kinks,
//!    and are exactly 0 along a clamped capacity or miss-rate branch.
//! 2. The active-set KKT split is optimal on the area simplex: no point
//!    of a dense grid over `{A_i ≥ MIN_AREA, ΣA_i = (A − Ac)/N}` beats
//!    it, and it satisfies the KKT conditions.

use proptest::prelude::*;

use c2_bound::optimize::{optimize_split_report, SplitSolve, MIN_AREA};
use c2_bound::{C2BoundModel, CacheSensitivity, DesignVariables, MemoryModel, ProgramProfile};
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_speedup::scale::ScaleFunction;

/// Which clamp the derivative property forces into play.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Random power laws; clamps only where they happen to fall.
    Free,
    /// The L2 floor equals `mr0`: any L2 at least `c0` is on its floor.
    L2Floor,
    /// Cache density below 80 KiB/mm²: `MIN_AREA` buys less than 4 KiB,
    /// so small caches sit on the capacity floor.
    CapacityFloor,
}

/// A random power-law model on a 400 mm² die with 40 mm² shared.
/// `floors` sets `log10` of the two miss-rate floors.
fn model(
    (k0, phi0, density_kib): (f64, f64, f64),
    (f_mem, overlap): (f64, f64),
    (hit, c_h, c_m, pure): (f64, f64, f64, f64),
    (l2_lat, dram): (f64, f64),
    (l1_mr0, l1_c0_kib, l1_alpha, l1_floor): (f64, f64, f64, f64),
    (l2_mr0, l2_c0_mib, l2_alpha, l2_floor): (f64, f64, f64, f64),
) -> C2BoundModel {
    let memory = MemoryModel::new(
        hit,
        c_h,
        c_m,
        pure,
        l2_lat,
        dram,
        CacheSensitivity::power_law(l1_mr0, l1_c0_kib * 1024.0, l1_alpha, l1_floor).unwrap(),
        CacheSensitivity::power_law(l2_mr0, l2_c0_mib * 1048576.0, l2_alpha, l2_floor).unwrap(),
    )
    .unwrap();
    let area = AreaModel {
        pollack_k0: k0,
        pollack_phi0: phi0,
        cache_bytes_per_mm2: density_kib * 1024.0,
        ..AreaModel::default()
    };
    C2BoundModel::new(
        ProgramProfile::new(1e9, 0.05, f_mem, overlap, ScaleFunction::Power(1.5)).unwrap(),
        memory,
        area,
        SiliconBudget::new(400.0, 40.0).unwrap(),
    )
}

type Shape = (
    (f64, f64, f64),
    (f64, f64),
    (f64, f64, f64, f64),
    (f64, f64),
);

fn shape() -> impl Strategy<Value = Shape> {
    (
        (0.5f64..2.0, 0.1f64..0.5, 256.0f64..1024.0),
        (0.05f64..0.9, 0.0f64..0.9),
        (1.0f64..5.0, 1.0f64..4.0, 1.0f64..4.0, 0.1f64..1.0),
        (8.0f64..30.0, 60.0f64..300.0),
    )
}

/// Clamp state at a point: the L1 capacity floor, the L1 miss-rate
/// clamp, the L2 capacity floor, the L2 miss-rate clamp.
fn clamps(m: &C2BoundModel, v: &DesignVariables) -> [bool; 4] {
    let (c1, c2) = m.capacities(v);
    [
        m.area.cache_bytes_slope(v.a1) == 0.0,
        m.memory.l1.miss_rate_derivatives(c1)[1] == 0.0,
        m.area.cache_bytes_slope(v.a2 * v.n) == 0.0,
        m.memory.l2.miss_rate_derivatives(c2)[1] == 0.0,
    ]
}

fn at(v: &DesignVariables, steps: &[(usize, f64)]) -> DesignVariables {
    let mut a = [v.a0, v.a1, v.a2];
    for &(i, h) in steps {
        a[i] += h;
    }
    DesignVariables {
        n: v.n,
        a0: a[0],
        a1: a[1],
        a2: a[2],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Closed-form ∂CPI/∂A_i and ∂²CPI/∂A_i∂A_j against central
    /// differences of the CPI itself, to 1e-5 relative (plus the
    /// difference quotient's own rounding floor); exact zeros on every
    /// clamped branch.
    #[test]
    fn closed_form_derivatives_match_central_differences(
        regime in (0u8..3).prop_map(|r| [Regime::Free, Regime::L2Floor, Regime::CapacityFloor][r as usize]),
        shape in shape(),
        l1 in (0.01f64..0.5, 8.0f64..128.0, 0.2f64..1.5, -5.0f64..-2.0),
        l2 in (0.05f64..0.9, 0.5f64..8.0, 0.3f64..1.5, -4.0f64..-2.0),
        n in 1.0f64..2400.0,
        split in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let (mut area, f, mem, lat) = shape;
        let (l1_mr0, l1_c0, l1_alpha, l1_floor) = l1;
        let (l2_mr0, l2_c0, l2_alpha, l2_floor) = l2;
        let mut l2_floor = 10f64.powf(l2_floor);
        match regime {
            Regime::Free => {}
            Regime::L2Floor => l2_floor = l2_mr0,
            Regime::CapacityFloor => area.2 = 8.0 + area.2 / 1024.0 * 56.0,
        }
        let m = model(
            area,
            f,
            mem,
            lat,
            (l1_mr0, l1_c0, l1_alpha, 10f64.powf(l1_floor)),
            (l2_mr0, l2_c0, l2_alpha, l2_floor),
        );
        // Areas ≥ MIN_AREA on the per-core budget.
        let spare = m.budget.usable() / n - 3.0 * MIN_AREA;
        let total = split.0 + split.1 + split.2 + 1e-9;
        let v = DesignVariables {
            n,
            a0: MIN_AREA + spare * split.0 / total,
            a1: MIN_AREA + spare * split.1 / total,
            a2: MIN_AREA + spare * split.2 / total,
        };
        let (g, hess) = m.cpi_derivatives(&v);
        let f0 = m.cycles_per_instruction(&v);
        let a = [v.a0, v.a1, v.a2];
        let state = clamps(&m, &v);

        // Exact zeros on clamped branches.
        if state[0] || state[1] {
            prop_assert!(g[1] == 0.0 && hess[1][1] == 0.0 && hess[1][2] == 0.0, "{state:?} {g:?} {hess:?}");
        }
        if state[2] || state[3] {
            prop_assert!(g[2] == 0.0 && hess[2][2] == 0.0 && hess[1][2] == 0.0, "{state:?} {g:?} {hess:?}");
        }
        if let Regime::L2Floor = regime {
            let (_, c2) = m.capacities(&v);
            if c2 >= l2_c0 * 1048576.0 {
                prop_assert!(state[3], "L2 above c0 must sit on its floor");
            }
        }
        prop_assert!(hess[0][1] == 0.0 && hess[0][2] == 0.0, "no A0-cache cross terms");

        // Central differences, skipped where a stencil crosses a kink.
        let eps = f64::EPSILON * f0.abs();
        for i in 0..3 {
            let h = 1e-6 * a[i];
            let stencil = [at(&v, &[(i, h)]), at(&v, &[(i, -h)])];
            if stencil.iter().any(|p| clamps(&m, p) != state) {
                continue;
            }
            let fd = (m.cycles_per_instruction(&stencil[0]) - m.cycles_per_instruction(&stencil[1])) / (2.0 * h);
            prop_assert!(
                (fd - g[i]).abs() <= 1e-5 * g[i].abs() + 16.0 * eps / h,
                "dCPI/dA{i}: closed form {} vs central difference {fd}", g[i]
            );
        }
        for i in 0..3 {
            for j in i..3 {
                let (hi, hj) = (1e-4 * a[i], 1e-4 * a[j]);
                let stencil = if i == j {
                    vec![at(&v, &[(i, hi)]), v, at(&v, &[(i, -hi)])]
                } else {
                    vec![
                        at(&v, &[(i, hi), (j, hj)]),
                        at(&v, &[(i, hi), (j, -hj)]),
                        at(&v, &[(i, -hi), (j, hj)]),
                        at(&v, &[(i, -hi), (j, -hj)]),
                    ]
                };
                if stencil.iter().any(|p| clamps(&m, p) != state) {
                    continue;
                }
                let cpi: Vec<f64> = stencil.iter().map(|p| m.cycles_per_instruction(p)).collect();
                let fd = if i == j {
                    (cpi[0] - 2.0 * cpi[1] + cpi[2]) / (hi * hi)
                } else {
                    (cpi[0] - cpi[1] - cpi[2] + cpi[3]) / (4.0 * hi * hj)
                };
                prop_assert!(
                    (fd - hess[i][j]).abs() <= 1e-5 * hess[i][j].abs() + 16.0 * eps / (hi * hj),
                    "d2CPI/dA{i}dA{j}: closed form {} vs central difference {fd}", hess[i][j]
                );
                prop_assert_eq!(hess[i][j], hess[j][i]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The split is a clean KKT point that no point of a 60 × 60 grid
    /// over the area simplex beats. Miss-rate floors are set out of
    /// reach, so the optimum is never on a kink.
    #[test]
    fn active_set_split_is_optimal_on_the_area_simplex(
        shape in shape(),
        l1 in (0.01f64..0.5, 8.0f64..128.0, 0.2f64..1.5),
        l2 in (0.05f64..0.9, 0.5f64..8.0, 0.3f64..1.5),
        n in 1.0f64..2100.0,
    ) {
        let (area, f, mem, lat) = shape;
        let m = model(area, f, mem, lat, (l1.0, l1.1, l1.2, 1e-9), (l2.0, l2.1, l2.2, 1e-9));
        let (v, solve) = optimize_split_report(&m, n).unwrap();
        prop_assert!(matches!(solve, SplitSolve::Kkt), "{solve:?}");
        let cpi = m.cycles_per_instruction(&v);

        // Primal feasibility.
        let per_core = m.budget.usable() / n;
        let a = [v.a0, v.a1, v.a2];
        prop_assert!(a.iter().all(|&x| x >= MIN_AREA), "{a:?}");
        prop_assert!((a.iter().sum::<f64>() - per_core).abs() <= 1e-9 * per_core);

        // Stationarity on the free areas, a nonnegative multiplier on
        // the pinned ones (a pinned area sits exactly on the floor).
        let (g, _) = m.cpi_derivatives(&v);
        let free: Vec<usize> = (0..3).filter(|&i| a[i] > MIN_AREA).collect();
        prop_assert!(!free.is_empty());
        let lambda = -free.iter().map(|&i| g[i]).sum::<f64>() / free.len() as f64;
        for i in 0..3 {
            if a[i] > MIN_AREA {
                prop_assert!((g[i] + lambda).abs() <= 1e-7, "stationarity of A{i}: {g:?} λ {lambda}");
            } else {
                prop_assert!(g[i] + lambda >= -1e-8, "dual feasibility of A{i}: {g:?} λ {lambda}");
            }
        }

        // Optimality against a 60 × 60 grid over the simplex.
        let spare = per_core - 3.0 * MIN_AREA;
        for i in 0..60 {
            for j in 0..60 - i {
                let a0 = MIN_AREA + spare * i as f64 / 59.0;
                let a1 = MIN_AREA + spare * j as f64 / 59.0;
                let p = DesignVariables { n, a0, a1, a2: per_core - a0 - a1 };
                if p.a2 < MIN_AREA {
                    continue;
                }
                let other = m.cycles_per_instruction(&p);
                prop_assert!(cpi <= other * (1.0 + 1e-12), "grid point {p:?} beats the split {v:?}: {other} < {cpi}");
            }
        }
    }
}
