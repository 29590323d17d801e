//! The `Scenario`: one declarative, validated description of a full
//! C2-bound experiment — workload, model knobs, chip, design space,
//! budget, solver tolerances, runner policy, and observability.
//!
//! A scenario is a plain JSON document with a fixed canonical section
//! order. Parsing is strict: unknown keys are rejected (with their
//! dotted path), duplicate keys are rejected, and every field is
//! type-checked. Missing sections/fields fall back to defaults that
//! reproduce the workspace's historical hard-coded behavior bit for
//! bit (`DesignSpace::paper_scale()`, `ChipConfig::default_single_core()`,
//! the CLI's solver constants and runner knobs).
//!
//! Validation follows the workspace's NaN-rejecting idiom: conditions
//! are written `!(x > 0.0)` so a NaN fails the check rather than
//! slipping through an inverted comparison.
//!
//! The canonical compact rendering doubles as the identity of the
//! scenario: [`Scenario::fingerprint`] is FNV-1a over those bytes, and
//! the runner folds it into the journal header so `--resume` refuses a
//! journal written for a different scenario.

use crate::json::{Json, JsonError};

/// A typed scenario reading/validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The document is not well-formed JSON.
    Json(JsonError),
    /// The `version` field names a schema we do not speak.
    UnsupportedVersion(u64),
    /// A key not in the schema, identified by its dotted path.
    UnknownKey {
        /// Dotted path of the offending key (e.g. `chip.l1.linesize`).
        path: String,
    },
    /// The same key appears twice in one object.
    DuplicateKey {
        /// Dotted path of the repeated key.
        path: String,
    },
    /// A field holds a value of the wrong JSON type.
    WrongType {
        /// Dotted path of the field.
        path: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// A field parsed but fails its physical-range check.
    OutOfRange {
        /// Dotted path of the field.
        path: String,
        /// The violated constraint, human-readable.
        why: &'static str,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "scenario: {e}"),
            ScenarioError::UnsupportedVersion(v) => {
                write!(f, "scenario: unsupported version {v} (expected 1)")
            }
            ScenarioError::UnknownKey { path } => {
                write!(f, "scenario: unknown key `{path}`")
            }
            ScenarioError::DuplicateKey { path } => {
                write!(f, "scenario: duplicate key `{path}`")
            }
            ScenarioError::WrongType { path, expected } => {
                write!(f, "scenario: `{path}` must be a {expected}")
            }
            ScenarioError::OutOfRange { path, why } => {
                write!(f, "scenario: `{path}` out of range: {why}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
    }
}

/// Scenario-layer result alias.
pub type Result<T> = std::result::Result<T, ScenarioError>;

/// FNV-1a over a byte string: the workspace's standard cheap stable
/// hash (the runner's journal fingerprints use the same constants).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Spec structs
// ---------------------------------------------------------------------------

/// Which workload to characterize and at what problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (`tmm`, `spmv`, `stencil`, `fft`, `fluidanimate`).
    pub name: String,
    /// Problem-size parameter, interpreted per workload.
    pub size: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "fluidanimate".into(),
            size: 100,
        }
    }
}

/// C-AMAT measurement overrides: when present, these replace the
/// characterized memory-behavior inputs to the analytical model.
/// Fields mirror `CamatParams` in `c2-camat`.
#[derive(Debug, Clone, PartialEq)]
pub struct CamatSpec {
    /// Cache hit time in cycles (paper's `H`).
    pub hit_time: f64,
    /// Hit concurrency (paper's `C_H`), at least 1.
    pub hit_concurrency: f64,
    /// Pure-miss rate (paper's `pMR`), in `[0, 1]`.
    pub pure_miss_rate: f64,
    /// Pure average miss penalty in cycles (paper's `pAMP`).
    pub pure_avg_miss_penalty: f64,
    /// Pure-miss concurrency (paper's `C_M`), at least 1.
    pub pure_miss_concurrency: f64,
}

/// Analytical-model construction knobs (the constants the CLI used to
/// hard-code in `model_from`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// L1 miss-rate sensitivity exponent (power-law alpha).
    pub l1_alpha: f64,
    /// L2 miss-rate sensitivity exponent (power-law alpha).
    pub l2_alpha: f64,
    /// Flat DRAM latency seen by the model, cycles.
    pub dram_latency: f64,
    /// Upper clamp on the measured compute/memory overlap fraction.
    pub overlap_cap: f64,
    /// Override for the sequential-scaling exponent `g`; `None` uses
    /// the workload's own complexity-derived scale function.
    pub g_exponent: Option<f64>,
    /// C-AMAT measurement overrides; `None` uses characterization.
    pub camat: Option<CamatSpec>,
}

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec {
            l1_alpha: 0.5,
            l2_alpha: 1.0,
            dram_latency: 120.0,
            overlap_cap: 0.95,
            g_exponent: None,
            camat: None,
        }
    }
}

/// One cache level; mirrors `CacheConfig` in `c2-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSpec {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (ways per set).
    pub associativity: u64,
    /// Lookup/hit latency in cycles.
    pub hit_latency: u64,
    /// MSHR entries (outstanding misses); 1 = blocking cache.
    pub mshr_entries: u64,
    /// Access ports (new lookups accepted per cycle).
    pub ports: u64,
    /// Banks (independent lookup pipelines).
    pub banks: u64,
    /// Next-line prefetch on demand miss (L1 only).
    pub next_line_prefetch: bool,
}

impl CacheSpec {
    /// Mirror of `CacheConfig::default_l1()`.
    pub fn default_l1() -> Self {
        CacheSpec {
            size_bytes: 32 * 1024,
            line_size: 64,
            associativity: 8,
            hit_latency: 3,
            mshr_entries: 8,
            ports: 2,
            banks: 4,
            next_line_prefetch: false,
        }
    }

    /// Mirror of `CacheConfig::default_l2()`.
    pub fn default_l2() -> Self {
        CacheSpec {
            size_bytes: 2 * 1024 * 1024,
            line_size: 64,
            associativity: 16,
            hit_latency: 12,
            mshr_entries: 16,
            ports: 4,
            banks: 8,
            next_line_prefetch: false,
        }
    }
}

/// DRAM timing/structure; mirrors `DramConfig` in `c2-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct DramSpec {
    /// Independent banks.
    pub banks: u64,
    /// Row-buffer size in bytes.
    pub row_size: u64,
    /// Row-to-column delay (activate), cycles.
    pub t_rcd: u64,
    /// Column access (CAS) latency, cycles.
    pub t_cas: u64,
    /// Precharge latency, cycles.
    pub t_rp: u64,
    /// Data-bus transfer time per line, cycles.
    pub t_bus: u64,
    /// Request-queue capacity per DRAM channel.
    pub queue_depth: u64,
}

impl Default for DramSpec {
    fn default() -> Self {
        DramSpec {
            banks: 8,
            row_size: 8 * 1024,
            t_rcd: 22,
            t_cas: 22,
            t_rp: 22,
            t_bus: 8,
            queue_depth: 32,
        }
    }
}

/// Out-of-order core shape; mirrors `CoreConfig` in `c2-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// Instructions issued (and retired) per cycle.
    pub issue_width: u64,
    /// Reorder-buffer entries.
    pub rob_size: u64,
    /// Execution latency of a non-memory instruction, cycles.
    pub exec_latency: u64,
}

impl Default for CoreSpec {
    fn default() -> Self {
        CoreSpec {
            issue_width: 4,
            rob_size: 128,
            exec_latency: 1,
        }
    }
}

/// Interconnect latencies; mirrors `NocConfig` in `c2-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct NocSpec {
    /// One-way latency L1→L2 (and back), cycles.
    pub l1_l2_latency: u64,
    /// One-way latency L2→memory controller, cycles.
    pub l2_mem_latency: u64,
}

impl Default for NocSpec {
    fn default() -> Self {
        NocSpec {
            l1_l2_latency: 4,
            l2_mem_latency: 6,
        }
    }
}

/// Full chip description; mirrors `ChipConfig` in `c2-sim` (minus the
/// fault plan, which is a test-injection surface, not an experiment
/// parameter).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Number of cores.
    pub cores: u64,
    /// Per-core configuration.
    pub core: CoreSpec,
    /// Private L1 per core.
    pub l1: CacheSpec,
    /// Shared L2.
    pub l2: CacheSpec,
    /// DRAM behind the L2.
    pub dram: DramSpec,
    /// Interconnect latencies.
    pub noc: NocSpec,
    /// Abort if a simulation exceeds this many cycles.
    pub max_cycles: u64,
}

impl Default for ChipSpec {
    fn default() -> Self {
        ChipSpec {
            cores: 1,
            core: CoreSpec::default(),
            l1: CacheSpec::default_l1(),
            l2: CacheSpec::default_l2(),
            dram: DramSpec::default(),
            noc: NocSpec::default(),
            max_cycles: 500_000_000,
        }
    }
}

/// Design-space axes; mirrors `DesignSpace` in `c2-core`. The default
/// reproduces `DesignSpace::paper_scale()` bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// Sequential-stage area axis (mm²).
    pub a0: Vec<f64>,
    /// Per-core area axis (mm²).
    pub a1: Vec<f64>,
    /// Cache-area-per-core axis (mm²).
    pub a2: Vec<f64>,
    /// Core-count axis.
    pub n: Vec<u64>,
    /// Issue-width axis for the narrowed simulation sweep.
    pub issue: Vec<u64>,
    /// ROB-size axis for the narrowed simulation sweep.
    pub rob: Vec<u64>,
}

/// Log-spaced inclusive axis, duplicated verbatim from
/// `DesignSpace::geometric` so the default scenario reproduces
/// `paper_scale()` bit for bit (same fp operation order).
fn geometric(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2);
    (0..steps)
        .map(|i| {
            let t = i as f64 / (steps - 1) as f64;
            (lo.ln() + t * (hi.ln() - lo.ln())).exp()
        })
        .collect()
}

impl Default for SpaceSpec {
    fn default() -> Self {
        SpaceSpec::paper_scale()
    }
}

impl SpaceSpec {
    /// Mirror of `DesignSpace::paper_scale()`.
    pub fn paper_scale() -> Self {
        SpaceSpec {
            a0: geometric(0.5, 16.0, 10),
            a1: geometric(0.05, 2.0, 10),
            a2: geometric(0.1, 4.0, 10),
            n: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            issue: vec![1, 2, 3, 4, 5, 6, 7, 8, 12, 16],
            rob: vec![16, 32, 48, 64, 96, 128, 160, 192, 224, 256],
        }
    }

    /// Mirror of `DesignSpace::tiny()` — a fast smoke-test space.
    pub fn tiny() -> Self {
        SpaceSpec {
            a0: vec![1.0, 2.0, 4.0, 8.0],
            a1: vec![0.0625, 0.125, 0.25, 0.5],
            a2: vec![0.125, 0.5, 1.0, 2.0],
            n: vec![1, 2, 4, 8],
            issue: vec![1, 2, 4],
            rob: vec![16, 64, 128],
        }
    }

    /// GPU-SM axes: `n` is the SM count, `issue` the FP32 lanes per
    /// SM, `rob` the occupancy target in percent. Area axes are per-SM
    /// mm² (compute, register file/L1, L2 slice).
    pub fn gpu_sm() -> Self {
        SpaceSpec {
            a0: vec![2.0, 4.0],
            a1: vec![0.25],
            a2: vec![0.5],
            n: vec![8, 16, 32, 64],
            issue: vec![32, 64, 128, 256],
            rob: vec![25, 50, 75, 100],
        }
    }
}

/// Silicon budget; mirrors `SiliconBudget::new(total, shared)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSpec {
    /// Total chip area, mm².
    pub total_area_mm2: f64,
    /// Area reserved for shared structures, mm².
    pub shared_area_mm2: f64,
}

impl Default for BudgetSpec {
    fn default() -> Self {
        BudgetSpec {
            total_area_mm2: 400.0,
            shared_area_mm2: 40.0,
        }
    }
}

/// Area-model coefficients; mirrors `AreaModel` in `c2-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaSpec {
    /// Pollack's-rule performance coefficient.
    pub pollack_k0: f64,
    /// Pollack's-rule exponent offset.
    pub pollack_phi0: f64,
    /// Reference core area, mm².
    pub reference_core_area: f64,
    /// Cache density, bytes per mm².
    pub cache_bytes_per_mm2: f64,
}

impl Default for AreaSpec {
    fn default() -> Self {
        AreaSpec {
            pollack_k0: 1.0,
            pollack_phi0: 0.2,
            reference_core_area: 4.0,
            cache_bytes_per_mm2: 512.0 * 1024.0,
        }
    }
}

/// Solver tolerances; defaults are the constants historically
/// hard-coded in `c2-core`'s optimize path.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSpec {
    /// Newton convergence tolerance.
    pub newton_tol: f64,
    /// Newton iteration cap.
    pub newton_max_iters: u64,
    /// Nelder–Mead convergence tolerance (fallback solver).
    pub nelder_tol: f64,
    /// Nelder–Mead iteration cap.
    pub nelder_max_iters: u64,
}

impl Default for SolverSpec {
    fn default() -> Self {
        SolverSpec {
            newton_tol: 1e-8,
            newton_max_iters: 200,
            nelder_tol: 1e-12,
            nelder_max_iters: 4000,
        }
    }
}

/// Phase-detection knobs for the phase-clustered oracle; mirrors
/// `PhaseConfig` in `c2-trace` (signature-histogram sizes and k-means
/// iteration caps keep that crate's defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Accesses per clustering interval.
    pub interval_len: u64,
    /// Number of phases (clusters) to detect; clamped down to the
    /// number of available intervals by the consumer.
    pub clusters: u64,
    /// Deterministic seed for centroid initialization.
    pub seed: u64,
}

impl Default for PhaseSpec {
    fn default() -> Self {
        PhaseSpec {
            interval_len: 1000,
            clusters: 4,
            seed: 0x5eed,
        }
    }
}

/// Oracle selection: how the sweep prices a design point.
///
/// `mode: "full"` simulates the whole workload trace at every point
/// (the historical behaviour); `mode: "phase"` runs phase detection
/// once and simulates only the representative interval per phase,
/// reconstructing full-run metrics as the weight-combined estimate.
///
/// The section is **semantic** when it deviates from `full`: phase
/// mode changes what a sweep computes, so it is bound into the
/// scenario fingerprint (and with it the journal and cache identity).
/// In `full` mode the section is dropped from the semantic rendering
/// entirely, so every pre-existing fingerprint survives the key's
/// introduction unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OracleSpec {
    /// `"full"` or `"phase"`.
    pub mode: OracleMode,
    /// Phase-detection knobs (ignored in `full` mode but always
    /// validated and rendered).
    pub phase: PhaseSpec,
}

/// The oracle evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// Simulate the full trace at every design point.
    #[default]
    Full,
    /// Simulate one representative interval per detected phase.
    Phase,
}

impl OracleMode {
    /// The canonical spelling used in scenario JSON and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            OracleMode::Full => "full",
            OracleMode::Phase => "phase",
        }
    }

    /// Parse the canonical spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(OracleMode::Full),
            "phase" => Some(OracleMode::Phase),
            _ => None,
        }
    }
}

/// Backend selection: which analytical model prices the sweep.
///
/// `kind: "cpu-cmp"` is the historical C²-bound Eq. 10 objective
/// (capacity/concurrency CPU-CMP bound); `kind: "gpu-sm"` prices
/// candidates with the compositional SM throughput bound
/// `Φ_SM = θ · C_fp32 · (1 + m_FMA)` under a Roofline bandwidth
/// ceiling, reinterpreting the space axes as (SMs, lanes/SM,
/// occupancy target).
///
/// Like [`OracleSpec`], the section is **semantic** exactly when it
/// deviates from the default: a non-CPU backend changes what every
/// candidate evaluation computes, so it is bound into the scenario
/// fingerprint (and with it the journal and cache identity). With the
/// default `cpu-cmp` backend the section is dropped from the semantic
/// rendering entirely, so every fingerprint minted before the key
/// existed stays valid.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BackendSpec {
    /// `"cpu-cmp"` or `"gpu-sm"`.
    pub kind: BackendKind,
    /// GPU-SM model knobs (ignored by `cpu-cmp` but always validated
    /// and rendered).
    pub gpu: GpuSpec,
}

/// The analytical model family pricing the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The paper's Eq. 10 capacity/concurrency CPU-CMP bound.
    #[default]
    CpuCmp,
    /// The compositional GPU streaming-multiprocessor throughput bound.
    GpuSm,
}

impl BackendKind {
    /// The canonical spelling used in scenario JSON and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::CpuCmp => "cpu-cmp",
            BackendKind::GpuSm => "gpu-sm",
        }
    }

    /// Parse the canonical spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cpu-cmp" => Some(BackendKind::CpuCmp),
            "gpu-sm" => Some(BackendKind::GpuSm),
            _ => None,
        }
    }
}

/// GPU-SM model knobs; mirrors `GpuSmModel` in `c2-bound`. The space
/// axes are reinterpreted — `n` is the SM count, `issue` the FP32
/// lanes per SM, `rob` the occupancy target in percent — so the
/// section carries only the per-workload and per-memory-system
/// parameters the axes cannot express.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Total kernel work in FP32 FLOPs.
    pub work_flops: f64,
    /// FMA fraction of FP32 instructions, in `[0, 1]`; each FMA
    /// retires two FLOPs, hence the `(1 + m_FMA)` factor.
    pub m_fma: f64,
    /// Lanes per warp (32 on every shipping NVIDIA part).
    pub warp_lanes: u64,
    /// DRAM traffic per FLOP, bytes — the reciprocal of operational
    /// intensity.
    pub mem_bytes_per_flop: f64,
    /// Memory bandwidth in bytes per SM-clock cycle (chip-wide).
    pub mem_bandwidth: f64,
    /// Warps resident per SM under the kernel's register/smem usage.
    pub resident_warps: u64,
    /// Architectural maximum warps per SM.
    pub max_warps: u64,
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec {
            work_flops: 1e9,
            m_fma: 0.5,
            warp_lanes: 32,
            mem_bytes_per_flop: 0.25,
            mem_bandwidth: 256.0,
            resident_warps: 32,
            max_warps: 48,
        }
    }
}

/// Scalability-law selection: which law of the `ScalabilityLaw`
/// family converts core count into speedup (equivalently, into the
/// normalized parallel-time factor of the execution-time model).
///
/// Like [`OracleSpec`] and [`BackendSpec`], the section is **semantic**
/// exactly when it deviates from the default: a non-Sun-Ni law changes
/// every analytic time the sweep computes, so it is bound into the
/// scenario fingerprint. With the default `sun-ni` law the section is
/// dropped from the semantic rendering entirely, so every fingerprint
/// minted before the key existed stays valid.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpeedupSpec {
    /// `"sun-ni"`, `"amdahl"`, `"memory-wall"` or `"usl"`.
    pub law: LawKind,
    /// Memory-wall law parameters (ignored by other laws but always
    /// validated and rendered).
    pub memory_wall: MemoryWallSpec,
    /// USL parameters (ignored by other laws but always validated and
    /// rendered).
    pub usl: UslSpec,
}

/// The scalability-law family member pricing core-count scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LawKind {
    /// Sun-Ni's memory-bounded law (paper Eq. 4) with the workload's
    /// `g(N)` — the historical default.
    #[default]
    SunNi,
    /// Amdahl's fixed-size law (`g(N) = 1` degenerate case).
    Amdahl,
    /// Furtunato-style bandwidth-saturation law: a `beta` fraction of
    /// parallel work stops scaling past `n_sat` cores.
    MemoryWall,
    /// Gunther's Universal Scalability Law (contention `sigma` +
    /// coherency `kappa`; retrograde when `kappa > 0`).
    Usl,
}

impl LawKind {
    /// The canonical spelling used in scenario JSON and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            LawKind::SunNi => "sun-ni",
            LawKind::Amdahl => "amdahl",
            LawKind::MemoryWall => "memory-wall",
            LawKind::Usl => "usl",
        }
    }

    /// Parse the canonical spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sun-ni" => Some(LawKind::SunNi),
            "amdahl" => Some(LawKind::Amdahl),
            "memory-wall" => Some(LawKind::MemoryWall),
            "usl" => Some(LawKind::Usl),
            _ => None,
        }
    }
}

/// Memory-wall law parameters; mirrors `MemoryWall` in `c2-speedup`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryWallSpec {
    /// Bandwidth-bound fraction of the parallel work, in `[0, 1]`.
    pub beta: f64,
    /// Core count at which aggregate bandwidth demand saturates the
    /// memory system (`>= 1`).
    pub n_sat: f64,
}

impl Default for MemoryWallSpec {
    fn default() -> Self {
        MemoryWallSpec {
            beta: 0.5,
            n_sat: 64.0,
        }
    }
}

/// USL parameters; mirrors `Usl` in `c2-speedup`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UslSpec {
    /// Contention coefficient `sigma` in `[0, 1]`; `null` adopts the
    /// workload's measured sequential fraction.
    pub sigma: Option<f64>,
    /// Coherency coefficient `kappa >= 0`.
    pub kappa: f64,
}

impl Default for UslSpec {
    fn default() -> Self {
        UslSpec {
            sigma: None,
            kappa: 0.0,
        }
    }
}

/// Surrogate-screening selection: train the `c2-ann` MLP online during
/// the sweep and route only high-uncertainty candidates to the real
/// oracle (active learning), instead of simulating every refinement
/// point.
///
/// The section is **semantic** exactly when screening is enabled:
/// screening changes which points receive true evaluations — and with
/// that the journal's record set — so it is bound into the scenario
/// fingerprint. With screening disabled the section is dropped from
/// the semantic rendering so pre-existing fingerprints survive.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenSpec {
    /// Whether the screening stage replaces full enumeration.
    pub enabled: bool,
    /// Deterministic seed for the surrogate committee (the acquisition
    /// rule itself is rank-based and needs no randomness).
    pub seed: u64,
    /// True evaluations in the seeding round (evenly spread over the
    /// plan).
    pub initial: u64,
    /// True evaluations added per acquisition round.
    pub batch: u64,
    /// Hard cap on true oracle evaluations across all rounds.
    pub budget: u64,
    /// Committee size (independently seeded MLPs whose prediction
    /// spread is the uncertainty signal); at least 2.
    pub committee: u64,
    /// Hidden-layer width of each committee member.
    pub hidden: u64,
    /// Training epochs per round for each committee member.
    pub epochs: u64,
    /// Early-stop threshold on the worst committee disagreement in
    /// ln-time space (roughly relative error); `0` disables early
    /// stopping and the budget alone terminates the loop.
    pub tolerance: f64,
}

impl Default for ScreenSpec {
    fn default() -> Self {
        ScreenSpec {
            enabled: false,
            seed: 0xC2A7,
            initial: 16,
            batch: 8,
            budget: 64,
            committee: 3,
            hidden: 16,
            epochs: 200,
            tolerance: 0.02,
        }
    }
}

/// Retry backoff policy; mirrors `BackoffPolicy` in `c2-runner`.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffSpec {
    /// First-retry delay, ms.
    pub base_ms: u64,
    /// Multiplier per attempt.
    pub factor: f64,
    /// Delay ceiling, ms.
    pub cap_ms: u64,
    /// Deterministic jitter fraction in `[0, 1]`.
    pub jitter_frac: f64,
}

impl Default for BackoffSpec {
    fn default() -> Self {
        BackoffSpec {
            base_ms: 10,
            factor: 2.0,
            cap_ms: 1_000,
            jitter_frac: 0.25,
        }
    }
}

/// Circuit-breaker policy; mirrors `BreakerPolicy` in `c2-runner`.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSpec {
    /// Consecutive failures before the breaker opens.
    pub trip_threshold: u64,
    /// Completed jobs to wait before half-opening.
    pub cooldown: u64,
    /// Successful probes required to close again.
    pub probes: u64,
}

impl Default for BreakerSpec {
    fn default() -> Self {
        BreakerSpec {
            trip_threshold: 5,
            cooldown: 3,
            probes: 2,
        }
    }
}

/// Content-addressed evaluation-cache knobs; mirrors the cache side
/// of `RunConfig` in `c2-runner`. The cache memoizes oracle results
/// under (run identity fingerprint, design-point content key) — the
/// identity binds the plan and scenario fingerprints — so editing the
/// scenario invalidates entries without explicit versioning.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalCacheSpec {
    /// Whether the sweep consults and populates the cache.
    pub enabled: bool,
    /// Cache file path (JSONL); required when `enabled`.
    pub path: Option<String>,
}

/// Deterministic storage-fault injection for the crash/chaos harness;
/// mirrors `ChaosPlan` in `c2-runner`. All write indices are 1-based
/// counts of storage writes performed by the run. The default plan
/// injects nothing; scenarios normally omit the section entirely.
///
/// Chaos, like `sync` and `checkpoint_every`, is an *operational*
/// knob: it changes how the run interacts with storage, never what
/// the sweep computes, so it is excluded from the scenario
/// fingerprint — a chaos run's journal stays resumable by the same
/// scenario with chaos disarmed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSpec {
    /// Simulate a crash at the n-th storage write: a torn prefix of
    /// the write lands, then all storage is dead for the run.
    pub crash_at_write: Option<u64>,
    /// How many bytes of the crashed write land before the "power
    /// cut" (default 0 when crashing; ignored otherwise).
    pub torn_bytes: Option<u64>,
    /// Fail the n-th storage write with a no-space error (the run
    /// aborts cleanly; storage stays alive).
    pub enospc_at_write: Option<u64>,
    /// Write only half of the n-th write's bytes, then report success
    /// (silent short write; surfaced on the next read as a torn line).
    pub short_write_at: Option<u64>,
    /// Reserved for future randomized plans; bound into nothing yet
    /// but pinned in the rendering so documents round-trip.
    pub seed: u64,
}

/// Supervised-runner knobs; mirrors `RunConfig` in `c2-runner` with
/// the CLI `run` command's historical defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerSpec {
    /// Engine threads when `threads` is 0 (≥ 1).
    pub workers: u64,
    /// Sharded engine threads; 0 means `workers` threads. The journal,
    /// metrics, and outcome are bit-identical for every thread count.
    pub threads: u64,
    /// Per-attempt deadline, ms (0 disables the deadline). A late
    /// attempt is journaled as a failure and retried.
    pub deadline_ms: u64,
    /// Read, validated and fingerprinted, but unused: the engine has
    /// no watchdog. Kept until a scenario `version` bump drops it.
    pub watchdog_tick_ms: u64,
    /// Attempts per job before it is skipped/backfilled.
    pub max_attempts: u64,
    /// Read, validated and fingerprinted, but unused: the engine has
    /// no job queue. Kept until a scenario `version` bump drops it.
    pub queue_capacity: u64,
    /// Retry backoff policy.
    pub backoff: BackoffSpec,
    /// Circuit-breaker policy.
    pub breaker: BreakerSpec,
    /// Content-addressed evaluation cache.
    pub cache: EvalCacheSpec,
    /// Backfill skipped jobs from the analytic model.
    pub analytic_fallback: bool,
    /// Journal/cache fsync policy: `"never"`, `"on-checkpoint"`
    /// (default), or `"always"`. Operational — excluded from the
    /// scenario fingerprint.
    pub sync: String,
    /// Journal a per-shard breaker checkpoint every this many appended
    /// records (0 disables). Checkpoints bound
    /// how many records resume must replay. Operational — excluded
    /// from the scenario fingerprint.
    pub checkpoint_every: u64,
    /// Deterministic storage-fault injection; `None` runs on plain
    /// disk. Operational — excluded from the scenario fingerprint.
    pub chaos: Option<ChaosSpec>,
}

impl Default for RunnerSpec {
    fn default() -> Self {
        RunnerSpec {
            workers: 2,
            threads: 0,
            deadline_ms: 60_000,
            watchdog_tick_ms: 5,
            max_attempts: 3,
            queue_capacity: 64,
            backoff: BackoffSpec::default(),
            breaker: BreakerSpec::default(),
            cache: EvalCacheSpec::default(),
            analytic_fallback: true,
            sync: "on-checkpoint".to_string(),
            checkpoint_every: 64,
            chaos: None,
        }
    }
}

/// Service-layer policy for `c2bound-tool serve`; mirrors
/// `ServePolicy` in `c2-runner`. Governs how the daemon admits,
/// queues, and sheds submissions — never what any admitted sweep
/// computes — so the whole section is *operational*: like `sync`,
/// `checkpoint_every`, and `chaos` it is excluded from the scenario
/// fingerprint, and a scenario submitted to a daemon keeps the exact
/// journal/cache identity of the same scenario under one-shot `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Bounded job-queue depth; a submission arriving with the queue
    /// full is shed (429 + `Retry-After`), never queued unboundedly.
    pub queue_depth: u64,
    /// Maximum queued-plus-running jobs per tenant before further
    /// submissions from that tenant are shed.
    pub per_client_budget: u64,
    /// Executor threads draining the job queue (each admitted job
    /// still shards internally per its own `runner.threads`).
    pub executors: u64,
    /// Per-request socket read/parse deadline, ms; a client that
    /// cannot produce a full request within it is disconnected.
    pub read_timeout_ms: u64,
    /// Maximum request body size in bytes; larger submissions are
    /// rejected before being read.
    pub max_body_bytes: u64,
    /// Per-tenant admission breaker: a tenant whose jobs keep failing
    /// is shed outright until the breaker's clock-free cooldown and
    /// probe cycle readmits it.
    pub breaker: BreakerSpec,
    /// Shed backoff: `Retry-After` on rejected submissions follows
    /// this schedule (deterministic capped jitter keyed by tenant).
    pub shed_backoff: BackoffSpec,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            queue_depth: 16,
            per_client_budget: 2,
            executors: 2,
            read_timeout_ms: 5_000,
            max_body_bytes: 1 << 20,
            breaker: BreakerSpec {
                trip_threshold: 3,
                cooldown: 4,
                probes: 1,
            },
            shed_backoff: BackoffSpec {
                base_ms: 250,
                factor: 2.0,
                cap_ms: 5_000,
                jitter_frac: 0.25,
            },
        }
    }
}

/// Observability options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsSpec {
    /// Write the deterministic metrics report to this path after the
    /// sweep; `None` disables it.
    pub metrics_out: Option<String>,
    /// Write the deterministic Roofline overlay (one point per
    /// evaluated candidate) to this path after the sweep; `None`
    /// disables it. Operational — where a report lands never changes
    /// what the sweep computes, so the key is excluded from the
    /// semantic rendering (the historical `metrics_out` key predates
    /// that split and stays in it for fingerprint compatibility).
    pub roofline_out: Option<String>,
}

/// The complete declarative experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Schema version; only 1 is currently spoken.
    pub version: u64,
    /// Workload selection.
    pub workload: WorkloadSpec,
    /// Analytical-model knobs and characterization overrides.
    pub model: ModelSpec,
    /// Chip/cache/DRAM configuration for characterization & simulation.
    pub chip: ChipSpec,
    /// Design-space axes for the APS sweep.
    pub space: SpaceSpec,
    /// Silicon budget constraint.
    pub budget: BudgetSpec,
    /// Area-model coefficients.
    pub area: AreaSpec,
    /// Solver tolerances.
    pub solver: SolverSpec,
    /// Oracle selection (full-trace vs phase-clustered pricing).
    /// Semantic whenever it deviates from `full` mode.
    pub oracle: OracleSpec,
    /// Model-backend selection (CPU-CMP Eq. 10 vs GPU-SM bound).
    /// Semantic whenever it deviates from `cpu-cmp`.
    pub backend: BackendSpec,
    /// Scalability-law selection. Semantic whenever it deviates from
    /// `sun-ni`.
    pub speedup: SpeedupSpec,
    /// Surrogate-screening selection. Semantic whenever screening is
    /// enabled.
    pub screen: ScreenSpec,
    /// Supervised-runner policy.
    pub runner: RunnerSpec,
    /// Service-layer (daemon) policy. Operational — excluded from the
    /// scenario fingerprint.
    pub serve: ServeSpec,
    /// Observability options.
    pub observability: ObsSpec,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            version: 1,
            workload: WorkloadSpec::default(),
            model: ModelSpec::default(),
            chip: ChipSpec::default(),
            space: SpaceSpec::default(),
            budget: BudgetSpec::default(),
            area: AreaSpec::default(),
            solver: SolverSpec::default(),
            oracle: OracleSpec::default(),
            backend: BackendSpec::default(),
            speedup: SpeedupSpec::default(),
            screen: ScreenSpec::default(),
            runner: RunnerSpec::default(),
            serve: ServeSpec::default(),
            observability: ObsSpec::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Reject unknown and duplicate keys against a schema's allowed list.
fn check_keys(pairs: &[(String, Json)], allowed: &[&str], path: &str) -> Result<()> {
    for (i, (key, _)) in pairs.iter().enumerate() {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::UnknownKey {
                path: join(path, key),
            });
        }
        if pairs[..i].iter().any(|(prev, _)| prev == key) {
            return Err(ScenarioError::DuplicateKey {
                path: join(path, key),
            });
        }
    }
    Ok(())
}

fn expect_obj<'a>(value: &'a Json, path: &str) -> Result<&'a [(String, Json)]> {
    value.as_obj().ok_or(ScenarioError::WrongType {
        path: path.to_string(),
        expected: "object",
    })
}

fn find<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_f64(pairs: &[(String, Json)], key: &str, path: &str, default: f64) -> Result<f64> {
    match find(pairs, key) {
        None => Ok(default),
        Some(Json::Num(x)) => Ok(*x),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "number",
        }),
    }
}

fn get_u64(pairs: &[(String, Json)], key: &str, path: &str, default: u64) -> Result<u64> {
    match find(pairs, key) {
        None => Ok(default),
        Some(value) => value.as_u64().ok_or(ScenarioError::WrongType {
            path: join(path, key),
            expected: "non-negative integer",
        }),
    }
}

fn get_bool(pairs: &[(String, Json)], key: &str, path: &str, default: bool) -> Result<bool> {
    match find(pairs, key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "boolean",
        }),
    }
}

fn get_string(pairs: &[(String, Json)], key: &str, path: &str, default: &str) -> Result<String> {
    match find(pairs, key) {
        None => Ok(default.to_string()),
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "string",
        }),
    }
}

/// Optional number: absent and `null` both mean "not set".
fn get_opt_f64(pairs: &[(String, Json)], key: &str, path: &str) -> Result<Option<f64>> {
    match find(pairs, key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(x)) => Ok(Some(*x)),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "number or null",
        }),
    }
}

/// Optional non-negative integer: absent and `null` both mean "not
/// set".
fn get_opt_u64(pairs: &[(String, Json)], key: &str, path: &str) -> Result<Option<u64>> {
    match find(pairs, key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value.as_u64().map(Some).ok_or(ScenarioError::WrongType {
            path: join(path, key),
            expected: "non-negative integer or null",
        }),
    }
}

/// Optional string: absent and `null` both mean "not set".
fn get_opt_string(pairs: &[(String, Json)], key: &str, path: &str) -> Result<Option<String>> {
    match find(pairs, key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "string or null",
        }),
    }
}

fn get_vec_f64(
    pairs: &[(String, Json)],
    key: &str,
    path: &str,
    default: &[f64],
) -> Result<Vec<f64>> {
    match find(pairs, key) {
        None => Ok(default.to_vec()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_f64().ok_or(ScenarioError::WrongType {
                    path: join(path, key),
                    expected: "array of numbers",
                })
            })
            .collect(),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "array of numbers",
        }),
    }
}

fn get_vec_u64(
    pairs: &[(String, Json)],
    key: &str,
    path: &str,
    default: &[u64],
) -> Result<Vec<u64>> {
    match find(pairs, key) {
        None => Ok(default.to_vec()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_u64().ok_or(ScenarioError::WrongType {
                    path: join(path, key),
                    expected: "array of non-negative integers",
                })
            })
            .collect(),
        Some(_) => Err(ScenarioError::WrongType {
            path: join(path, key),
            expected: "array of non-negative integers",
        }),
    }
}

// ---------------------------------------------------------------------------
// Per-section parse / render
// ---------------------------------------------------------------------------

impl WorkloadSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["name", "size"], path)?;
        let d = WorkloadSpec::default();
        Ok(WorkloadSpec {
            name: get_string(pairs, "name", path, &d.name)?,
            size: get_u64(pairs, "size", path, d.size)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("size".into(), Json::Num(self.size as f64)),
        ])
    }
}

impl CamatSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "hit_time",
                "hit_concurrency",
                "pure_miss_rate",
                "pure_avg_miss_penalty",
                "pure_miss_concurrency",
            ],
            path,
        )?;
        // No defaults here: an override block must spell out every
        // measurement, otherwise it silently mixes sources.
        let require = |key: &'static str| -> Result<f64> {
            match find(pairs, key) {
                Some(Json::Num(x)) => Ok(*x),
                Some(_) => Err(ScenarioError::WrongType {
                    path: join(path, key),
                    expected: "number",
                }),
                None => Err(ScenarioError::OutOfRange {
                    path: join(path, key),
                    why: "required when a camat override block is present",
                }),
            }
        };
        Ok(CamatSpec {
            hit_time: require("hit_time")?,
            hit_concurrency: require("hit_concurrency")?,
            pure_miss_rate: require("pure_miss_rate")?,
            pure_avg_miss_penalty: require("pure_avg_miss_penalty")?,
            pure_miss_concurrency: require("pure_miss_concurrency")?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hit_time".into(), Json::Num(self.hit_time)),
            ("hit_concurrency".into(), Json::Num(self.hit_concurrency)),
            ("pure_miss_rate".into(), Json::Num(self.pure_miss_rate)),
            (
                "pure_avg_miss_penalty".into(),
                Json::Num(self.pure_avg_miss_penalty),
            ),
            (
                "pure_miss_concurrency".into(),
                Json::Num(self.pure_miss_concurrency),
            ),
        ])
    }
}

impl ModelSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "l1_alpha",
                "l2_alpha",
                "dram_latency",
                "overlap_cap",
                "g_exponent",
                "camat",
            ],
            path,
        )?;
        let d = ModelSpec::default();
        let camat = match find(pairs, "camat") {
            None | Some(Json::Null) => None,
            Some(value) => Some(CamatSpec::from_json_value(value, &join(path, "camat"))?),
        };
        Ok(ModelSpec {
            l1_alpha: get_f64(pairs, "l1_alpha", path, d.l1_alpha)?,
            l2_alpha: get_f64(pairs, "l2_alpha", path, d.l2_alpha)?,
            dram_latency: get_f64(pairs, "dram_latency", path, d.dram_latency)?,
            overlap_cap: get_f64(pairs, "overlap_cap", path, d.overlap_cap)?,
            g_exponent: get_opt_f64(pairs, "g_exponent", path)?,
            camat,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("l1_alpha".into(), Json::Num(self.l1_alpha)),
            ("l2_alpha".into(), Json::Num(self.l2_alpha)),
            ("dram_latency".into(), Json::Num(self.dram_latency)),
            ("overlap_cap".into(), Json::Num(self.overlap_cap)),
            (
                "g_exponent".into(),
                self.g_exponent.map_or(Json::Null, Json::Num),
            ),
            (
                "camat".into(),
                self.camat.as_ref().map_or(Json::Null, CamatSpec::to_json),
            ),
        ])
    }
}

impl CacheSpec {
    fn from_json_value(value: &Json, path: &str, default: &CacheSpec) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "size_bytes",
                "line_size",
                "associativity",
                "hit_latency",
                "mshr_entries",
                "ports",
                "banks",
                "next_line_prefetch",
            ],
            path,
        )?;
        Ok(CacheSpec {
            size_bytes: get_u64(pairs, "size_bytes", path, default.size_bytes)?,
            line_size: get_u64(pairs, "line_size", path, default.line_size)?,
            associativity: get_u64(pairs, "associativity", path, default.associativity)?,
            hit_latency: get_u64(pairs, "hit_latency", path, default.hit_latency)?,
            mshr_entries: get_u64(pairs, "mshr_entries", path, default.mshr_entries)?,
            ports: get_u64(pairs, "ports", path, default.ports)?,
            banks: get_u64(pairs, "banks", path, default.banks)?,
            next_line_prefetch: get_bool(
                pairs,
                "next_line_prefetch",
                path,
                default.next_line_prefetch,
            )?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("size_bytes".into(), Json::Num(self.size_bytes as f64)),
            ("line_size".into(), Json::Num(self.line_size as f64)),
            ("associativity".into(), Json::Num(self.associativity as f64)),
            ("hit_latency".into(), Json::Num(self.hit_latency as f64)),
            ("mshr_entries".into(), Json::Num(self.mshr_entries as f64)),
            ("ports".into(), Json::Num(self.ports as f64)),
            ("banks".into(), Json::Num(self.banks as f64)),
            (
                "next_line_prefetch".into(),
                Json::Bool(self.next_line_prefetch),
            ),
        ])
    }
}

impl DramSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "banks",
                "row_size",
                "t_rcd",
                "t_cas",
                "t_rp",
                "t_bus",
                "queue_depth",
            ],
            path,
        )?;
        let d = DramSpec::default();
        Ok(DramSpec {
            banks: get_u64(pairs, "banks", path, d.banks)?,
            row_size: get_u64(pairs, "row_size", path, d.row_size)?,
            t_rcd: get_u64(pairs, "t_rcd", path, d.t_rcd)?,
            t_cas: get_u64(pairs, "t_cas", path, d.t_cas)?,
            t_rp: get_u64(pairs, "t_rp", path, d.t_rp)?,
            t_bus: get_u64(pairs, "t_bus", path, d.t_bus)?,
            queue_depth: get_u64(pairs, "queue_depth", path, d.queue_depth)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("banks".into(), Json::Num(self.banks as f64)),
            ("row_size".into(), Json::Num(self.row_size as f64)),
            ("t_rcd".into(), Json::Num(self.t_rcd as f64)),
            ("t_cas".into(), Json::Num(self.t_cas as f64)),
            ("t_rp".into(), Json::Num(self.t_rp as f64)),
            ("t_bus".into(), Json::Num(self.t_bus as f64)),
            ("queue_depth".into(), Json::Num(self.queue_depth as f64)),
        ])
    }
}

impl CoreSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["issue_width", "rob_size", "exec_latency"], path)?;
        let d = CoreSpec::default();
        Ok(CoreSpec {
            issue_width: get_u64(pairs, "issue_width", path, d.issue_width)?,
            rob_size: get_u64(pairs, "rob_size", path, d.rob_size)?,
            exec_latency: get_u64(pairs, "exec_latency", path, d.exec_latency)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("issue_width".into(), Json::Num(self.issue_width as f64)),
            ("rob_size".into(), Json::Num(self.rob_size as f64)),
            ("exec_latency".into(), Json::Num(self.exec_latency as f64)),
        ])
    }
}

impl NocSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["l1_l2_latency", "l2_mem_latency"], path)?;
        let d = NocSpec::default();
        Ok(NocSpec {
            l1_l2_latency: get_u64(pairs, "l1_l2_latency", path, d.l1_l2_latency)?,
            l2_mem_latency: get_u64(pairs, "l2_mem_latency", path, d.l2_mem_latency)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("l1_l2_latency".into(), Json::Num(self.l1_l2_latency as f64)),
            (
                "l2_mem_latency".into(),
                Json::Num(self.l2_mem_latency as f64),
            ),
        ])
    }
}

impl ChipSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &["cores", "core", "l1", "l2", "dram", "noc", "max_cycles"],
            path,
        )?;
        let d = ChipSpec::default();
        let core = match find(pairs, "core") {
            None => d.core,
            Some(value) => CoreSpec::from_json_value(value, &join(path, "core"))?,
        };
        let l1 = match find(pairs, "l1") {
            None => d.l1.clone(),
            Some(value) => CacheSpec::from_json_value(value, &join(path, "l1"), &d.l1)?,
        };
        let l2 = match find(pairs, "l2") {
            None => d.l2.clone(),
            Some(value) => CacheSpec::from_json_value(value, &join(path, "l2"), &d.l2)?,
        };
        let dram = match find(pairs, "dram") {
            None => d.dram,
            Some(value) => DramSpec::from_json_value(value, &join(path, "dram"))?,
        };
        let noc = match find(pairs, "noc") {
            None => d.noc,
            Some(value) => NocSpec::from_json_value(value, &join(path, "noc"))?,
        };
        Ok(ChipSpec {
            cores: get_u64(pairs, "cores", path, d.cores)?,
            core,
            l1,
            l2,
            dram,
            noc,
            max_cycles: get_u64(pairs, "max_cycles", path, d.max_cycles)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cores".into(), Json::Num(self.cores as f64)),
            ("core".into(), self.core.to_json()),
            ("l1".into(), self.l1.to_json()),
            ("l2".into(), self.l2.to_json()),
            ("dram".into(), self.dram.to_json()),
            ("noc".into(), self.noc.to_json()),
            ("max_cycles".into(), Json::Num(self.max_cycles as f64)),
        ])
    }
}

impl SpaceSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["a0", "a1", "a2", "n", "issue", "rob"], path)?;
        let d = SpaceSpec::default();
        Ok(SpaceSpec {
            a0: get_vec_f64(pairs, "a0", path, &d.a0)?,
            a1: get_vec_f64(pairs, "a1", path, &d.a1)?,
            a2: get_vec_f64(pairs, "a2", path, &d.a2)?,
            n: get_vec_u64(pairs, "n", path, &d.n)?,
            issue: get_vec_u64(pairs, "issue", path, &d.issue)?,
            rob: get_vec_u64(pairs, "rob", path, &d.rob)?,
        })
    }

    fn to_json(&self) -> Json {
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        let ints = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect());
        Json::Obj(vec![
            ("a0".into(), nums(&self.a0)),
            ("a1".into(), nums(&self.a1)),
            ("a2".into(), nums(&self.a2)),
            ("n".into(), ints(&self.n)),
            ("issue".into(), ints(&self.issue)),
            ("rob".into(), ints(&self.rob)),
        ])
    }
}

impl BudgetSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["total_area_mm2", "shared_area_mm2"], path)?;
        let d = BudgetSpec::default();
        Ok(BudgetSpec {
            total_area_mm2: get_f64(pairs, "total_area_mm2", path, d.total_area_mm2)?,
            shared_area_mm2: get_f64(pairs, "shared_area_mm2", path, d.shared_area_mm2)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("total_area_mm2".into(), Json::Num(self.total_area_mm2)),
            ("shared_area_mm2".into(), Json::Num(self.shared_area_mm2)),
        ])
    }
}

impl AreaSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "pollack_k0",
                "pollack_phi0",
                "reference_core_area",
                "cache_bytes_per_mm2",
            ],
            path,
        )?;
        let d = AreaSpec::default();
        Ok(AreaSpec {
            pollack_k0: get_f64(pairs, "pollack_k0", path, d.pollack_k0)?,
            pollack_phi0: get_f64(pairs, "pollack_phi0", path, d.pollack_phi0)?,
            reference_core_area: get_f64(
                pairs,
                "reference_core_area",
                path,
                d.reference_core_area,
            )?,
            cache_bytes_per_mm2: get_f64(
                pairs,
                "cache_bytes_per_mm2",
                path,
                d.cache_bytes_per_mm2,
            )?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("pollack_k0".into(), Json::Num(self.pollack_k0)),
            ("pollack_phi0".into(), Json::Num(self.pollack_phi0)),
            (
                "reference_core_area".into(),
                Json::Num(self.reference_core_area),
            ),
            (
                "cache_bytes_per_mm2".into(),
                Json::Num(self.cache_bytes_per_mm2),
            ),
        ])
    }
}

impl SolverSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "newton_tol",
                "newton_max_iters",
                "nelder_tol",
                "nelder_max_iters",
            ],
            path,
        )?;
        let d = SolverSpec::default();
        Ok(SolverSpec {
            newton_tol: get_f64(pairs, "newton_tol", path, d.newton_tol)?,
            newton_max_iters: get_u64(pairs, "newton_max_iters", path, d.newton_max_iters)?,
            nelder_tol: get_f64(pairs, "nelder_tol", path, d.nelder_tol)?,
            nelder_max_iters: get_u64(pairs, "nelder_max_iters", path, d.nelder_max_iters)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("newton_tol".into(), Json::Num(self.newton_tol)),
            (
                "newton_max_iters".into(),
                Json::Num(self.newton_max_iters as f64),
            ),
            ("nelder_tol".into(), Json::Num(self.nelder_tol)),
            (
                "nelder_max_iters".into(),
                Json::Num(self.nelder_max_iters as f64),
            ),
        ])
    }
}

impl BackoffSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["base_ms", "factor", "cap_ms", "jitter_frac"], path)?;
        let d = BackoffSpec::default();
        Ok(BackoffSpec {
            base_ms: get_u64(pairs, "base_ms", path, d.base_ms)?,
            factor: get_f64(pairs, "factor", path, d.factor)?,
            cap_ms: get_u64(pairs, "cap_ms", path, d.cap_ms)?,
            jitter_frac: get_f64(pairs, "jitter_frac", path, d.jitter_frac)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("base_ms".into(), Json::Num(self.base_ms as f64)),
            ("factor".into(), Json::Num(self.factor)),
            ("cap_ms".into(), Json::Num(self.cap_ms as f64)),
            ("jitter_frac".into(), Json::Num(self.jitter_frac)),
        ])
    }
}

impl BreakerSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["trip_threshold", "cooldown", "probes"], path)?;
        let d = BreakerSpec::default();
        Ok(BreakerSpec {
            trip_threshold: get_u64(pairs, "trip_threshold", path, d.trip_threshold)?,
            cooldown: get_u64(pairs, "cooldown", path, d.cooldown)?,
            probes: get_u64(pairs, "probes", path, d.probes)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "trip_threshold".into(),
                Json::Num(self.trip_threshold as f64),
            ),
            ("cooldown".into(), Json::Num(self.cooldown as f64)),
            ("probes".into(), Json::Num(self.probes as f64)),
        ])
    }
}

impl EvalCacheSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["enabled", "path"], path)?;
        Ok(EvalCacheSpec {
            enabled: get_bool(pairs, "enabled", path, false)?,
            path: get_opt_string(pairs, "path", path)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("enabled".into(), Json::Bool(self.enabled)),
            (
                "path".into(),
                self.path
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
        ])
    }
}

impl ChaosSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "crash_at_write",
                "torn_bytes",
                "enospc_at_write",
                "short_write_at",
                "seed",
            ],
            path,
        )?;
        Ok(ChaosSpec {
            crash_at_write: get_opt_u64(pairs, "crash_at_write", path)?,
            torn_bytes: get_opt_u64(pairs, "torn_bytes", path)?,
            enospc_at_write: get_opt_u64(pairs, "enospc_at_write", path)?,
            short_write_at: get_opt_u64(pairs, "short_write_at", path)?,
            seed: get_u64(pairs, "seed", path, 0)?,
        })
    }

    fn to_json(&self) -> Json {
        fn opt(v: Option<u64>) -> Json {
            v.map_or(Json::Null, |n| Json::Num(n as f64))
        }
        Json::Obj(vec![
            ("crash_at_write".into(), opt(self.crash_at_write)),
            ("torn_bytes".into(), opt(self.torn_bytes)),
            ("enospc_at_write".into(), opt(self.enospc_at_write)),
            ("short_write_at".into(), opt(self.short_write_at)),
            ("seed".into(), Json::Num(self.seed as f64)),
        ])
    }
}

impl PhaseSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["interval_len", "clusters", "seed"], path)?;
        let d = PhaseSpec::default();
        Ok(PhaseSpec {
            interval_len: get_u64(pairs, "interval_len", path, d.interval_len)?,
            clusters: get_u64(pairs, "clusters", path, d.clusters)?,
            seed: get_u64(pairs, "seed", path, d.seed)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("interval_len".into(), Json::Num(self.interval_len as f64)),
            ("clusters".into(), Json::Num(self.clusters as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
        ])
    }
}

impl OracleSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["mode", "phase"], path)?;
        let d = OracleSpec::default();
        let mode_str = get_string(pairs, "mode", path, d.mode.as_str())?;
        let mode = OracleMode::parse(&mode_str).ok_or(ScenarioError::OutOfRange {
            path: join(path, "mode"),
            why: "must be \"full\" or \"phase\"",
        })?;
        let phase = match find(pairs, "phase") {
            None => d.phase,
            Some(value) => PhaseSpec::from_json_value(value, &join(path, "phase"))?,
        };
        Ok(OracleSpec { mode, phase })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("mode".into(), Json::Str(self.mode.as_str().to_string())),
            ("phase".into(), self.phase.to_json()),
        ])
    }
}

impl GpuSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "work_flops",
                "m_fma",
                "warp_lanes",
                "mem_bytes_per_flop",
                "mem_bandwidth",
                "resident_warps",
                "max_warps",
            ],
            path,
        )?;
        let d = GpuSpec::default();
        Ok(GpuSpec {
            work_flops: get_f64(pairs, "work_flops", path, d.work_flops)?,
            m_fma: get_f64(pairs, "m_fma", path, d.m_fma)?,
            warp_lanes: get_u64(pairs, "warp_lanes", path, d.warp_lanes)?,
            mem_bytes_per_flop: get_f64(pairs, "mem_bytes_per_flop", path, d.mem_bytes_per_flop)?,
            mem_bandwidth: get_f64(pairs, "mem_bandwidth", path, d.mem_bandwidth)?,
            resident_warps: get_u64(pairs, "resident_warps", path, d.resident_warps)?,
            max_warps: get_u64(pairs, "max_warps", path, d.max_warps)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("work_flops".into(), Json::Num(self.work_flops)),
            ("m_fma".into(), Json::Num(self.m_fma)),
            ("warp_lanes".into(), Json::Num(self.warp_lanes as f64)),
            (
                "mem_bytes_per_flop".into(),
                Json::Num(self.mem_bytes_per_flop),
            ),
            ("mem_bandwidth".into(), Json::Num(self.mem_bandwidth)),
            (
                "resident_warps".into(),
                Json::Num(self.resident_warps as f64),
            ),
            ("max_warps".into(), Json::Num(self.max_warps as f64)),
        ])
    }
}

impl BackendSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["kind", "gpu"], path)?;
        let d = BackendSpec::default();
        let kind_str = get_string(pairs, "kind", path, d.kind.as_str())?;
        let kind = BackendKind::parse(&kind_str).ok_or(ScenarioError::OutOfRange {
            path: join(path, "kind"),
            why: "must be \"cpu-cmp\" or \"gpu-sm\"",
        })?;
        let gpu = match find(pairs, "gpu") {
            None => d.gpu,
            Some(value) => GpuSpec::from_json_value(value, &join(path, "gpu"))?,
        };
        Ok(BackendSpec { kind, gpu })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.as_str().to_string())),
            ("gpu".into(), self.gpu.to_json()),
        ])
    }
}

impl MemoryWallSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["beta", "n_sat"], path)?;
        let d = MemoryWallSpec::default();
        Ok(MemoryWallSpec {
            beta: get_f64(pairs, "beta", path, d.beta)?,
            n_sat: get_f64(pairs, "n_sat", path, d.n_sat)?,
        })
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("beta".into(), Json::Num(self.beta)),
            ("n_sat".into(), Json::Num(self.n_sat)),
        ])
    }
}

impl UslSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["sigma", "kappa"], path)?;
        let d = UslSpec::default();
        Ok(UslSpec {
            sigma: get_opt_f64(pairs, "sigma", path)?,
            kappa: get_f64(pairs, "kappa", path, d.kappa)?,
        })
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("sigma".into(), self.sigma.map_or(Json::Null, Json::Num)),
            ("kappa".into(), Json::Num(self.kappa)),
        ])
    }
}

impl SpeedupSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["law", "memory_wall", "usl"], path)?;
        let d = SpeedupSpec::default();
        let law_str = get_string(pairs, "law", path, d.law.as_str())?;
        let law = LawKind::parse(&law_str).ok_or(ScenarioError::OutOfRange {
            path: join(path, "law"),
            why: "must be \"sun-ni\", \"amdahl\", \"memory-wall\" or \"usl\"",
        })?;
        let memory_wall = match find(pairs, "memory_wall") {
            None => d.memory_wall,
            Some(value) => MemoryWallSpec::from_json_value(value, &join(path, "memory_wall"))?,
        };
        let usl = match find(pairs, "usl") {
            None => d.usl,
            Some(value) => UslSpec::from_json_value(value, &join(path, "usl"))?,
        };
        Ok(SpeedupSpec {
            law,
            memory_wall,
            usl,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("law".into(), Json::Str(self.law.as_str().to_string())),
            ("memory_wall".into(), self.memory_wall.to_json()),
            ("usl".into(), self.usl.to_json()),
        ])
    }
}

impl ScreenSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "enabled",
                "seed",
                "initial",
                "batch",
                "budget",
                "committee",
                "hidden",
                "epochs",
                "tolerance",
            ],
            path,
        )?;
        let d = ScreenSpec::default();
        Ok(ScreenSpec {
            enabled: get_bool(pairs, "enabled", path, d.enabled)?,
            seed: get_u64(pairs, "seed", path, d.seed)?,
            initial: get_u64(pairs, "initial", path, d.initial)?,
            batch: get_u64(pairs, "batch", path, d.batch)?,
            budget: get_u64(pairs, "budget", path, d.budget)?,
            committee: get_u64(pairs, "committee", path, d.committee)?,
            hidden: get_u64(pairs, "hidden", path, d.hidden)?,
            epochs: get_u64(pairs, "epochs", path, d.epochs)?,
            tolerance: get_f64(pairs, "tolerance", path, d.tolerance)?,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("enabled".into(), Json::Bool(self.enabled)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("initial".into(), Json::Num(self.initial as f64)),
            ("batch".into(), Json::Num(self.batch as f64)),
            ("budget".into(), Json::Num(self.budget as f64)),
            ("committee".into(), Json::Num(self.committee as f64)),
            ("hidden".into(), Json::Num(self.hidden as f64)),
            ("epochs".into(), Json::Num(self.epochs as f64)),
            ("tolerance".into(), Json::Num(self.tolerance)),
        ])
    }
}

impl RunnerSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "workers",
                "threads",
                "deadline_ms",
                "watchdog_tick_ms",
                "max_attempts",
                "queue_capacity",
                "backoff",
                "breaker",
                "cache",
                "analytic_fallback",
                "sync",
                "checkpoint_every",
                "chaos",
            ],
            path,
        )?;
        let d = RunnerSpec::default();
        let backoff = match find(pairs, "backoff") {
            None => d.backoff,
            Some(value) => BackoffSpec::from_json_value(value, &join(path, "backoff"))?,
        };
        let breaker = match find(pairs, "breaker") {
            None => d.breaker,
            Some(value) => BreakerSpec::from_json_value(value, &join(path, "breaker"))?,
        };
        let cache = match find(pairs, "cache") {
            None => d.cache,
            Some(value) => EvalCacheSpec::from_json_value(value, &join(path, "cache"))?,
        };
        let chaos = match find(pairs, "chaos") {
            None | Some(Json::Null) => None,
            Some(value) => Some(ChaosSpec::from_json_value(value, &join(path, "chaos"))?),
        };
        Ok(RunnerSpec {
            workers: get_u64(pairs, "workers", path, d.workers)?,
            threads: get_u64(pairs, "threads", path, d.threads)?,
            deadline_ms: get_u64(pairs, "deadline_ms", path, d.deadline_ms)?,
            watchdog_tick_ms: get_u64(pairs, "watchdog_tick_ms", path, d.watchdog_tick_ms)?,
            max_attempts: get_u64(pairs, "max_attempts", path, d.max_attempts)?,
            queue_capacity: get_u64(pairs, "queue_capacity", path, d.queue_capacity)?,
            backoff,
            breaker,
            cache,
            analytic_fallback: get_bool(pairs, "analytic_fallback", path, d.analytic_fallback)?,
            sync: get_string(pairs, "sync", path, &d.sync)?,
            checkpoint_every: get_u64(pairs, "checkpoint_every", path, d.checkpoint_every)?,
            chaos,
        })
    }

    /// The canonical JSON. `semantic` drops the operational keys
    /// (`sync`, `checkpoint_every`, `chaos`) that configure *how* the
    /// run persists, never *what* it computes — they are excluded
    /// from the fingerprint so, e.g., a crashed chaos run's journal
    /// stays resumable with chaos disarmed, and so pre-existing
    /// fingerprints survive the keys' introduction.
    fn to_json_with(&self, semantic: bool) -> Json {
        let mut pairs = vec![
            ("workers".into(), Json::Num(self.workers as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("deadline_ms".into(), Json::Num(self.deadline_ms as f64)),
            (
                "watchdog_tick_ms".into(),
                Json::Num(self.watchdog_tick_ms as f64),
            ),
            ("max_attempts".into(), Json::Num(self.max_attempts as f64)),
            (
                "queue_capacity".into(),
                Json::Num(self.queue_capacity as f64),
            ),
            ("backoff".into(), self.backoff.to_json()),
            ("breaker".into(), self.breaker.to_json()),
            ("cache".into(), self.cache.to_json()),
            (
                "analytic_fallback".into(),
                Json::Bool(self.analytic_fallback),
            ),
        ];
        if !semantic {
            pairs.push(("sync".into(), Json::Str(self.sync.clone())));
            pairs.push((
                "checkpoint_every".into(),
                Json::Num(self.checkpoint_every as f64),
            ));
            pairs.push((
                "chaos".into(),
                self.chaos.as_ref().map_or(Json::Null, ChaosSpec::to_json),
            ));
        }
        Json::Obj(pairs)
    }
}

impl ServeSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(
            pairs,
            &[
                "queue_depth",
                "per_client_budget",
                "executors",
                "read_timeout_ms",
                "max_body_bytes",
                "breaker",
                "shed_backoff",
            ],
            path,
        )?;
        let d = ServeSpec::default();
        let breaker = match find(pairs, "breaker") {
            None => d.breaker,
            Some(value) => BreakerSpec::from_json_value(value, &join(path, "breaker"))?,
        };
        let shed_backoff = match find(pairs, "shed_backoff") {
            None => d.shed_backoff,
            Some(value) => BackoffSpec::from_json_value(value, &join(path, "shed_backoff"))?,
        };
        Ok(ServeSpec {
            queue_depth: get_u64(pairs, "queue_depth", path, d.queue_depth)?,
            per_client_budget: get_u64(pairs, "per_client_budget", path, d.per_client_budget)?,
            executors: get_u64(pairs, "executors", path, d.executors)?,
            read_timeout_ms: get_u64(pairs, "read_timeout_ms", path, d.read_timeout_ms)?,
            max_body_bytes: get_u64(pairs, "max_body_bytes", path, d.max_body_bytes)?,
            breaker,
            shed_backoff,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("queue_depth".into(), Json::Num(self.queue_depth as f64)),
            (
                "per_client_budget".into(),
                Json::Num(self.per_client_budget as f64),
            ),
            ("executors".into(), Json::Num(self.executors as f64)),
            (
                "read_timeout_ms".into(),
                Json::Num(self.read_timeout_ms as f64),
            ),
            (
                "max_body_bytes".into(),
                Json::Num(self.max_body_bytes as f64),
            ),
            ("breaker".into(), self.breaker.to_json()),
            ("shed_backoff".into(), self.shed_backoff.to_json()),
        ])
    }
}

impl ObsSpec {
    fn from_json_value(value: &Json, path: &str) -> Result<Self> {
        let pairs = expect_obj(value, path)?;
        check_keys(pairs, &["metrics_out", "roofline_out"], path)?;
        Ok(ObsSpec {
            metrics_out: get_opt_string(pairs, "metrics_out", path)?,
            roofline_out: get_opt_string(pairs, "roofline_out", path)?,
        })
    }

    /// `semantic` drops `roofline_out`: report destinations are
    /// operational, but the historical `metrics_out` key was already
    /// part of the fingerprint input and must stay to keep every
    /// pre-existing fingerprint valid.
    fn to_json_with(&self, semantic: bool) -> Json {
        let mut pairs = vec![(
            "metrics_out".into(),
            self.metrics_out
                .as_ref()
                .map_or(Json::Null, |s| Json::Str(s.clone())),
        )];
        if !semantic {
            pairs.push((
                "roofline_out".into(),
                self.roofline_out
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ));
        }
        Json::Obj(pairs)
    }
}

// ---------------------------------------------------------------------------
// Scenario: parse, render, validate, fingerprint
// ---------------------------------------------------------------------------

impl Scenario {
    /// Parse and validate a scenario document. Strict: unknown keys,
    /// duplicate keys, type mismatches, and out-of-range values are all
    /// typed errors.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = Json::parse(text)?;
        let scenario = Scenario::from_json_value(&doc)?;
        scenario.validate()?;
        Ok(scenario)
    }

    fn from_json_value(doc: &Json) -> Result<Self> {
        let pairs = expect_obj(doc, "scenario")?;
        check_keys(
            pairs,
            &[
                "version",
                "workload",
                "model",
                "chip",
                "space",
                "budget",
                "area",
                "solver",
                "oracle",
                "backend",
                "speedup",
                "screen",
                "runner",
                "serve",
                "observability",
            ],
            "",
        )?;
        let version = get_u64(pairs, "version", "", 1)?;
        if version != 1 {
            return Err(ScenarioError::UnsupportedVersion(version));
        }
        let section = |key: &str| find(pairs, key);
        Ok(Scenario {
            version,
            workload: match section("workload") {
                None => WorkloadSpec::default(),
                Some(v) => WorkloadSpec::from_json_value(v, "workload")?,
            },
            model: match section("model") {
                None => ModelSpec::default(),
                Some(v) => ModelSpec::from_json_value(v, "model")?,
            },
            chip: match section("chip") {
                None => ChipSpec::default(),
                Some(v) => ChipSpec::from_json_value(v, "chip")?,
            },
            space: match section("space") {
                None => SpaceSpec::default(),
                Some(v) => SpaceSpec::from_json_value(v, "space")?,
            },
            budget: match section("budget") {
                None => BudgetSpec::default(),
                Some(v) => BudgetSpec::from_json_value(v, "budget")?,
            },
            area: match section("area") {
                None => AreaSpec::default(),
                Some(v) => AreaSpec::from_json_value(v, "area")?,
            },
            solver: match section("solver") {
                None => SolverSpec::default(),
                Some(v) => SolverSpec::from_json_value(v, "solver")?,
            },
            oracle: match section("oracle") {
                None => OracleSpec::default(),
                Some(v) => OracleSpec::from_json_value(v, "oracle")?,
            },
            backend: match section("backend") {
                None => BackendSpec::default(),
                Some(v) => BackendSpec::from_json_value(v, "backend")?,
            },
            speedup: match section("speedup") {
                None => SpeedupSpec::default(),
                Some(v) => SpeedupSpec::from_json_value(v, "speedup")?,
            },
            screen: match section("screen") {
                None => ScreenSpec::default(),
                Some(v) => ScreenSpec::from_json_value(v, "screen")?,
            },
            runner: match section("runner") {
                None => RunnerSpec::default(),
                Some(v) => RunnerSpec::from_json_value(v, "runner")?,
            },
            serve: match section("serve") {
                None => ServeSpec::default(),
                Some(v) => ServeSpec::from_json_value(v, "serve")?,
            },
            observability: match section("observability") {
                None => ObsSpec::default(),
                Some(v) => ObsSpec::from_json_value(v, "observability")?,
            },
        })
    }

    /// The canonical JSON value: every key present, fixed section order.
    pub fn to_json(&self) -> Json {
        self.to_json_with(false)
    }

    fn to_json_with(&self, semantic: bool) -> Json {
        let mut pairs = vec![
            ("version".into(), Json::Num(self.version as f64)),
            ("workload".into(), self.workload.to_json()),
            ("model".into(), self.model.to_json()),
            ("chip".into(), self.chip.to_json()),
            ("space".into(), self.space.to_json()),
            ("budget".into(), self.budget.to_json()),
            ("area".into(), self.area.to_json()),
            ("solver".into(), self.solver.to_json()),
        ];
        // The oracle section is semantic exactly when it deviates from
        // full-trace pricing: phase mode changes what the sweep
        // computes, so it must move the fingerprint; in full mode the
        // section is dropped from the semantic rendering so every
        // fingerprint minted before the key existed stays valid.
        if !semantic || self.oracle.mode != OracleMode::Full {
            pairs.push(("oracle".into(), self.oracle.to_json()));
        }
        // Same rule for the backend: a non-default backend changes
        // what every evaluation computes, so it moves the fingerprint;
        // the default `cpu-cmp` section is dropped from the semantic
        // rendering so pre-existing fingerprints survive unchanged.
        if !semantic || self.backend.kind != BackendKind::CpuCmp {
            pairs.push(("backend".into(), self.backend.to_json()));
        }
        // Same rule for the scalability law: a non-Sun-Ni law changes
        // every analytic time the sweep computes; the default section
        // is dropped from the semantic rendering so every pre-existing
        // fingerprint survives the key's introduction.
        if !semantic || self.speedup.law != LawKind::SunNi {
            pairs.push(("speedup".into(), self.speedup.to_json()));
        }
        // And for screening: enabling it changes which points receive
        // true evaluations (the journal's record set), so it moves the
        // fingerprint; the disabled section is dropped from the
        // semantic rendering.
        if !semantic || self.screen.enabled {
            pairs.push(("screen".into(), self.screen.to_json()));
        }
        pairs.push(("runner".into(), self.runner.to_json_with(semantic)));
        if !semantic {
            // The whole service-layer section is operational (daemon
            // admission/shedding policy): dropped from the semantic
            // rendering so submitting a scenario to `serve` cannot
            // change its fingerprint — and with it the journal and
            // cache identity — relative to one-shot `run`.
            pairs.push(("serve".into(), self.serve.to_json()));
        }
        pairs.push((
            "observability".into(),
            self.observability.to_json_with(semantic),
        ));
        Json::Obj(pairs)
    }

    /// Compact canonical rendering; these bytes define the fingerprint.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Pretty canonical rendering for files and `scenario show`.
    pub fn render_pretty(&self) -> String {
        let mut out = self.to_json().render_pretty();
        out.push('\n');
        out
    }

    /// Stable identity: FNV-1a over the compact *semantic* rendering —
    /// the canonical bytes minus the operational runner keys (`sync`,
    /// `checkpoint_every`, `chaos`), which configure durability and
    /// fault injection, never what the sweep computes. Any semantic
    /// change to the scenario changes this value; two documents that
    /// parse to the same scenario share it, as do two scenarios that
    /// differ only operationally (so a crashed chaos run's journal is
    /// resumable with chaos disarmed).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_json_with(true).render().as_bytes())
    }

    /// The fingerprint as the fixed-width hex spelling used in CLI
    /// output and error messages.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Physical-range validation, NaN-rejecting style. Structural
    /// constraints that belong to a consuming crate (power-of-two set
    /// counts, line-size agreement, …) are enforced by that crate's
    /// `from_spec` constructor, not duplicated here.
    #[allow(clippy::too_many_lines)]
    pub fn validate(&self) -> Result<()> {
        fn fail(path: &'static str, why: &'static str) -> ScenarioError {
            ScenarioError::OutOfRange {
                path: path.to_string(),
                why,
            }
        }

        if self.version != 1 {
            return Err(ScenarioError::UnsupportedVersion(self.version));
        }
        if self.workload.name.is_empty() {
            return Err(fail("workload.name", "must be non-empty"));
        }
        if self.workload.size == 0 {
            return Err(fail("workload.size", "must be at least 1"));
        }

        let m = &self.model;
        if !(m.l1_alpha > 0.0) || !m.l1_alpha.is_finite() {
            return Err(fail("model.l1_alpha", "must be finite and positive"));
        }
        if !(m.l2_alpha > 0.0) || !m.l2_alpha.is_finite() {
            return Err(fail("model.l2_alpha", "must be finite and positive"));
        }
        if !(m.dram_latency > 0.0) || !m.dram_latency.is_finite() {
            return Err(fail("model.dram_latency", "must be finite and positive"));
        }
        if !(m.overlap_cap >= 0.0) || !(m.overlap_cap < 1.0) {
            return Err(fail("model.overlap_cap", "must lie in [0, 1)"));
        }
        if let Some(g) = m.g_exponent {
            if !(g >= 0.0) || !g.is_finite() {
                return Err(fail("model.g_exponent", "must be finite and non-negative"));
            }
        }
        if let Some(c) = &m.camat {
            if !(c.hit_time > 0.0) || !c.hit_time.is_finite() {
                return Err(fail("model.camat.hit_time", "must be finite and positive"));
            }
            if !(c.hit_concurrency >= 1.0) || !c.hit_concurrency.is_finite() {
                return Err(fail("model.camat.hit_concurrency", "must be at least 1"));
            }
            if !(c.pure_miss_rate >= 0.0) || !(c.pure_miss_rate <= 1.0) {
                return Err(fail("model.camat.pure_miss_rate", "must lie in [0, 1]"));
            }
            if !(c.pure_avg_miss_penalty >= 0.0) || !c.pure_avg_miss_penalty.is_finite() {
                return Err(fail(
                    "model.camat.pure_avg_miss_penalty",
                    "must be finite and non-negative",
                ));
            }
            if !(c.pure_miss_concurrency >= 1.0) || !c.pure_miss_concurrency.is_finite() {
                return Err(fail(
                    "model.camat.pure_miss_concurrency",
                    "must be at least 1",
                ));
            }
        }

        let chip = &self.chip;
        if chip.cores == 0 {
            return Err(fail("chip.cores", "must be at least 1"));
        }
        if chip.core.issue_width == 0 {
            return Err(fail("chip.core.issue_width", "must be at least 1"));
        }
        if chip.core.rob_size == 0 {
            return Err(fail("chip.core.rob_size", "must be at least 1"));
        }
        if chip.core.exec_latency == 0 {
            return Err(fail("chip.core.exec_latency", "must be at least 1"));
        }
        for (cache, size_path, line_path) in [
            (&chip.l1, "chip.l1.size_bytes", "chip.l1.line_size"),
            (&chip.l2, "chip.l2.size_bytes", "chip.l2.line_size"),
        ] {
            if cache.size_bytes == 0 {
                return Err(fail(size_path, "must be positive"));
            }
            if cache.line_size == 0 {
                return Err(fail(line_path, "must be positive"));
            }
        }
        if chip.dram.banks == 0 {
            return Err(fail("chip.dram.banks", "must be at least 1"));
        }
        if chip.max_cycles == 0 {
            return Err(fail("chip.max_cycles", "must be positive"));
        }

        let s = &self.space;
        for (axis, path) in [
            (&s.a0, "space.a0"),
            (&s.a1, "space.a1"),
            (&s.a2, "space.a2"),
        ] {
            if axis.is_empty() {
                return Err(fail(path, "axis must be non-empty"));
            }
            if axis.iter().any(|&x| !(x > 0.0) || !x.is_finite()) {
                return Err(fail(path, "entries must be finite and positive"));
            }
        }
        for (axis, path) in [
            (&s.n, "space.n"),
            (&s.issue, "space.issue"),
            (&s.rob, "space.rob"),
        ] {
            if axis.is_empty() {
                return Err(fail(path, "axis must be non-empty"));
            }
            if axis.contains(&0) {
                return Err(fail(path, "entries must be at least 1"));
            }
        }

        let b = &self.budget;
        if !(b.total_area_mm2 > 0.0) || !b.total_area_mm2.is_finite() {
            return Err(fail("budget.total_area_mm2", "must be finite and positive"));
        }
        if !(b.shared_area_mm2 >= 0.0) || !b.shared_area_mm2.is_finite() {
            return Err(fail(
                "budget.shared_area_mm2",
                "must be finite and non-negative",
            ));
        }
        if !(b.shared_area_mm2 < b.total_area_mm2) {
            return Err(fail(
                "budget.shared_area_mm2",
                "must be smaller than total_area_mm2",
            ));
        }

        let a = &self.area;
        for (x, path) in [
            (a.pollack_k0, "area.pollack_k0"),
            (a.pollack_phi0, "area.pollack_phi0"),
            (a.reference_core_area, "area.reference_core_area"),
            (a.cache_bytes_per_mm2, "area.cache_bytes_per_mm2"),
        ] {
            if !(x > 0.0) || !x.is_finite() {
                return Err(fail(path, "must be finite and positive"));
            }
        }

        let sv = &self.solver;
        if !(sv.newton_tol > 0.0) || !sv.newton_tol.is_finite() {
            return Err(fail("solver.newton_tol", "must be finite and positive"));
        }
        if sv.newton_max_iters == 0 {
            return Err(fail("solver.newton_max_iters", "must be at least 1"));
        }
        if !(sv.nelder_tol > 0.0) || !sv.nelder_tol.is_finite() {
            return Err(fail("solver.nelder_tol", "must be finite and positive"));
        }
        if sv.nelder_max_iters == 0 {
            return Err(fail("solver.nelder_max_iters", "must be at least 1"));
        }

        let o = &self.oracle;
        if o.phase.interval_len == 0 {
            return Err(fail("oracle.phase.interval_len", "must be at least 1"));
        }
        if o.phase.interval_len > 1_000_000_000 {
            return Err(fail("oracle.phase.interval_len", "is implausibly large"));
        }
        if o.phase.clusters == 0 {
            return Err(fail("oracle.phase.clusters", "must be at least 1"));
        }
        if o.phase.clusters > 1024 {
            return Err(fail("oracle.phase.clusters", "is implausibly large"));
        }

        let be = &self.backend;
        // Phase windows are C-AMAT-specific: the phase oracle clusters
        // trace intervals by memory behaviour the GPU bound never
        // models, so the combination is rejected here (and again at
        // the engine layer).
        if be.kind != BackendKind::CpuCmp && o.mode == OracleMode::Phase {
            return Err(fail(
                "oracle.mode",
                "phase oracle requires the cpu-cmp backend",
            ));
        }
        let g = &be.gpu;
        for (x, path) in [
            (g.work_flops, "backend.gpu.work_flops"),
            (g.mem_bytes_per_flop, "backend.gpu.mem_bytes_per_flop"),
            (g.mem_bandwidth, "backend.gpu.mem_bandwidth"),
        ] {
            if !(x > 0.0) || !x.is_finite() {
                return Err(fail(path, "must be finite and positive"));
            }
        }
        if !(g.m_fma >= 0.0) || !(g.m_fma <= 1.0) {
            return Err(fail("backend.gpu.m_fma", "must lie in [0, 1]"));
        }
        if g.warp_lanes == 0 {
            return Err(fail("backend.gpu.warp_lanes", "must be at least 1"));
        }
        if g.resident_warps == 0 {
            return Err(fail("backend.gpu.resident_warps", "must be at least 1"));
        }
        if g.max_warps == 0 {
            return Err(fail("backend.gpu.max_warps", "must be at least 1"));
        }

        let sp = &self.speedup;
        if !(sp.memory_wall.beta >= 0.0) || !(sp.memory_wall.beta <= 1.0) {
            return Err(fail("speedup.memory_wall.beta", "must lie in [0, 1]"));
        }
        if !(sp.memory_wall.n_sat >= 1.0) || !sp.memory_wall.n_sat.is_finite() {
            return Err(fail(
                "speedup.memory_wall.n_sat",
                "must be finite and at least 1",
            ));
        }
        if let Some(sigma) = sp.usl.sigma {
            if !(0.0..=1.0).contains(&sigma) || !sigma.is_finite() {
                return Err(fail("speedup.usl.sigma", "must lie in [0, 1]"));
            }
        }
        if !(sp.usl.kappa >= 0.0) || !sp.usl.kappa.is_finite() {
            return Err(fail("speedup.usl.kappa", "must be finite and non-negative"));
        }

        let sc = &self.screen;
        if sc.enabled && o.mode == OracleMode::Phase {
            // The phase oracle is itself an estimator: screening an
            // estimator trains the surrogate on reconstructed times
            // and compounds unbounded error, so the combination is
            // rejected here (and again at the CLI and engine layers),
            // mirroring the phase-with-GPU rule above.
            return Err(fail(
                "screen.enabled",
                "surrogate screening requires the full oracle",
            ));
        }
        if sc.initial == 0 {
            return Err(fail("screen.initial", "must be at least 1"));
        }
        if sc.batch == 0 {
            return Err(fail("screen.batch", "must be at least 1"));
        }
        if sc.budget < sc.initial {
            return Err(fail("screen.budget", "must be at least screen.initial"));
        }
        if sc.committee < 2 {
            return Err(fail(
                "screen.committee",
                "needs at least 2 members for a disagreement signal",
            ));
        }
        if sc.hidden == 0 {
            return Err(fail("screen.hidden", "must be at least 1"));
        }
        if sc.epochs == 0 {
            return Err(fail("screen.epochs", "must be at least 1"));
        }
        if !(sc.tolerance >= 0.0) || !sc.tolerance.is_finite() {
            return Err(fail("screen.tolerance", "must be finite and non-negative"));
        }

        let r = &self.runner;
        if r.workers == 0 {
            return Err(fail("runner.workers", "must be at least 1"));
        }
        if r.max_attempts == 0 {
            return Err(fail("runner.max_attempts", "must be at least 1"));
        }
        if r.queue_capacity == 0 {
            return Err(fail("runner.queue_capacity", "must be at least 1"));
        }
        if !(r.backoff.factor >= 1.0) || !r.backoff.factor.is_finite() {
            return Err(fail("runner.backoff.factor", "must be at least 1"));
        }
        if !(r.backoff.jitter_frac >= 0.0) || !(r.backoff.jitter_frac <= 1.0) {
            return Err(fail("runner.backoff.jitter_frac", "must lie in [0, 1]"));
        }
        if r.backoff.cap_ms < r.backoff.base_ms {
            return Err(fail("runner.backoff.cap_ms", "must be at least base_ms"));
        }
        if r.breaker.trip_threshold == 0 {
            return Err(fail("runner.breaker.trip_threshold", "must be at least 1"));
        }
        if r.breaker.probes == 0 {
            return Err(fail("runner.breaker.probes", "must be at least 1"));
        }
        if r.cache.enabled {
            match &r.cache.path {
                None => {
                    return Err(fail(
                        "runner.cache.path",
                        "is required when the cache is enabled",
                    ))
                }
                Some(p) if p.is_empty() => {
                    return Err(fail("runner.cache.path", "must be non-empty"))
                }
                Some(_) => {}
            }
        } else if matches!(&r.cache.path, Some(p) if p.is_empty()) {
            return Err(fail("runner.cache.path", "must be non-empty"));
        }
        if !matches!(r.sync.as_str(), "never" | "on-checkpoint" | "always") {
            return Err(fail(
                "runner.sync",
                "must be one of never, on-checkpoint, always",
            ));
        }
        if let Some(chaos) = &r.chaos {
            for (value, path) in [
                (chaos.crash_at_write, "runner.chaos.crash_at_write"),
                (chaos.enospc_at_write, "runner.chaos.enospc_at_write"),
                (chaos.short_write_at, "runner.chaos.short_write_at"),
            ] {
                if value == Some(0) {
                    return Err(fail(path, "write indices are 1-based; must be at least 1"));
                }
            }
        }

        let se = &self.serve;
        if se.queue_depth == 0 {
            return Err(fail("serve.queue_depth", "must be at least 1"));
        }
        if se.per_client_budget == 0 {
            return Err(fail("serve.per_client_budget", "must be at least 1"));
        }
        if se.executors == 0 {
            return Err(fail("serve.executors", "must be at least 1"));
        }
        if se.read_timeout_ms == 0 {
            return Err(fail("serve.read_timeout_ms", "must be at least 1"));
        }
        if se.max_body_bytes == 0 {
            return Err(fail("serve.max_body_bytes", "must be at least 1"));
        }
        if se.breaker.trip_threshold == 0 {
            return Err(fail("serve.breaker.trip_threshold", "must be at least 1"));
        }
        if se.breaker.probes == 0 {
            return Err(fail("serve.breaker.probes", "must be at least 1"));
        }
        if !(se.shed_backoff.factor >= 1.0) || !se.shed_backoff.factor.is_finite() {
            return Err(fail("serve.shed_backoff.factor", "must be at least 1"));
        }
        if !(se.shed_backoff.jitter_frac >= 0.0) || !(se.shed_backoff.jitter_frac <= 1.0) {
            return Err(fail("serve.shed_backoff.jitter_frac", "must lie in [0, 1]"));
        }
        if se.shed_backoff.cap_ms < se.shed_backoff.base_ms {
            return Err(fail(
                "serve.shed_backoff.cap_ms",
                "must be at least base_ms",
            ));
        }

        if let Some(path) = &self.observability.metrics_out {
            if path.is_empty() {
                return Err(fail("observability.metrics_out", "must be non-empty"));
            }
        }
        if let Some(path) = &self.observability.roofline_out {
            if path.is_empty() {
                return Err(fail("observability.roofline_out", "must be non-empty"));
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_validates_and_round_trips() {
        let s = Scenario::default();
        s.validate().expect("default scenario must be valid");
        let compact = s.render();
        assert_eq!(Scenario::from_json(&compact).unwrap(), s);
        let pretty = s.render_pretty();
        assert_eq!(Scenario::from_json(&pretty).unwrap(), s);
    }

    #[test]
    fn empty_document_is_the_default_scenario() {
        assert_eq!(Scenario::from_json("{}").unwrap(), Scenario::default());
    }

    #[test]
    fn tiny_space_scenario_validates() {
        let s = Scenario {
            space: SpaceSpec::tiny(),
            ..Scenario::default()
        };
        s.validate().unwrap();
    }

    #[test]
    fn unknown_keys_are_rejected_with_dotted_paths() {
        let e = Scenario::from_json(r#"{"chip":{"l1":{"linesize":64}}}"#).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::UnknownKey {
                path: "chip.l1.linesize".into()
            }
        );
        let e = Scenario::from_json(r#"{"bogus":1}"#).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::UnknownKey {
                path: "bogus".into()
            }
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = Scenario::from_json(r#"{"budget":{"total_area_mm2":1,"total_area_mm2":2}}"#)
            .unwrap_err();
        assert_eq!(
            e,
            ScenarioError::DuplicateKey {
                path: "budget.total_area_mm2".into()
            }
        );
    }

    #[test]
    fn wrong_types_are_rejected_with_expectations() {
        let e = Scenario::from_json(r#"{"workload":{"size":"big"}}"#).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::WrongType {
                path: "workload.size".into(),
                expected: "non-negative integer"
            }
        );
        let e = Scenario::from_json(r#"{"space":{"a0":[1,"x"]}}"#).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::WrongType {
                path: "space.a0".into(),
                expected: "array of numbers"
            }
        );
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let e = Scenario::from_json(r#"{"budget":{"total_area_mm2":-5}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "budget.total_area_mm2")
        );
        let e = Scenario::from_json(r#"{"space":{"n":[]}}"#).unwrap_err();
        assert!(matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "space.n"));
        let e = Scenario::from_json(r#"{"runner":{"workers":0}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "runner.workers")
        );
    }

    #[test]
    fn oracle_section_round_trips_and_validates() {
        let s = Scenario::from_json(
            r#"{"oracle":{"mode":"phase","phase":{"interval_len":500,"clusters":3,"seed":7}}}"#,
        )
        .unwrap();
        assert_eq!(s.oracle.mode, OracleMode::Phase);
        assert_eq!(s.oracle.phase.interval_len, 500);
        assert_eq!(s.oracle.phase.clusters, 3);
        assert_eq!(s.oracle.phase.seed, 7);
        assert_eq!(Scenario::from_json(&s.render()).unwrap(), s);

        let e = Scenario::from_json(r#"{"oracle":{"mode":"turbo"}}"#).unwrap_err();
        assert!(matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "oracle.mode"));
        let e = Scenario::from_json(r#"{"oracle":{"phase":{"interval_len":0}}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "oracle.phase.interval_len")
        );
        let e = Scenario::from_json(r#"{"oracle":{"phase":{"clusters":0}}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "oracle.phase.clusters")
        );
        let e = Scenario::from_json(r#"{"oracle":{"turbo":true}}"#).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::UnknownKey {
                path: "oracle.turbo".into()
            }
        );
    }

    #[test]
    fn full_mode_oracle_is_fingerprint_invisible() {
        // The section only became expressible in this schema revision:
        // a full-mode oracle (with any phase knobs) must not move any
        // pre-existing fingerprint, while phase mode is semantic and
        // must move it.
        let base = Scenario::default();
        let full_tweaked = Scenario {
            oracle: OracleSpec {
                mode: OracleMode::Full,
                phase: PhaseSpec {
                    interval_len: 123,
                    clusters: 9,
                    seed: 1,
                },
            },
            ..Scenario::default()
        };
        assert_eq!(base.fingerprint(), full_tweaked.fingerprint());

        let phased = Scenario {
            oracle: OracleSpec {
                mode: OracleMode::Phase,
                ..OracleSpec::default()
            },
            ..Scenario::default()
        };
        assert_ne!(base.fingerprint(), phased.fingerprint());
        // And the phase knobs are bound in once the mode is phase.
        let phased_tweaked = Scenario {
            oracle: OracleSpec {
                mode: OracleMode::Phase,
                phase: PhaseSpec {
                    interval_len: 123,
                    ..PhaseSpec::default()
                },
            },
            ..Scenario::default()
        };
        assert_ne!(phased.fingerprint(), phased_tweaked.fingerprint());
    }

    #[test]
    fn backend_section_round_trips_and_validates() {
        let s = Scenario::from_json(
            r#"{"backend":{"kind":"gpu-sm","gpu":{"work_flops":2e9,"m_fma":1.0,
                "warp_lanes":32,"mem_bytes_per_flop":0.5,"mem_bandwidth":512,
                "resident_warps":24,"max_warps":48}}}"#,
        )
        .unwrap();
        assert_eq!(s.backend.kind, BackendKind::GpuSm);
        assert_eq!(s.backend.gpu.work_flops, 2e9);
        assert_eq!(s.backend.gpu.m_fma, 1.0);
        assert_eq!(Scenario::from_json(&s.render()).unwrap(), s);

        let e = Scenario::from_json(r#"{"backend":{"kind":"tpu"}}"#).unwrap_err();
        assert!(matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "backend.kind"));
        let e = Scenario::from_json(r#"{"backend":{"gpu":{"m_fma":1.5}}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "backend.gpu.m_fma")
        );
        let e = Scenario::from_json(r#"{"backend":{"gpu":{"mem_bandwidth":0}}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "backend.gpu.mem_bandwidth")
        );
        let e = Scenario::from_json(r#"{"backend":{"lanes":64}}"#).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::UnknownKey {
                path: "backend.lanes".into()
            }
        );
    }

    #[test]
    fn cpu_backend_is_fingerprint_invisible() {
        // Same grandfathering rule as the oracle section: the default
        // cpu-cmp backend (with any gpu knobs) must not move any
        // pre-existing fingerprint, while gpu-sm is semantic and must.
        let base = Scenario::default();
        let cpu_tweaked = Scenario {
            backend: BackendSpec {
                kind: BackendKind::CpuCmp,
                gpu: GpuSpec {
                    work_flops: 7e7,
                    ..GpuSpec::default()
                },
            },
            ..Scenario::default()
        };
        assert_eq!(base.fingerprint(), cpu_tweaked.fingerprint());

        let gpu = Scenario {
            backend: BackendSpec {
                kind: BackendKind::GpuSm,
                ..BackendSpec::default()
            },
            ..Scenario::default()
        };
        assert_ne!(base.fingerprint(), gpu.fingerprint());
        // And the gpu knobs are bound in once the kind is gpu-sm.
        let gpu_tweaked = Scenario {
            backend: BackendSpec {
                kind: BackendKind::GpuSm,
                gpu: GpuSpec {
                    m_fma: 0.25,
                    ..GpuSpec::default()
                },
            },
            ..Scenario::default()
        };
        assert_ne!(gpu.fingerprint(), gpu_tweaked.fingerprint());
    }

    #[test]
    fn phase_oracle_requires_cpu_backend() {
        let e = Scenario::from_json(r#"{"backend":{"kind":"gpu-sm"},"oracle":{"mode":"phase"}}"#)
            .unwrap_err();
        assert!(matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "oracle.mode"));
        // Either half alone is fine.
        Scenario::from_json(r#"{"backend":{"kind":"gpu-sm"}}"#).unwrap();
        Scenario::from_json(r#"{"oracle":{"mode":"phase"}}"#).unwrap();
    }

    #[test]
    fn roofline_out_is_operational() {
        let s = Scenario::from_json(r#"{"observability":{"roofline_out":"roof.json"}}"#).unwrap();
        assert_eq!(s.backend.kind, BackendKind::CpuCmp);
        assert_eq!(s.observability.roofline_out.as_deref(), Some("roof.json"));
        // Report destinations never change what the sweep computes.
        assert_eq!(s.fingerprint(), Scenario::default().fingerprint());
        // But they do round-trip through the canonical rendering.
        assert_eq!(Scenario::from_json(&s.render()).unwrap(), s);
        let e = Scenario::from_json(r#"{"observability":{"roofline_out":""}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "observability.roofline_out")
        );
    }

    #[test]
    fn gpu_sm_space_scenario_validates() {
        let s = Scenario {
            space: SpaceSpec::gpu_sm(),
            backend: BackendSpec {
                kind: BackendKind::GpuSm,
                ..BackendSpec::default()
            },
            ..Scenario::default()
        };
        s.validate().unwrap();
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let e = Scenario::from_json(r#"{"version":2}"#).unwrap_err();
        assert_eq!(e, ScenarioError::UnsupportedVersion(2));
    }

    #[test]
    fn camat_override_requires_every_field() {
        let e = Scenario::from_json(r#"{"model":{"camat":{"hit_time":3}}}"#).unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path.starts_with("model.camat."))
        );
        let full = r#"{"model":{"camat":{"hit_time":3,"hit_concurrency":2,
            "pure_miss_rate":0.02,"pure_avg_miss_penalty":60,"pure_miss_concurrency":4}}}"#;
        let s = Scenario::from_json(full).unwrap();
        assert!(s.model.camat.is_some());
    }

    #[test]
    fn null_and_absent_optionals_are_equivalent() {
        let a = Scenario::from_json(r#"{"model":{"g_exponent":null}}"#).unwrap();
        let b = Scenario::from_json(r#"{"model":{}}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.model.g_exponent, None);
    }

    #[test]
    fn fingerprint_is_stable_and_semantic() {
        let s = Scenario::default();
        assert_eq!(s.fingerprint(), Scenario::default().fingerprint());
        // Whitespace/formatting does not change identity.
        let reparsed = Scenario::from_json(&s.render_pretty()).unwrap();
        assert_eq!(reparsed.fingerprint(), s.fingerprint());
        // A semantic change does.
        let mut t = s.clone();
        t.budget.total_area_mm2 = 401.0;
        assert_ne!(t.fingerprint(), s.fingerprint());
        assert_eq!(s.fingerprint_hex().len(), 16);
    }
}
