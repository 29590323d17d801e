//! Simulator configuration: cores, caches, DRAM, interconnect.

use crate::{Error, Result};

/// Narrow a scenario's `u64` field into the width the simulator uses,
/// with a typed error instead of a silent truncation.
fn narrow<T: TryFrom<u64>>(value: u64, what: &'static str) -> Result<T> {
    T::try_from(value).map_err(|_| Error::InvalidConfig(what))
}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Lookup/hit latency in cycles.
    pub hit_latency: u32,
    /// Number of MSHR entries (outstanding misses); 1 = blocking cache.
    pub mshr_entries: usize,
    /// Number of access ports (new lookups accepted per cycle).
    pub ports: usize,
    /// Number of banks (independent lookup pipelines).
    pub banks: usize,
    /// Issue a next-line prefetch on every demand miss (L1 only; the
    /// chip engine ignores it for the L2).
    pub next_line_prefetch: bool,
}

impl CacheConfig {
    /// The scenario's default L1 (`CacheSpec::default_l1`): 32 KiB,
    /// 8-way, Core-i7-like.
    pub fn default_l1() -> Self {
        Self::from_spec(&c2_config::CacheSpec::default_l1()).expect("the default L1 is valid")
    }

    /// The scenario's default shared L2 (`CacheSpec::default_l2`):
    /// 2 MiB, 16-way.
    pub fn default_l2() -> Self {
        Self::from_spec(&c2_config::CacheSpec::default_l2()).expect("the default L2 is valid")
    }

    /// Validated construction from a scenario cache spec.
    pub fn from_spec(spec: &c2_config::CacheSpec) -> Result<Self> {
        let config = CacheConfig {
            size_bytes: spec.size_bytes,
            line_size: spec.line_size,
            associativity: narrow(spec.associativity, "associativity too large")?,
            hit_latency: narrow(spec.hit_latency, "hit_latency too large")?,
            mshr_entries: narrow(spec.mshr_entries, "mshr_entries too large")?,
            ports: narrow(spec.ports, "ports too large")?,
            banks: narrow(spec.banks, "banks too large")?,
            next_line_prefetch: spec.next_line_prefetch,
        };
        config.validate()?;
        Ok(config)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_size) as usize / self.associativity
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if !self.line_size.is_power_of_two() || self.line_size == 0 {
            return Err(Error::InvalidConfig("line_size must be a power of two"));
        }
        if self.size_bytes < self.line_size {
            return Err(Error::InvalidConfig("cache smaller than one line"));
        }
        if self.associativity == 0 {
            return Err(Error::InvalidConfig("associativity must be positive"));
        }
        if !((self.size_bytes / self.line_size) as usize).is_multiple_of(self.associativity) {
            return Err(Error::InvalidConfig(
                "lines must divide evenly into sets of `associativity` ways",
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(Error::InvalidConfig("set count must be a power of two"));
        }
        if self.hit_latency == 0 {
            return Err(Error::InvalidConfig("hit_latency must be positive"));
        }
        if self.mshr_entries == 0 {
            return Err(Error::InvalidConfig("mshr_entries must be positive"));
        }
        if self.ports == 0 {
            return Err(Error::InvalidConfig("ports must be positive"));
        }
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(Error::InvalidConfig(
                "banks must be a positive power of two",
            ));
        }
        Ok(())
    }
}

/// DRAM timing and structure (DRAMSim2-style bank model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent banks.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_size: u64,
    /// Row-to-column delay (activate), cycles.
    pub t_rcd: u32,
    /// Column access (CAS) latency, cycles.
    pub t_cas: u32,
    /// Precharge latency, cycles.
    pub t_rp: u32,
    /// Data-bus transfer time per line, cycles (serializes across banks).
    pub t_bus: u32,
    /// Request-queue capacity per DRAM channel.
    pub queue_depth: usize,
}

impl DramConfig {
    /// The scenario's default DRAM (`DramSpec::default()`): DDR3-1600-like
    /// timing at a ~3 GHz core clock.
    pub fn default_ddr3() -> Self {
        Self::from_spec(&c2_config::DramSpec::default()).expect("the default DRAM is valid")
    }

    /// Validated construction from a scenario DRAM spec.
    pub fn from_spec(spec: &c2_config::DramSpec) -> Result<Self> {
        let config = DramConfig {
            banks: narrow(spec.banks, "dram banks too large")?,
            row_size: spec.row_size,
            t_rcd: narrow(spec.t_rcd, "t_rcd too large")?,
            t_cas: narrow(spec.t_cas, "t_cas too large")?,
            t_rp: narrow(spec.t_rp, "t_rp too large")?,
            t_bus: narrow(spec.t_bus, "t_bus too large")?,
            queue_depth: narrow(spec.queue_depth, "queue_depth too large")?,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(Error::InvalidConfig(
                "dram banks must be a positive power of two",
            ));
        }
        if !self.row_size.is_power_of_two() || self.row_size == 0 {
            return Err(Error::InvalidConfig("row_size must be a power of two"));
        }
        if self.t_cas == 0 || self.t_bus == 0 {
            return Err(Error::InvalidConfig("t_cas and t_bus must be positive"));
        }
        if self.queue_depth == 0 {
            return Err(Error::InvalidConfig("queue_depth must be positive"));
        }
        Ok(())
    }
}

/// Out-of-order core abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued (and retired) per cycle.
    pub issue_width: usize,
    /// Reorder-buffer entries (in-flight instruction window).
    pub rob_size: usize,
    /// Execution latency of a non-memory instruction, cycles.
    pub exec_latency: u32,
}

impl CoreConfig {
    /// The scenario's default core (`CoreSpec::default()`): the paper's
    /// 4-wide out-of-order core with a 128-entry ROB.
    pub fn default_ooo() -> Self {
        Self::from_spec(&c2_config::CoreSpec::default()).expect("the default core is valid")
    }

    /// Validated construction from a scenario core spec.
    pub fn from_spec(spec: &c2_config::CoreSpec) -> Result<Self> {
        let config = CoreConfig {
            issue_width: narrow(spec.issue_width, "issue_width too large")?,
            rob_size: narrow(spec.rob_size, "rob_size too large")?,
            exec_latency: narrow(spec.exec_latency, "exec_latency too large")?,
        };
        config.validate()?;
        Ok(config)
    }

    /// A scalar in-order-like core (no memory-level parallelism from the
    /// window): the `C = 1` end of the paper's spectrum.
    pub fn scalar_blocking() -> Self {
        CoreConfig {
            issue_width: 1,
            rob_size: 1,
            exec_latency: 1,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.issue_width == 0 {
            return Err(Error::InvalidConfig("issue_width must be positive"));
        }
        if self.rob_size == 0 {
            return Err(Error::InvalidConfig("rob_size must be positive"));
        }
        if self.exec_latency == 0 {
            return Err(Error::InvalidConfig("exec_latency must be positive"));
        }
        Ok(())
    }
}

/// Interconnect between cache levels (Fig 3's NoC, abstracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// One-way latency L1→L2 (and back), cycles.
    pub l1_l2_latency: u32,
    /// One-way latency L2→memory controller, cycles.
    pub l2_mem_latency: u32,
}

impl NocConfig {
    /// The scenario's default interconnect (`NocSpec::default()`), a
    /// small mesh.
    pub fn default_mesh() -> Self {
        Self::from_spec(&c2_config::NocSpec::default()).expect("the default NoC is valid")
    }

    /// Validated construction from a scenario NoC spec.
    pub fn from_spec(spec: &c2_config::NocSpec) -> Result<Self> {
        Ok(NocConfig {
            l1_l2_latency: narrow(spec.l1_l2_latency, "l1_l2_latency too large")?,
            l2_mem_latency: narrow(spec.l2_mem_latency, "l2_mem_latency too large")?,
        })
    }
}

/// Full chip configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Number of cores (each runs one trace).
    pub cores: usize,
    /// Per-core configuration (symmetric CMP, as in the paper's Eq. 12).
    pub core: CoreConfig,
    /// Private L1 per core.
    pub l1: CacheConfig,
    /// Shared L2 (the paper's Fig 3 organization).
    pub l2: CacheConfig,
    /// DRAM behind the L2.
    pub dram: DramConfig,
    /// Interconnect latencies.
    pub noc: NocConfig,
    /// Safety budget: abort if the simulation exceeds this many cycles.
    pub max_cycles: u64,
    /// Deterministic fault-injection plan (inert by default).
    pub fault: crate::fault::FaultPlan,
}

impl ChipConfig {
    /// The scenario's default chip (`ChipSpec::default()`): a single
    /// Core-i7-like core over the default hierarchy.
    pub fn default_single_core() -> Self {
        Self::from_spec(&c2_config::ChipSpec::default()).expect("the default chip is valid")
    }

    /// Symmetric multi-core variant of the default chip.
    pub fn default_multi_core(cores: usize) -> Self {
        ChipConfig {
            cores,
            ..ChipConfig::default_single_core()
        }
    }

    /// Validated construction from a scenario chip spec. The fault
    /// plan stays inert: fault injection is a test surface, not an
    /// experiment parameter.
    pub fn from_spec(spec: &c2_config::ChipSpec) -> Result<Self> {
        let config = ChipConfig {
            cores: narrow(spec.cores, "cores too large")?,
            core: CoreConfig::from_spec(&spec.core)?,
            l1: CacheConfig::from_spec(&spec.l1)?,
            l2: CacheConfig::from_spec(&spec.l2)?,
            dram: DramConfig::from_spec(&spec.dram)?,
            noc: NocConfig::from_spec(&spec.noc)?,
            max_cycles: spec.max_cycles,
            fault: crate::fault::FaultPlan::default(),
        };
        config.validate()?;
        Ok(config)
    }

    /// Validate the full configuration.
    pub fn validate(&self) -> Result<()> {
        if self.cores == 0 {
            return Err(Error::InvalidConfig("at least one core required"));
        }
        self.core.validate()?;
        self.l1.validate()?;
        self.l2.validate()?;
        self.dram.validate()?;
        if self.l1.line_size != self.l2.line_size {
            return Err(Error::InvalidConfig("L1 and L2 line sizes must match"));
        }
        if self.max_cycles == 0 {
            return Err(Error::InvalidConfig("max_cycles must be positive"));
        }
        self.fault.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ChipConfig::default_single_core().validate().is_ok());
        assert!(ChipConfig::default_multi_core(16).validate().is_ok());
        assert!(CoreConfig::scalar_blocking().validate().is_ok());
    }

    #[test]
    fn default_spec_reproduces_the_default_chip() {
        // The default chip is built from the scenario's default spec,
        // so this pins that the spec default passes `from_spec`.
        let from_spec = ChipConfig::from_spec(&c2_config::ChipSpec::default()).expect("spec");
        assert_eq!(from_spec, ChipConfig::default_single_core());
    }

    #[test]
    fn l1_set_count() {
        let l1 = CacheConfig::default_l1();
        assert_eq!(l1.sets(), 32 * 1024 / 64 / 8);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = CacheConfig::default_l1();
        c.line_size = 48;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::default_l1();
        c.associativity = 0;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::default_l1();
        c.size_bytes = 32;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::default_l1();
        c.banks = 3;
        assert!(c.validate().is_err());

        let mut d = DramConfig::default_ddr3();
        d.banks = 0;
        assert!(d.validate().is_err());

        let mut chip = ChipConfig::default_single_core();
        chip.cores = 0;
        assert!(chip.validate().is_err());

        let mut chip = ChipConfig::default_single_core();
        chip.l2.line_size = 128;
        assert!(chip.validate().is_err());
    }

    #[test]
    fn nonpow2_sets_rejected() {
        // 96 KiB / 64 B / 8 ways = 192 sets (not a power of two).
        let c = CacheConfig {
            size_bytes: 96 * 1024,
            ..CacheConfig::default_l1()
        };
        assert!(c.validate().is_err());
    }
}
