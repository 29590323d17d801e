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
//! # One row per key
//!
//! Every section is declared once, as a table of rows:
//!
//! ```text
//! key: Type [= default] [, check RULE]* [, semantic_if PRED];
//! ```
//!
//! From the table this module generates the public struct and its
//! `Default`, strict parsing with dotted-path errors, the canonical
//! rendering, the semantic rendering that [`Scenario::fingerprint`]
//! hashes, and [`Scenario::validate`]. A `RULE` is a
//! `fn(&T) -> Option<&'static str>` returning the violated constraint;
//! a row is checked in the order its rules are written. A `PRED` is a
//! `fn(&T) -> bool`: the row is part of the semantic rendering only
//! when it holds, so `semantic_if |_| false` marks an operational key.
//! A nested section takes the defaults of its absent keys from the
//! enclosing section's default (`chip.l1` and `chip.l2` share
//! `CacheSpec` but not its defaults). The few rules that span several
//! keys are written by hand beside their section, as a section-level
//! `check`. The three enumerated keys ([`OracleMode`], [`BackendKind`],
//! [`LawKind`]) are declared once each, with their spellings.
//!
//! Validation follows the workspace's NaN-rejecting idiom: conditions
//! are written `!(x > 0.0)` so a NaN fails the check rather than
//! slipping through an inverted comparison.
//!
//! A document with several defects reports the first one found:
//! unknown and duplicate keys of an object come first, then the
//! object's keys in canonical order (a nested section is read where
//! its key sits); range rules run only once the whole document has
//! parsed, again in canonical key order, with a section's cross-key
//! rules after its own keys.
//!
//! [`Scenario::fingerprint`] is FNV-1a over the compact *semantic*
//! rendering, and the runner folds it into the journal header so
//! `--resume` refuses a journal written for a different scenario.

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
                let article = if expected.starts_with(['a', 'e', 'i', 'o', 'u']) {
                    "an"
                } else {
                    "a"
                };
                write!(f, "scenario: `{path}` must be {article} {expected}")
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

/// FNV-1a over a byte string: the workspace's one stable cheap hash.
/// Every persisted identity (scenario, plan and backend fingerprints,
/// evaluation-cache addresses, screening seeds) is an FNV-1a stream
/// built with [`Fnv1a`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().bytes(bytes).finish()
}

/// A streaming FNV-1a hash. Feeding chunks in turn hashes their
/// concatenation, and [`Fnv1a::resume`] continues a stream from the
/// hash it had reached: `fnv1a(a ⧺ b)` is
/// `Fnv1a::resume(fnv1a(a)).bytes(b).finish()`. The default is the
/// empty stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Continue the stream whose hash so far is `hash`.
    pub fn resume(hash: u64) -> Self {
        Fnv1a(hash)
    }

    /// Feed `bytes`.
    pub fn bytes(self, bytes: &[u8]) -> Self {
        Fnv1a(bytes.iter().fold(self.0, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        }))
    }

    /// Feed the eight little-endian bytes of `word`.
    pub fn word(self, word: u64) -> Self {
        self.bytes(&word.to_le_bytes())
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Schema machinery
// ---------------------------------------------------------------------------

/// A position in the document: the chain of keys back to the root,
/// spelled out as a dotted path only when an error names it.
#[derive(Clone, Copy)]
struct At<'a>(Option<(&'a At<'a>, &'a str)>);

/// The document itself; named `scenario` in errors.
const ROOT: At<'static> = At(None);

impl<'a> At<'a> {
    fn child(&'a self, key: &'a str) -> At<'a> {
        At(Some((self, key)))
    }

    fn path(&self) -> String {
        match self.0 {
            None => "scenario".to_string(),
            Some((At(None), key)) => key.to_string(),
            Some((parent, key)) => format!("{}.{key}", parent.path()),
        }
    }

    fn out_of_range(&self, why: &'static str) -> ScenarioError {
        ScenarioError::OutOfRange {
            path: self.path(),
            why,
        }
    }
}

/// A value the schema can hold: a leaf, an enumerated key, an optional
/// value, or a whole section.
trait Field: Sized {
    /// What a `WrongType` error says the schema expects.
    const EXPECTED: &'static str;
    /// The same, where `null` is also accepted.
    const OR_NULL: &'static str;

    /// Parse `v`; `Ok(None)` means `v` has the wrong JSON type. A
    /// section fills its absent keys from `base`, the enclosing
    /// section's default; without one it uses its rows' defaults.
    fn read(v: &Json, at: At, base: Option<&Self>) -> Result<Option<Self>>;

    /// The canonical rendering; `semantic` drops operational keys.
    fn emit(&self, semantic: bool) -> Json;

    /// The range rules of a section's rows and its cross-key rules.
    fn check(&self, _at: At) -> Result<()> {
        Ok(())
    }
}

fn read<T: Field>(v: &Json, at: At, base: Option<&T>) -> Result<T> {
    T::read(v, at, base)?.ok_or_else(|| ScenarioError::WrongType {
        path: at.path(),
        expected: T::EXPECTED,
    })
}

fn find<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Reject unknown and duplicate keys against a section's key list.
fn check_keys(pairs: &[(String, Json)], keys: &[&str], at: At) -> Result<()> {
    for (i, (key, _)) in pairs.iter().enumerate() {
        let path = || at.child(key).path();
        if !keys.contains(&key.as_str()) {
            return Err(ScenarioError::UnknownKey { path: path() });
        }
        if pairs[..i].iter().any(|(prev, _)| prev == key) {
            return Err(ScenarioError::DuplicateKey { path: path() });
        }
    }
    Ok(())
}

macro_rules! leaf {
    ($($ty:ty, $expected:literal, |$v:ident| $read:expr, |$x:ident| $emit:expr;)*) => {$(
        impl Field for $ty {
            const EXPECTED: &'static str = $expected;
            const OR_NULL: &'static str = concat!($expected, " or null");

            fn read($v: &Json, _: At, _: Option<&Self>) -> Result<Option<Self>> {
                Ok($read)
            }

            fn emit(&self, _: bool) -> Json {
                let $x = self;
                $emit
            }
        }
    )*};
}

leaf! {
    f64, "number", |v| v.as_f64(), |x| Json::Num(*x);
    u64, "non-negative integer", |v| v.as_u64(), |x| Json::Num(*x as f64);
    bool, "boolean", |v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    }, |x| Json::Bool(*x);
    String, "string", |v| v.as_str().map(str::to_string), |x| Json::Str(x.clone());
    Vec<f64>, "array of numbers",
        |v| v.as_arr().and_then(|items| items.iter().map(Json::as_f64).collect()),
        |xs| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    Vec<u64>, "array of non-negative integers",
        |v| v.as_arr().and_then(|items| items.iter().map(Json::as_u64).collect()),
        |xs| Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect());
}

/// Absent and `null` both mean `None`.
impl<T: Field> Field for Option<T> {
    const EXPECTED: &'static str = T::OR_NULL;
    const OR_NULL: &'static str = T::OR_NULL;

    fn read(v: &Json, at: At, base: Option<&Self>) -> Result<Option<Self>> {
        match v {
            Json::Null => Ok(Some(None)),
            _ => Ok(T::read(v, at, base.and_then(Option::as_ref))?.map(Some)),
        }
    }

    fn emit(&self, semantic: bool) -> Json {
        self.as_ref().map_or(Json::Null, |x| x.emit(semantic))
    }

    fn check(&self, at: At) -> Result<()> {
        self.as_ref().map_or(Ok(()), |x| x.check(at))
    }
}

/// `"a"`, `"a" or "b"`, `"a", "b" or "c"`, … as one literal.
macro_rules! spellings {
    ($only:literal) => { concat!("\"", $only, "\"") };
    ($a:literal, $b:literal) => { concat!("\"", $a, "\" or \"", $b, "\"") };
    ($first:literal, $($rest:literal),+) => {
        concat!("\"", $first, "\", ", spellings!($($rest),+))
    };
}

/// An enumerated key: each variant with its one JSON spelling.
macro_rules! enumerated {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $spelling:literal,)+
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// The canonical spelling used in scenario JSON and CLI flags.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($name::$variant => $spelling,)+
                }
            }

            /// Parse the canonical spelling; `None` for anything else.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $($spelling => Some($name::$variant),)+
                    _ => None,
                }
            }
        }

        impl Field for $name {
            const EXPECTED: &'static str = "string";
            const OR_NULL: &'static str = "string or null";

            fn read(v: &Json, at: At, _: Option<&Self>) -> Result<Option<Self>> {
                let Some(s) = v.as_str() else {
                    return Ok(None);
                };
                match $name::parse(s) {
                    Some(x) => Ok(Some(x)),
                    None => Err(at.out_of_range(concat!("must be ", spellings!($($spelling),+)))),
                }
            }

            fn emit(&self, _: bool) -> Json {
                Json::Str(self.as_str().to_string())
            }
        }
    };
}

/// A section: a struct whose rows are scenario keys. Rows either all
/// have a default (the section then implements `Default`) or none
/// does; a section without defaults is read only under an enclosing
/// default, except `model.camat`, whose keys are all required.
macro_rules! section {
    (@absent $at:ident $default:expr) => {
        $default
    };
    (@absent $at:ident) => {
        return Err($at.out_of_range("required when a camat override block is present"))
    };
    (@semantic $value:expr, $ty:ty) => {
        true
    };
    (@semantic $value:expr, $ty:ty, $pred:expr) => {{
        let pred: fn(&$ty) -> bool = $pred;
        pred($value)
    }};
    (
        @impl [$(#[$meta:meta])*] $name:ident [$($across:expr)?]
        $([$(#[$doc:meta])*] $key:ident: $ty:ty [$($default:expr)?] [$($rule:expr),*] [$($pred:expr)?])*
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $key: $ty,)*
        }

        impl $name {
            const KEYS: &'static [&'static str] = &[$(stringify!($key)),*];
        }

        impl Field for $name {
            const EXPECTED: &'static str = "object";
            const OR_NULL: &'static str = "object";

            fn read(v: &Json, at: At, base: Option<&Self>) -> Result<Option<Self>> {
                let Some(pairs) = v.as_obj() else {
                    return Ok(None);
                };
                check_keys(pairs, Self::KEYS, at)?;
                Ok(Some($name {
                    $($key: {
                        let at = at.child(stringify!($key));
                        match (find(pairs, stringify!($key)), base) {
                            (Some(v), base) => read(v, at, base.map(|b| &b.$key))?,
                            (None, Some(base)) => base.$key.clone(),
                            (None, None) => section!(@absent at $($default)?),
                        }
                    },)*
                }))
            }

            fn emit(&self, semantic: bool) -> Json {
                let mut pairs = Vec::with_capacity(Self::KEYS.len());
                $(if !semantic || section!(@semantic &self.$key, $ty $(, $pred)?) {
                    pairs.push((stringify!($key).to_string(), self.$key.emit(semantic)));
                })*
                Json::Obj(pairs)
            }

            fn check(&self, at: At) -> Result<()> {
                $({
                    let at = at.child(stringify!($key));
                    $(
                        let rule: fn(&$ty) -> Option<&'static str> = $rule;
                        if let Some(why) = rule(&self.$key) {
                            return Err(at.out_of_range(why));
                        }
                    )*
                    self.$key.check(at)?;
                })*
                $(
                    let rule: fn(&Self) -> Option<(&'static str, &'static str)> = $across;
                    if let Some((key, why)) = rule(self) {
                        return Err(at.child(key).out_of_range(why));
                    }
                )?
                Ok(())
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $key:ident: $ty:ty = $default:expr
                $(, check $rule:expr)* $(, semantic_if $pred:expr)?;)*
        }
        $(check $across:expr;)?
    ) => {
        section!(@impl [$(#[$meta])*] $name [$($across)?]
            $([$(#[$doc])*] $key: $ty [$default] [$($rule),*] [$($pred)?])*);

        impl Default for $name {
            fn default() -> Self {
                $name {
                    $($key: $default,)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $key:ident: $ty:ty $(, check $rule:expr)*;)*
        }
    ) => {
        section!(@impl [$(#[$meta])*] $name []
            $([$(#[$doc])*] $key: $ty [] [$($rule),*] [])*);
    };
}

// ---------------------------------------------------------------------------
// Range rules shared by many rows
// ---------------------------------------------------------------------------

fn count(x: &u64) -> Option<&'static str> {
    (*x == 0).then_some("must be at least 1")
}

fn nonzero(x: &u64) -> Option<&'static str> {
    (*x == 0).then_some("must be positive")
}

fn positive(x: &f64) -> Option<&'static str> {
    (!(*x > 0.0) || !x.is_finite()).then_some("must be finite and positive")
}

fn non_negative(x: &f64) -> Option<&'static str> {
    (!(*x >= 0.0) || !x.is_finite()).then_some("must be finite and non-negative")
}

fn at_least_1(x: &f64) -> Option<&'static str> {
    (!(*x >= 1.0) || !x.is_finite()).then_some("must be at least 1")
}

fn unit(x: &f64) -> Option<&'static str> {
    (!(*x >= 0.0) || !(*x <= 1.0)).then_some("must lie in [0, 1]")
}

fn non_empty(s: &str) -> Option<&'static str> {
    s.is_empty().then_some("must be non-empty")
}

fn filled(s: &Option<String>) -> Option<&'static str> {
    s.as_deref().and_then(non_empty)
}

fn area_axis(axis: &[f64]) -> Option<&'static str> {
    if axis.is_empty() {
        Some("axis must be non-empty")
    } else if axis.iter().any(|&x| !(x > 0.0) || !x.is_finite()) {
        Some("entries must be finite and positive")
    } else {
        None
    }
}

fn count_axis(axis: &[u64]) -> Option<&'static str> {
    if axis.is_empty() {
        Some("axis must be non-empty")
    } else if axis.contains(&0) {
        Some("entries must be at least 1")
    } else {
        None
    }
}

/// Chaos write indices are 1-based counts of storage writes.
fn write_index(x: &Option<u64>) -> Option<&'static str> {
    (*x == Some(0)).then_some("write indices are 1-based; must be at least 1")
}

// ---------------------------------------------------------------------------
// The schema
// ---------------------------------------------------------------------------

section! {
    /// Which workload to characterize and at what problem size.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WorkloadSpec {
        /// Workload name (`tmm`, `spmv`, `stencil`, `fft`, `fluidanimate`).
        name: String = "fluidanimate".into(), check |s| non_empty(s);
        /// Problem-size parameter, interpreted per workload.
        size: u64 = 100, check count;
    }
}

section! {
    /// C-AMAT measurement overrides: when present, these replace the
    /// characterized memory-behavior inputs to the analytical model.
    /// Fields mirror `CamatParams` in `c2-camat`. No key has a default:
    /// an override block must spell out every measurement, otherwise it
    /// silently mixes sources.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CamatSpec {
        /// Cache hit time in cycles (paper's `H`).
        hit_time: f64, check positive;
        /// Hit concurrency (paper's `C_H`), at least 1.
        hit_concurrency: f64, check at_least_1;
        /// Pure-miss rate (paper's `pMR`), in `[0, 1]`.
        pure_miss_rate: f64, check unit;
        /// Pure average miss penalty in cycles (paper's `pAMP`).
        pure_avg_miss_penalty: f64, check non_negative;
        /// Pure-miss concurrency (paper's `C_M`), at least 1.
        pure_miss_concurrency: f64, check at_least_1;
    }
}

section! {
    /// Analytical-model construction knobs (the constants the CLI used to
    /// hard-code in `model_from`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct ModelSpec {
        /// L1 miss-rate sensitivity exponent (power-law alpha).
        l1_alpha: f64 = 0.5, check positive;
        /// L2 miss-rate sensitivity exponent (power-law alpha).
        l2_alpha: f64 = 1.0, check positive;
        /// Flat DRAM latency seen by the model, cycles.
        dram_latency: f64 = 120.0, check positive;
        /// Upper clamp on the measured compute/memory overlap fraction.
        overlap_cap: f64 = 0.95,
            check |x| (!(*x >= 0.0) || !(*x < 1.0)).then_some("must lie in [0, 1)");
        /// Override for the sequential-scaling exponent `g`; `None` uses
        /// the workload's own complexity-derived scale function.
        g_exponent: Option<f64> = None, check |g| g.as_ref().and_then(non_negative);
        /// C-AMAT measurement overrides; `None` uses characterization.
        camat: Option<CamatSpec> = None;
    }
}

section! {
    /// One cache level; mirrors `CacheConfig` in `c2-sim`. The defaults
    /// are [`CacheSpec::default_l1`] and [`CacheSpec::default_l2`],
    /// per level.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CacheSpec {
        /// Total capacity in bytes (power of two).
        size_bytes: u64, check nonzero;
        /// Line size in bytes (power of two).
        line_size: u64, check nonzero;
        /// Associativity (ways per set).
        associativity: u64;
        /// Lookup/hit latency in cycles.
        hit_latency: u64;
        /// MSHR entries (outstanding misses); 1 = blocking cache.
        mshr_entries: u64;
        /// Access ports (new lookups accepted per cycle).
        ports: u64;
        /// Banks (independent lookup pipelines).
        banks: u64;
        /// Next-line prefetch on demand miss (L1 only).
        next_line_prefetch: bool;
    }
}

impl CacheSpec {
    /// A 32 KiB, 8-way, 3-cycle L1 with 8 MSHRs and 2 ports —
    /// Core-i7-like, matching the paper's "memory hierarchy similar to
    /// an Intel Core i7" (§IV, \[25\]).
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

    /// A 2 MiB, 16-way, 12-cycle shared L2 with 16 MSHRs and 8 banks.
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

section! {
    /// DRAM timing/structure; mirrors `DramConfig` in `c2-sim`. The
    /// default is DDR3-1600-like timing at a ~3 GHz core clock
    /// (latencies in core cycles).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DramSpec {
        /// Independent banks.
        banks: u64 = 8, check count;
        /// Row-buffer size in bytes.
        row_size: u64 = 8 * 1024;
        /// Row-to-column delay (activate), cycles.
        t_rcd: u64 = 22;
        /// Column access (CAS) latency, cycles.
        t_cas: u64 = 22;
        /// Precharge latency, cycles.
        t_rp: u64 = 22;
        /// Data-bus transfer time per line, cycles.
        t_bus: u64 = 8;
        /// Request-queue capacity per DRAM channel.
        queue_depth: u64 = 32;
    }
}

section! {
    /// Out-of-order core shape; mirrors `CoreConfig` in `c2-sim`. The
    /// default is the paper's detailed core: 4-wide out-of-order with a
    /// 128-entry ROB (§IV).
    #[derive(Debug, Clone, PartialEq)]
    pub struct CoreSpec {
        /// Instructions issued (and retired) per cycle.
        issue_width: u64 = 4, check count;
        /// Reorder-buffer entries.
        rob_size: u64 = 128, check count;
        /// Execution latency of a non-memory instruction, cycles.
        exec_latency: u64 = 1, check count;
    }
}

section! {
    /// Interconnect latencies; mirrors `NocConfig` in `c2-sim`. The
    /// default is a small mesh.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NocSpec {
        /// One-way latency L1→L2 (and back), cycles.
        l1_l2_latency: u64 = 4;
        /// One-way latency L2→memory controller, cycles.
        l2_mem_latency: u64 = 6;
    }
}

section! {
    /// Full chip description; mirrors `ChipConfig` in `c2-sim` (minus the
    /// fault plan, which is a test-injection surface, not an experiment
    /// parameter). The default is a single Core-i7-like core over the
    /// default hierarchy.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChipSpec {
        /// Number of cores.
        cores: u64 = 1, check count;
        /// Per-core configuration.
        core: CoreSpec = CoreSpec::default();
        /// Private L1 per core.
        l1: CacheSpec = CacheSpec::default_l1();
        /// Shared L2.
        l2: CacheSpec = CacheSpec::default_l2();
        /// DRAM behind the L2.
        dram: DramSpec = DramSpec::default();
        /// Interconnect latencies.
        noc: NocSpec = NocSpec::default();
        /// Abort if a simulation exceeds this many cycles.
        max_cycles: u64 = 500_000_000, check nonzero;
    }
}

/// Log-spaced inclusive axis: `steps` points from `lo` to `hi`.
fn geometric(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2);
    (0..steps)
        .map(|i| {
            let t = i as f64 / (steps - 1) as f64;
            (lo.ln() + t * (hi.ln() - lo.ln())).exp()
        })
        .collect()
}

section! {
    /// Design-space axes; mirrors `DesignSpace` in `c2-core`. The default
    /// is the paper-scale space: ten values per parameter, 10⁶ points.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpaceSpec {
        /// Sequential-stage area axis (mm²).
        a0: Vec<f64> = geometric(0.5, 16.0, 10), check |a| area_axis(a);
        /// Per-core area axis (mm²).
        a1: Vec<f64> = geometric(0.05, 2.0, 10), check |a| area_axis(a);
        /// Cache-area-per-core axis (mm²).
        a2: Vec<f64> = geometric(0.1, 4.0, 10), check |a| area_axis(a);
        /// Core-count axis.
        n: Vec<u64> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512], check |a| count_axis(a);
        /// Issue-width axis for the narrowed simulation sweep.
        issue: Vec<u64> = vec![1, 2, 3, 4, 5, 6, 7, 8, 12, 16], check |a| count_axis(a);
        /// ROB-size axis for the narrowed simulation sweep.
        rob: Vec<u64> = vec![16, 32, 48, 64, 96, 128, 160, 192, 224, 256],
            check |a| count_axis(a);
    }
}

impl SpaceSpec {
    /// The paper-scale space (the default); `DesignSpace::paper_scale()`
    /// is built from it.
    pub fn paper_scale() -> Self {
        SpaceSpec::default()
    }

    /// A fast smoke-test space (4⁴·3² = 2304 points);
    /// `DesignSpace::tiny()` is built from it.
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

section! {
    /// Silicon budget; mirrors `SiliconBudget::new(total, shared)`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BudgetSpec {
        /// Total chip area, mm².
        total_area_mm2: f64 = 400.0, check positive;
        /// Area reserved for shared structures, mm².
        shared_area_mm2: f64 = 40.0, check non_negative;
    }
    check |b| {
        (!(b.shared_area_mm2 < b.total_area_mm2))
            .then_some(("shared_area_mm2", "must be smaller than total_area_mm2"))
    };
}

section! {
    /// Area-model coefficients; mirrors `AreaModel` in `c2-sim`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AreaSpec {
        /// Pollack's-rule performance coefficient.
        pollack_k0: f64 = 1.0, check positive;
        /// Pollack's-rule exponent offset.
        pollack_phi0: f64 = 0.2, check positive;
        /// Reference core area, mm².
        reference_core_area: f64 = 4.0, check positive;
        /// Cache density, bytes per mm².
        cache_bytes_per_mm2: f64 = 512.0 * 1024.0, check positive;
    }
}

section! {
    /// Solver tolerances; defaults are the constants historically
    /// hard-coded in `c2-core`'s optimize path.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SolverSpec {
        /// Newton convergence tolerance.
        newton_tol: f64 = 1e-8, check positive;
        /// Newton iteration cap.
        newton_max_iters: u64 = 200, check count;
        /// Nelder–Mead convergence tolerance (fallback solver).
        nelder_tol: f64 = 1e-12, check positive;
        /// Nelder–Mead iteration cap.
        nelder_max_iters: u64 = 4000, check count;
    }
}

section! {
    /// Phase-detection knobs for the phase-clustered oracle; mirrors
    /// `PhaseConfig` in `c2-trace` (signature-histogram sizes and k-means
    /// iteration caps keep that crate's defaults).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhaseSpec {
        /// Accesses per clustering interval.
        interval_len: u64 = 1000, check count,
            check |x| (*x > 1_000_000_000).then_some("is implausibly large");
        /// Number of phases (clusters) to detect; clamped down to the
        /// number of available intervals by the consumer.
        clusters: u64 = 4, check count,
            check |x| (*x > 1024).then_some("is implausibly large");
        /// Deterministic seed for centroid initialization.
        seed: u64 = 0x5eed;
    }
}

enumerated! {
    /// The oracle evaluation strategy.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum OracleMode {
        /// Simulate the full trace at every design point.
        #[default]
        Full = "full",
        /// Simulate one representative interval per detected phase.
        Phase = "phase",
    }
}

section! {
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
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OracleSpec {
        /// `"full"` or `"phase"`.
        mode: OracleMode = OracleMode::Full;
        /// Phase-detection knobs (ignored in `full` mode but always
        /// validated and rendered).
        phase: PhaseSpec = PhaseSpec::default();
    }
}

enumerated! {
    /// The analytical model family pricing the sweep.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum BackendKind {
        /// The paper's Eq. 10 capacity/concurrency CPU-CMP bound.
        #[default]
        CpuCmp = "cpu-cmp",
        /// The compositional GPU streaming-multiprocessor throughput bound.
        GpuSm = "gpu-sm",
    }
}

section! {
    /// GPU-SM model knobs; mirrors `GpuSmModel` in `c2-bound`. The space
    /// axes are reinterpreted — `n` is the SM count, `issue` the FP32
    /// lanes per SM, `rob` the occupancy target in percent — so the
    /// section carries only the per-workload and per-memory-system
    /// parameters the axes cannot express.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GpuSpec {
        /// Total kernel work in FP32 FLOPs.
        work_flops: f64 = 1e9, check positive;
        /// FMA fraction of FP32 instructions, in `[0, 1]`; each FMA
        /// retires two FLOPs, hence the `(1 + m_FMA)` factor.
        m_fma: f64 = 0.5, check unit;
        /// Lanes per warp (32 on every shipping NVIDIA part).
        warp_lanes: u64 = 32, check count;
        /// DRAM traffic per FLOP, bytes — the reciprocal of operational
        /// intensity.
        mem_bytes_per_flop: f64 = 0.25, check positive;
        /// Memory bandwidth in bytes per SM-clock cycle (chip-wide).
        mem_bandwidth: f64 = 256.0, check positive;
        /// Warps resident per SM under the kernel's register/smem usage.
        resident_warps: u64 = 32, check count;
        /// Architectural maximum warps per SM.
        max_warps: u64 = 48, check count;
    }
}

section! {
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
    #[derive(Debug, Clone, PartialEq)]
    pub struct BackendSpec {
        /// `"cpu-cmp"` or `"gpu-sm"`.
        kind: BackendKind = BackendKind::CpuCmp;
        /// GPU-SM model knobs (ignored by `cpu-cmp` but always validated
        /// and rendered).
        gpu: GpuSpec = GpuSpec::default();
    }
}

enumerated! {
    /// The scalability-law family member pricing core-count scaling.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum LawKind {
        /// Sun-Ni's memory-bounded law (paper Eq. 4) with the workload's
        /// `g(N)` — the historical default.
        #[default]
        SunNi = "sun-ni",
        /// Amdahl's fixed-size law (`g(N) = 1` degenerate case).
        Amdahl = "amdahl",
        /// Furtunato-style bandwidth-saturation law: a `beta` fraction of
        /// parallel work stops scaling past `n_sat` cores.
        MemoryWall = "memory-wall",
        /// Gunther's Universal Scalability Law (contention `sigma` +
        /// coherency `kappa`; retrograde when `kappa > 0`).
        Usl = "usl",
    }
}

section! {
    /// Memory-wall law parameters; mirrors `MemoryWall` in `c2-speedup`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MemoryWallSpec {
        /// Bandwidth-bound fraction of the parallel work, in `[0, 1]`.
        beta: f64 = 0.5, check unit;
        /// Core count at which aggregate bandwidth demand saturates the
        /// memory system (`>= 1`).
        n_sat: f64 = 64.0,
            check |x| (!(*x >= 1.0) || !x.is_finite()).then_some("must be finite and at least 1");
    }
}

section! {
    /// USL parameters; mirrors `Usl` in `c2-speedup`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct UslSpec {
        /// Contention coefficient `sigma` in `[0, 1]`; `null` adopts the
        /// workload's measured sequential fraction.
        sigma: Option<f64> = None, check |s| s.as_ref().and_then(unit);
        /// Coherency coefficient `kappa >= 0`.
        kappa: f64 = 0.0, check non_negative;
    }
}

section! {
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
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpeedupSpec {
        /// `"sun-ni"`, `"amdahl"`, `"memory-wall"` or `"usl"`.
        law: LawKind = LawKind::SunNi;
        /// Memory-wall law parameters (ignored by other laws but always
        /// validated and rendered).
        memory_wall: MemoryWallSpec = MemoryWallSpec::default();
        /// USL parameters (ignored by other laws but always validated and
        /// rendered).
        usl: UslSpec = UslSpec::default();
    }
}

section! {
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
        enabled: bool = false;
        /// Deterministic seed for the surrogate committee (the acquisition
        /// rule itself is rank-based and needs no randomness).
        seed: u64 = 0xC2A7;
        /// True evaluations in the seeding round (evenly spread over the
        /// plan).
        initial: u64 = 16, check count;
        /// True evaluations added per acquisition round.
        batch: u64 = 8, check count;
        /// Hard cap on true oracle evaluations across all rounds.
        budget: u64 = 64;
        /// Committee size (independently seeded MLPs whose prediction
        /// spread is the uncertainty signal); at least 2.
        committee: u64 = 3,
            check |x| (*x < 2).then_some("needs at least 2 members for a disagreement signal");
        /// Hidden-layer width of each committee member.
        hidden: u64 = 16, check count;
        /// Training epochs per round for each committee member.
        epochs: u64 = 200, check count;
        /// Early-stop threshold on the worst committee disagreement in
        /// ln-time space (roughly relative error); `0` disables early
        /// stopping and the budget alone terminates the loop.
        tolerance: f64 = 0.02, check non_negative;
    }
    check |s| (s.budget < s.initial).then_some(("budget", "must be at least screen.initial"));
}

section! {
    /// Retry backoff policy; mirrors `BackoffPolicy` in `c2-runner`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BackoffSpec {
        /// First-retry delay, ms.
        base_ms: u64 = 10;
        /// Multiplier per attempt.
        factor: f64 = 2.0, check at_least_1;
        /// Delay ceiling, ms.
        cap_ms: u64 = 1_000;
        /// Deterministic jitter fraction in `[0, 1]`.
        jitter_frac: f64 = 0.25, check unit;
    }
    check |b| (b.cap_ms < b.base_ms).then_some(("cap_ms", "must be at least base_ms"));
}

section! {
    /// Circuit-breaker policy; mirrors `BreakerPolicy` in `c2-runner`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BreakerSpec {
        /// Consecutive failures before the breaker opens.
        trip_threshold: u64 = 5, check count;
        /// Completed jobs to wait before half-opening.
        cooldown: u64 = 3;
        /// Successful probes required to close again.
        probes: u64 = 2, check count;
    }
}

section! {
    /// Content-addressed evaluation-cache knobs; mirrors the cache side
    /// of `RunConfig` in `c2-runner`. The cache memoizes oracle results
    /// under (run identity fingerprint, design-point content key) — the
    /// identity binds the plan and scenario fingerprints — so editing the
    /// scenario invalidates entries without explicit versioning.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EvalCacheSpec {
        /// Whether the sweep consults and populates the cache.
        enabled: bool = false;
        /// Cache file path (JSONL); required when `enabled`.
        path: Option<String> = None, check filled;
    }
    check |c| {
        (c.enabled && c.path.is_none()).then_some(("path", "is required when the cache is enabled"))
    };
}

section! {
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
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChaosSpec {
        /// Simulate a crash at the n-th storage write: a torn prefix of
        /// the write lands, then all storage is dead for the run.
        crash_at_write: Option<u64> = None, check write_index;
        /// How many bytes of the crashed write land before the "power
        /// cut" (default 0 when crashing; ignored otherwise).
        torn_bytes: Option<u64> = None;
        /// Fail the n-th storage write with a no-space error (the run
        /// aborts cleanly; storage stays alive).
        enospc_at_write: Option<u64> = None, check write_index;
        /// Write only half of the n-th write's bytes, then report success
        /// (silent short write; surfaced on the next read as a torn line).
        short_write_at: Option<u64> = None, check write_index;
        /// Reserved for future randomized plans; bound into nothing yet
        /// but pinned in the rendering so documents round-trip.
        seed: u64 = 0;
    }
}

section! {
    /// Supervised-runner knobs; mirrors `RunConfig` in `c2-runner` with
    /// the CLI `run` command's historical defaults.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunnerSpec {
        /// Engine threads when `threads` is 0 (≥ 1).
        workers: u64 = 2, check count;
        /// Sharded engine threads; 0 means `workers` threads. The journal,
        /// metrics, and outcome are bit-identical for every thread count.
        threads: u64 = 0;
        /// Per-attempt deadline, ms (0 disables the deadline). A late
        /// attempt is journaled as a failure and retried.
        deadline_ms: u64 = 60_000;
        /// Read, validated and fingerprinted, but unused: the engine has
        /// no watchdog. Kept until a scenario `version` bump drops it.
        watchdog_tick_ms: u64 = 5;
        /// Attempts per job before it is skipped/backfilled.
        max_attempts: u64 = 3, check count;
        /// Read, validated and fingerprinted, but unused: the engine has
        /// no job queue. Kept until a scenario `version` bump drops it.
        queue_capacity: u64 = 64, check count;
        /// Retry backoff policy.
        backoff: BackoffSpec = BackoffSpec::default();
        /// Circuit-breaker policy.
        breaker: BreakerSpec = BreakerSpec::default();
        /// Content-addressed evaluation cache.
        cache: EvalCacheSpec = EvalCacheSpec::default();
        /// Backfill skipped jobs from the analytic model.
        analytic_fallback: bool = true;
        /// Journal/cache fsync policy: `"never"`, `"on-checkpoint"`
        /// (default), or `"always"`. Operational — excluded from the
        /// scenario fingerprint.
        sync: String = "on-checkpoint".into(),
            check |s| {
                (!matches!(s.as_str(), "never" | "on-checkpoint" | "always"))
                    .then_some("must be one of never, on-checkpoint, always")
            },
            semantic_if |_| false;
        /// The journal's flush and fsync cadence: each shard appends its
        /// records every this many records, fsyncing there under
        /// `"on-checkpoint"` (0 appends only when a shard finishes).
        /// Operational — excluded from the scenario fingerprint.
        checkpoint_every: u64 = 64, semantic_if |_| false;
        /// Deterministic storage-fault injection; `None` runs on plain
        /// disk. Operational — excluded from the scenario fingerprint.
        chaos: Option<ChaosSpec> = None, semantic_if |_| false;
    }
}

section! {
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
        queue_depth: u64 = 16, check count;
        /// Maximum queued-plus-running jobs per tenant before further
        /// submissions from that tenant are shed.
        per_client_budget: u64 = 2, check count;
        /// Executor threads draining the job queue (each admitted job
        /// still shards internally per its own `runner.threads`).
        executors: u64 = 2, check count;
        /// Per-request socket read/parse deadline, ms; a client that
        /// cannot produce a full request within it is disconnected.
        read_timeout_ms: u64 = 5_000, check count;
        /// Maximum request body size in bytes; larger submissions are
        /// rejected before being read.
        max_body_bytes: u64 = 1 << 20, check count;
        /// Per-tenant admission breaker: a tenant whose jobs keep failing
        /// is shed outright until the breaker's clock-free cooldown and
        /// probe cycle readmits it.
        breaker: BreakerSpec = BreakerSpec {
            trip_threshold: 3,
            cooldown: 4,
            probes: 1,
        };
        /// Shed backoff: `Retry-After` on rejected submissions follows
        /// this schedule (deterministic capped jitter keyed by tenant).
        shed_backoff: BackoffSpec = BackoffSpec {
            base_ms: 250,
            factor: 2.0,
            cap_ms: 5_000,
            jitter_frac: 0.25,
        };
    }
}

section! {
    /// Observability options.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ObsSpec {
        /// Write the deterministic metrics report to this path after the
        /// sweep; `None` disables it. Semantic only because it predates
        /// the operational split: it has always been part of the
        /// fingerprint.
        metrics_out: Option<String> = None, check filled;
        /// Write the deterministic Roofline overlay (one point per
        /// evaluated candidate) to this path after the sweep; `None`
        /// disables it. Operational — where a report lands never changes
        /// what the sweep computes.
        roofline_out: Option<String> = None, check filled, semantic_if |_| false;
    }
}

section! {
    /// The complete declarative experiment description.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Scenario {
        /// Schema version; only 1 is currently spoken.
        version: u64 = 1;
        /// Workload selection.
        workload: WorkloadSpec = WorkloadSpec::default();
        /// Analytical-model knobs and characterization overrides.
        model: ModelSpec = ModelSpec::default();
        /// Chip/cache/DRAM configuration for characterization & simulation.
        chip: ChipSpec = ChipSpec::default();
        /// Design-space axes for the APS sweep.
        space: SpaceSpec = SpaceSpec::default();
        /// Silicon budget constraint.
        budget: BudgetSpec = BudgetSpec::default();
        /// Area-model coefficients.
        area: AreaSpec = AreaSpec::default();
        /// Solver tolerances.
        solver: SolverSpec = SolverSpec::default();
        /// Oracle selection (full-trace vs phase-clustered pricing).
        /// Semantic whenever it deviates from `full` mode.
        oracle: OracleSpec = OracleSpec::default(),
            semantic_if |o| o.mode != OracleMode::Full;
        /// Model-backend selection (CPU-CMP Eq. 10 vs GPU-SM bound).
        /// Semantic whenever it deviates from `cpu-cmp`.
        backend: BackendSpec = BackendSpec::default(),
            semantic_if |b| b.kind != BackendKind::CpuCmp;
        /// Scalability-law selection. Semantic whenever it deviates from
        /// `sun-ni`.
        speedup: SpeedupSpec = SpeedupSpec::default(),
            semantic_if |s| s.law != LawKind::SunNi;
        /// Surrogate-screening selection. Semantic whenever screening is
        /// enabled.
        screen: ScreenSpec = ScreenSpec::default(), semantic_if |s| s.enabled;
        /// Supervised-runner policy.
        runner: RunnerSpec = RunnerSpec::default();
        /// Service-layer (daemon) policy. Operational — excluded from the
        /// scenario fingerprint.
        serve: ServeSpec = ServeSpec::default(), semantic_if |_| false;
        /// Observability options.
        observability: ObsSpec = ObsSpec::default();
    }
    check coherent;
}

/// The rules that tie sections together. Phase windows are
/// C-AMAT-specific: the phase oracle clusters trace intervals by memory
/// behaviour the GPU bound never models. And the phase oracle is itself
/// an estimator: screening it would train the surrogate on
/// reconstructed times and compound unbounded error. The engine layer
/// rejects both combinations again.
fn coherent(s: &Scenario) -> Option<(&'static str, &'static str)> {
    let phase = s.oracle.mode == OracleMode::Phase;
    if phase && s.backend.kind != BackendKind::CpuCmp {
        return Some(("oracle.mode", "phase oracle requires the cpu-cmp backend"));
    }
    (phase && s.screen.enabled).then_some((
        "screen.enabled",
        "surrogate screening requires the full oracle",
    ))
}

impl Scenario {
    /// Parse and validate a scenario document. Strict: unknown keys,
    /// duplicate keys, type mismatches, and out-of-range values are all
    /// typed errors.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = Json::parse(text)?;
        // The version is read before any section, so an unsupported
        // version outranks every error inside the sections.
        if let Some(pairs) = doc.as_obj() {
            check_keys(pairs, Scenario::KEYS, ROOT)?;
            if let Some(v) = find(pairs, "version") {
                let version: u64 = read(v, ROOT.child("version"), None)?;
                if version != 1 {
                    return Err(ScenarioError::UnsupportedVersion(version));
                }
            }
        }
        let scenario: Scenario = read(&doc, ROOT, Some(&Scenario::default()))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// The canonical JSON value: every key present, fixed section order.
    pub fn to_json(&self) -> Json {
        self.emit(false)
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
    /// the canonical bytes minus the operational keys (`runner.sync`,
    /// `runner.checkpoint_every`, `runner.chaos`, `serve`,
    /// `observability.roofline_out`) and minus the `oracle`, `backend`,
    /// `speedup` and `screen` sections while they hold their defaults.
    /// Any semantic change to the scenario changes this value; two
    /// documents that parse to the same scenario share it, as do two
    /// scenarios that differ only operationally (so a crashed chaos
    /// run's journal is resumable with chaos disarmed).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.emit(true).render().as_bytes())
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
    pub fn validate(&self) -> Result<()> {
        if self.version != 1 {
            return Err(ScenarioError::UnsupportedVersion(self.version));
        }
        self.check(ROOT)
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
    fn nested_sections_default_from_their_enclosing_section() {
        // `serve.breaker` shares `BreakerSpec` with `runner.breaker`, but
        // a partial block fills its absent keys from serve's defaults.
        let s = Scenario::from_json(r#"{"serve":{"breaker":{"trip_threshold":1}}}"#).unwrap();
        let serve = ServeSpec::default().breaker;
        assert_eq!(s.serve.breaker.trip_threshold, 1);
        assert_eq!(
            (s.serve.breaker.cooldown, s.serve.breaker.probes),
            (serve.cooldown, serve.probes)
        );
        let s = Scenario::from_json(r#"{"chip":{"l2":{"hit_latency":20}}}"#).unwrap();
        assert_eq!(
            s.chip.l2,
            CacheSpec {
                hit_latency: 20,
                ..CacheSpec::default_l2()
            }
        );
    }

    #[test]
    fn several_defects_report_the_first_in_canonical_key_order() {
        // Parse errors come before range errors, and within an object
        // the keys are read in canonical order, whatever the document's.
        let e = Scenario::from_json(r#"{"model":{"camat":"x","l1_alpha":"x"}}"#).unwrap_err();
        assert_eq!(e.to_string(), "scenario: `model.l1_alpha` must be a number");
        let e = Scenario::from_json(r#"{"solver":{"newton_tol":0},"workload":{"size":"x"}}"#)
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "scenario: `workload.size` must be a non-negative integer"
        );
        let e = Scenario::from_json(r#"{"screen":{"batch":0},"budget":{"total_area_mm2":0}}"#)
            .unwrap_err();
        assert!(
            matches!(e, ScenarioError::OutOfRange { ref path, .. } if path == "budget.total_area_mm2")
        );
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
