//! `hs-simlint` v2: token-aware static analysis for the simulation domain.
//!
//! Every headline result in this workspace (fig_kv, fig_autoscale,
//! scale_1m) rests on bit-identical replays of a `(seed, workload,
//! topology)` triple. Stock clippy cannot express the rules that protect
//! that property, so this crate lexes every workspace crate into a real
//! token stream ([`lexer`]) and enforces per-crate rule profiles at the
//! source level:
//!
//! | rule              | what it rejects                                              |
//! |-------------------|--------------------------------------------------------------|
//! | `wall-clock`      | `Instant::now` / `SystemTime` — real time in the sim domain  |
//! | `os-rng`          | `thread_rng` / `from_entropy` / `OsRng` / `rand::random`     |
//! | `unordered-iter`  | iterating a `HashMap`/`FxHashMap`/`HashSet`/`FxHashSet`      |
//! | `float-eq`        | `==` / `!=` on latency/cost-style floats or float literals   |
//! | `nanos-narrowing` | `as` casts of nanosecond quantities to narrower types        |
//! | `unwrap`          | `.unwrap()` / `.expect("")` in non-test library code         |
//! | `units-mixing`    | cross-dimension arithmetic (`_bps` vs `_bytes` vs `_s` …)    |
//! | `sim-time-arith`  | sim timestamps round-tripped through raw f64 math            |
//! | `lock-in-sim`     | `Mutex`/`RwLock`/atomics where shard-local state is the law  |
//!
//! The last three are new in v2 and need the token stream: `units-mixing`
//! infers a dimension for each operand of a binary expression from
//! identifier suffixes (`_bps`, `_bytes`, `_tokens`, `_s`, `_ns`, …),
//! declared `SimTime`/`SimSpan` types, and known conversion calls
//! (`as_secs_f64`, `path_transfer_secs`, …), and rejects cross-dimension
//! `+`/`-`/comparisons plus the classic bytes-divided-by-bits-per-second
//! slip. An explicit conversion call is the sanctioned escape hatch — its
//! name carries the result dimension, so converted operands compare clean.
//!
//! There are no per-line waivers: a finding is fixed at the source, or
//! the crate's entry in [`PROFILES`] leaves the rule out and says why.
//! See DESIGN.md §8.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;

use lexer::{lex, skip_balanced, skip_balanced_back, TokKind, Token};
use serde_json::{json, Value};

/// The rule families simlint enforces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) in the sim domain.
    WallClock,
    /// OS-seeded or thread-local RNG (`thread_rng`, `from_entropy`, …).
    OsRng,
    /// Iteration over hash-ordered containers in order-sensitive code.
    UnorderedIter,
    /// Exact float comparison on latency/cost-style quantities.
    FloatEq,
    /// `as` narrowing casts applied to nanosecond quantities.
    NanosNarrowing,
    /// `.unwrap()` / message-less `.expect` in non-test library code.
    Unwrap,
    /// Arithmetic/comparison across physical dimensions without an
    /// explicit conversion call (bits-per-second vs bytes vs tokens vs
    /// seconds vs nanoseconds vs `SimTime`).
    UnitsMixing,
    /// Simulation timestamps reconstructed from raw f64 seconds math
    /// outside `hs-des` (the integer-nanosecond clock's home crate).
    SimTimeArith,
    /// Shared-state synchronization (`Mutex`/`RwLock`/atomics) in
    /// event-loop code where shard-local state is the sanctioned pattern.
    LockInSim,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: &'static [Rule] = &[
        Rule::WallClock,
        Rule::OsRng,
        Rule::UnorderedIter,
        Rule::FloatEq,
        Rule::NanosNarrowing,
        Rule::Unwrap,
        Rule::UnitsMixing,
        Rule::SimTimeArith,
        Rule::LockInSim,
    ];

    /// The kebab-case name used in reports and fixture file names.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::OsRng => "os-rng",
            Rule::UnorderedIter => "unordered-iter",
            Rule::FloatEq => "float-eq",
            Rule::NanosNarrowing => "nanos-narrowing",
            Rule::Unwrap => "unwrap",
            Rule::UnitsMixing => "units-mixing",
            Rule::SimTimeArith => "sim-time-arith",
            Rule::LockInSim => "lock-in-sim",
        }
    }

    /// Parse a kebab-case rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale, shown by `simlint --list-rules`.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "real time must never reach sim logic; budgets and timestamps \
                 come from SimTime or deterministic counters"
            }
            Rule::OsRng => "all randomness must flow from the run seed via SeedSplitter",
            Rule::UnorderedIter => {
                "hash-map iteration order leaks into event scheduling and plan \
                 output; use BTreeMap or sort before iterating"
            }
            Rule::FloatEq => {
                "exact equality on derived latency/cost floats is either a \
                 sentinel in disguise or a rounding bug"
            }
            Rule::NanosNarrowing => "nanosecond counts overflow 32-bit types within seconds",
            Rule::Unwrap => {
                "hot-path library code must fail gracefully or document the \
                 invariant in an expect() message"
            }
            Rule::UnitsMixing => {
                "bits/bytes/tokens/seconds/nanos live in one f64; mixing them \
                 silently corrupts bandwidth estimates — convert explicitly"
            }
            Rule::SimTimeArith => {
                "timestamps round-tripped through f64 seconds lose nanosecond \
                 bits; stay in integer SimTime/SimSpan outside hs-des"
            }
            Rule::LockInSim => {
                "locks and atomics in event-loop code hide cross-thread \
                 ordering; sim state must be shard-local and merged \
                 deterministically"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rules apply to one workspace crate.
#[derive(Clone, Copy, Debug)]
pub struct CrateProfile {
    /// Directory name under `crates/`.
    pub krate: &'static str,
    /// Rules enforced for this crate's `src/` tree.
    pub rules: &'static [Rule],
}

/// Per-crate rule profiles. The whole workspace is covered, and every
/// crate gets every rule except where the rule cannot apply:
///
/// * `des` owns the integer-nanosecond clock, so `sim-time-arith` (which
///   polices f64 round-trips *outside* the clock's home) does not apply.
/// * `bench` measures host time, so `wall-clock` does not apply.
/// * `simlint`'s own source names `OsRng` as an identifier (the
///   `Rule::OsRng` variant), so `os-rng` cannot apply to it.
///
/// These are the only exemptions: a finding anywhere else is fixed at
/// the source.
pub const PROFILES: &[CrateProfile] = &[
    CrateProfile {
        krate: "des",
        rules: &[
            Rule::WallClock,
            Rule::OsRng,
            Rule::UnorderedIter,
            Rule::FloatEq,
            Rule::NanosNarrowing,
            Rule::Unwrap,
            Rule::UnitsMixing,
            Rule::LockInSim,
        ],
    },
    CrateProfile {
        krate: "simnet",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "cluster",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "switch",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "collective",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "heroserve",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "workload",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "obs",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "model",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "topology",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "baselines",
        rules: Rule::ALL,
    },
    CrateProfile {
        krate: "bench",
        rules: &[
            Rule::OsRng,
            Rule::UnorderedIter,
            Rule::FloatEq,
            Rule::NanosNarrowing,
            Rule::Unwrap,
            Rule::UnitsMixing,
            Rule::SimTimeArith,
            Rule::LockInSim,
        ],
    },
    CrateProfile {
        krate: "simlint",
        rules: &[
            Rule::WallClock,
            Rule::UnorderedIter,
            Rule::FloatEq,
            Rule::NanosNarrowing,
            Rule::Unwrap,
            Rule::UnitsMixing,
            Rule::SimTimeArith,
            Rule::LockInSim,
        ],
    },
];

/// One rule violation at a specific source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Dimension inference
// ---------------------------------------------------------------------------

/// Physical dimension inferred for an operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dim {
    /// Link rate in bits per second (`_bps`).
    BitsPerSec,
    /// Link rate in gigabits per second (`_gbps`) — scale bugs vs `_bps`
    /// are real, so this is a distinct dimension.
    Gbps,
    /// Byte counts (`_bytes`, `bytes`).
    Bytes,
    /// Token counts (`_tokens`, `tokens`).
    Tokens,
    /// Float seconds (`_s`, `_secs`).
    Secs,
    /// Float milliseconds (`_ms`).
    Millis,
    /// Float microseconds (`_us`).
    Micros,
    /// Integer nanoseconds (`_ns`, `nanos`).
    Nanos,
    /// The `SimTime`/`SimSpan` clock types (integer nanoseconds, typed).
    SimTime,
}

impl Dim {
    fn describe(self) -> &'static str {
        match self {
            Dim::BitsPerSec => "bits/s",
            Dim::Gbps => "Gbit/s",
            Dim::Bytes => "bytes",
            Dim::Tokens => "tokens",
            Dim::Secs => "seconds",
            Dim::Millis => "milliseconds",
            Dim::Micros => "microseconds",
            Dim::Nanos => "nanoseconds",
            Dim::SimTime => "SimTime/SimSpan",
        }
    }
}

/// Dimension carried by an identifier's *name* (suffix convention), used
/// for variables, fields, and conversion-function results alike. A
/// conversion call like `path_transfer_secs(...)` is the sanctioned way
/// to move between dimensions: the call's name declares its result.
fn dim_of_name(name: &str) -> Option<Dim> {
    // Known clock conversion methods first (names the suffix pass would
    // misread or miss).
    match name {
        "SimTime" | "SimSpan" => return Some(Dim::SimTime),
        "as_secs_f64" => return Some(Dim::Secs),
        "as_millis_f64" => return Some(Dim::Millis),
        "as_micros_f64" => return Some(Dim::Micros),
        "as_nanos" => return Some(Dim::Nanos),
        "saturating_since" => return Some(Dim::SimTime),
        _ => {}
    }
    if name.ends_with("_gbps") {
        Some(Dim::Gbps)
    } else if name.ends_with("_bps") {
        Some(Dim::BitsPerSec)
    } else if name.ends_with("_bytes") || name == "bytes" {
        Some(Dim::Bytes)
    } else if name.ends_with("_tokens") || name == "tokens" {
        Some(Dim::Tokens)
    } else if name.ends_with("_ns") || name.ends_with("_nanos") || name == "nanos" {
        Some(Dim::Nanos)
    } else if name.ends_with("_us") || name.ends_with("_micros") {
        Some(Dim::Micros)
    } else if name.ends_with("_ms") || name.ends_with("_millis") {
        Some(Dim::Millis)
    } else if name.ends_with("_s") || name.ends_with("_secs") || name.ends_with("_sec") {
        Some(Dim::Secs)
    } else {
        None
    }
}

/// `SimTime`/`SimSpan` constructors produce the typed clock value, not
/// the float dimension their name suggests.
const CLOCK_CONSTRUCTORS: &[&str] = &[
    "from_secs_f64",
    "from_secs",
    "from_millis",
    "from_micros",
    "from_nanos",
];

/// Primitive types an `as` cast can target (dimension flows through).
const PRIM_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Identifier suffixes that mark latency/cost-style float quantities for
/// the `float-eq` rule.
const FLOAT_SUFFIXES: &[&str] = &[
    "_s", "_secs", "_ms", "_us", "_bps", "_gbps", "_rps", "_util", "_frac",
];

const HASH_TYPES: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

const SYNC_PRIMITIVES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "AtomicBool",
    "AtomicU8",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

// ---------------------------------------------------------------------------
// Token-stream context
// ---------------------------------------------------------------------------

/// Preprocessed per-file context shared by all rules.
struct FileCtx<'a> {
    tokens: &'a [Token],
    /// Token is inside a `#[cfg(test)]` item or `#[test]` fn.
    in_test: Vec<bool>,
    /// Token is inside a `use …;` declaration.
    in_use: Vec<bool>,
    /// Hash-container variable/field names declared in non-test code.
    containers: Vec<String>,
    /// Variables/fields declared with a `SimTime`/`SimSpan` type.
    clock_vars: Vec<String>,
}

fn ident_list(tokens: &[Token]) -> Vec<&str> {
    tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

/// Mark tokens covered by test-only items (`#[cfg(test)]` / `#[test]`,
/// including `#[cfg(all(test, …))]`, excluding `#[cfg(not(test))]`).
fn mark_tests(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].is_op("#") && tokens[i + 1].is_op("[") {
            let end_attr = skip_balanced(tokens, i + 1);
            let inner = ident_list(&tokens[i + 2..end_attr.saturating_sub(1)]);
            let is_test = inner.as_slice() == ["test"]
                || (inner.contains(&"cfg") && inner.contains(&"test") && !inner.contains(&"not"));
            if is_test {
                // Skip any further attributes, then mark through the item.
                let mut j = end_attr;
                while j + 1 < tokens.len() && tokens[j].is_op("#") && tokens[j + 1].is_op("[") {
                    j = skip_balanced(tokens, j + 1);
                }
                // Find the item's body `{` (or terminating `;`) at
                // delimiter depth 0 — parens/brackets in the signature
                // (e.g. `fn t(a: [u8; 4])`) are skipped whole.
                let mut k = j;
                let mut end = tokens.len();
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "(" | "[" => {
                            k = skip_balanced(tokens, k);
                        }
                        "{" => {
                            end = skip_balanced(tokens, k);
                            break;
                        }
                        ";" => {
                            end = k + 1;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                for flag in flags.iter_mut().take(end.min(tokens.len())).skip(i) {
                    *flag = true;
                }
                i = end;
                continue;
            }
            i = end_attr;
            continue;
        }
        i += 1;
    }
    flags
}

/// Mark tokens inside `use …;` declarations (type names there are not
/// usage sites).
fn mark_uses(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("use") {
            let start = i;
            while i < tokens.len() && !tokens[i].is_op(";") {
                i += 1;
            }
            for flag in flags.iter_mut().take((i + 1).min(tokens.len())).skip(start) {
                *flag = true;
            }
        }
        i += 1;
    }
    flags
}

/// Collect declared names of interest: hash containers and clock-typed
/// variables. Declaration shapes recognized: `name: [&][mut] [path::]Type`
/// and `[let [mut]] name = [path::]Type::…`.
fn collect_decls(tokens: &[Token], in_test: &[bool], types: &[&str], out: &mut Vec<String>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] || !types.contains(&t.text.as_str()) {
            continue;
        }
        // Walk back over a `path::` prefix.
        let mut b = i;
        while b >= 2 && tokens[b - 1].is_op("::") && tokens[b - 2].kind == TokKind::Ident {
            b -= 2;
        }
        // Walk back over `&`, `&mut`, `&'a mut`.
        let mut p = b;
        while p >= 1 {
            let prev = &tokens[p - 1];
            if prev.is_op("&") || prev.is_ident("mut") || prev.kind == TokKind::Lifetime {
                p -= 1;
            } else {
                break;
            }
        }
        let name = if p >= 2
            && (tokens[p - 1].is_op(":") || tokens[p - 1].is_op("="))
            && tokens[p - 2].kind == TokKind::Ident
        {
            Some(tokens[p - 2].text.clone())
        } else {
            None
        };
        if let Some(n) = name {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    }
}

impl<'a> FileCtx<'a> {
    fn new(tokens: &'a [Token]) -> Self {
        let in_test = mark_tests(tokens);
        let in_use = mark_uses(tokens);
        let mut containers = Vec::new();
        collect_decls(tokens, &in_test, HASH_TYPES, &mut containers);
        let mut clock_vars = Vec::new();
        collect_decls(tokens, &in_test, &["SimTime", "SimSpan"], &mut clock_vars);
        FileCtx {
            tokens,
            in_test,
            in_use,
            containers,
            clock_vars,
        }
    }

    /// Dimension of the operand ending at token index `end` (inclusive),
    /// walking backward over casts, calls, indexing, and field paths.
    fn dim_before(&self, end: usize) -> Option<Dim> {
        let t = &self.tokens[end];
        // `expr as f64` — dimension flows through the cast.
        if t.kind == TokKind::Ident && PRIM_TYPES.contains(&t.text.as_str()) {
            if end >= 1 && self.tokens[end - 1].is_ident("as") {
                return if end >= 2 {
                    self.dim_before(end - 2)
                } else {
                    None
                };
            }
            return None;
        }
        // Call or index result: `path(...)` / `recv[...]`.
        if t.is_op(")") || t.is_op("]") {
            let open = skip_balanced_back(self.tokens, end);
            if open == 0 {
                return None;
            }
            let head = open - 1;
            if self.tokens[head].kind != TokKind::Ident {
                return None;
            }
            let name = self.tokens[head].text.as_str();
            if t.is_op("]") {
                // Indexing: dimension of the receiver variable.
                return self.var_dim(name);
            }
            // Call: conversion-function result. Clock constructors need
            // their type prefix to resolve to the typed clock value.
            if CLOCK_CONSTRUCTORS.contains(&name) {
                if head >= 2
                    && self.tokens[head - 1].is_op("::")
                    && (self.tokens[head - 2].is_ident("SimTime")
                        || self.tokens[head - 2].is_ident("SimSpan"))
                {
                    return Some(Dim::SimTime);
                }
                return None;
            }
            return dim_of_name(name);
        }
        if t.kind == TokKind::Ident {
            if t.is_ident("as") || PRIM_TYPES.contains(&t.text.as_str()) {
                return None;
            }
            return self.var_dim(&t.text);
        }
        None
    }

    /// Dimension of the operand starting at token index `start`, walking
    /// forward over references, paths, calls, and method chains; the
    /// *last* segment of the chain decides.
    fn dim_after(&self, start: usize) -> Option<Dim> {
        let mut i = start;
        // Skip leading `&`, `*`, unary `-`, `mut`.
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            if t.is_op("&") || t.is_op("*") || t.is_op("-") || t.is_ident("mut") {
                i += 1;
            } else {
                break;
            }
        }
        if i >= self.tokens.len() || self.tokens[i].kind != TokKind::Ident {
            return None;
        }
        // Walk the longest `a::b.c(…).d` chain, remembering the last
        // named segment and whether it was called.
        let mut last_name = self.tokens[i].text.clone();
        let mut last_called = false;
        let mut prev_seg: Option<String> = None;
        let mut j = i + 1;
        while j < self.tokens.len() {
            let t = &self.tokens[j];
            if t.is_op("::") || t.is_op(".") {
                if j + 1 < self.tokens.len() && self.tokens[j + 1].kind == TokKind::Ident {
                    prev_seg = Some(std::mem::replace(
                        &mut last_name,
                        self.tokens[j + 1].text.clone(),
                    ));
                    last_called = false;
                    j += 2;
                    continue;
                }
                // Tuple index (`x.0`) — keep going, segment is unnamed.
                if j + 1 < self.tokens.len() && self.tokens[j + 1].kind == TokKind::Int {
                    j += 2;
                    continue;
                }
                break;
            }
            if t.is_op("(") {
                last_called = true;
                j = skip_balanced(self.tokens, j);
                continue;
            }
            if t.is_op("[") {
                j = skip_balanced(self.tokens, j);
                continue;
            }
            break;
        }
        if last_called {
            if CLOCK_CONSTRUCTORS.contains(&last_name.as_str()) {
                return match prev_seg.as_deref() {
                    Some("SimTime") | Some("SimSpan") => Some(Dim::SimTime),
                    _ => None,
                };
            }
            return dim_of_name(&last_name);
        }
        self.var_dim(&last_name)
    }

    /// Dimension of a plain variable/field reference: declared clock
    /// types first, then the name-suffix convention.
    fn var_dim(&self, name: &str) -> Option<Dim> {
        if self.clock_vars.iter().any(|v| v == name) {
            return Some(Dim::SimTime);
        }
        // Type names used as values (e.g. `SimTime::ZERO`) are typed.
        dim_of_name(name)
    }
}

// ---------------------------------------------------------------------------
// Rule engines
// ---------------------------------------------------------------------------

type RawFinding = (Rule, usize, String);

fn op_is_cmp_or_addsub(op: &str) -> bool {
    matches!(op, "+" | "-" | "<" | ">" | "<=" | ">=" | "==" | "!=")
}

/// True when `+`/`-` at token `i` is a binary operator (has a value-like
/// token on its left), not a unary sign.
fn is_binary_here(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &tokens[i - 1];
    prev.kind == TokKind::Ident
        || prev.kind == TokKind::Int
        || prev.kind == TokKind::Float
        || prev.is_op(")")
        || prev.is_op("]")
}

/// True when the operand adjacent to the binary operator at `i` extends
/// into a higher-precedence `*`/`/`/`%` product (`a + b * c`): a
/// single-segment walk cannot infer the product's dimension, so the
/// units check must stand down rather than misread `b` as the operand.
fn product_adjacent(tokens: &[Token], i: usize, forward: bool) -> bool {
    const LIMIT: usize = 120;
    let stop_op = |s: &str| {
        matches!(
            s,
            "{" | "}"
                | ";"
                | ","
                | "="
                | "=="
                | "!="
                | "<="
                | ">="
                | "<"
                | ">"
                | "+"
                | "-"
                | "&&"
                | "||"
                | "=>"
                | ".."
                | "..="
        )
    };
    if forward {
        let mut depth = 0usize;
        let mut j = i + 1;
        let end = (i + LIMIT).min(tokens.len());
        while j < end {
            let t = &tokens[j];
            match t.text.as_str() {
                "(" | "[" if t.kind == TokKind::Op => depth += 1,
                ")" | "]" if t.kind == TokKind::Op => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                "/" | "%" if depth == 0 && t.kind == TokKind::Op => return true,
                "*" if depth == 0 && t.kind == TokKind::Op && is_binary_here(tokens, j) => {
                    return true;
                }
                s if depth == 0 && t.kind == TokKind::Op && stop_op(s) => return false,
                _ => {}
            }
            j += 1;
        }
        false
    } else {
        let mut depth = 0usize;
        let mut j = i;
        let start = i.saturating_sub(LIMIT);
        while j > start {
            j -= 1;
            let t = &tokens[j];
            match t.text.as_str() {
                ")" | "]" if t.kind == TokKind::Op => depth += 1,
                "(" | "[" if t.kind == TokKind::Op => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                "/" | "%" if depth == 0 && t.kind == TokKind::Op => return true,
                "*" if depth == 0 && t.kind == TokKind::Op && is_binary_here(tokens, j) => {
                    return true;
                }
                s if depth == 0 && t.kind == TokKind::Op && stop_op(s) => return false,
                _ => {}
            }
        }
        false
    }
}

fn scan_rules(ctx: &FileCtx<'_>, rules: &[Rule], out: &mut Vec<RawFinding>) {
    let tokens = ctx.tokens;
    let has = |r: Rule| rules.contains(&r);

    for i in 0..tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &tokens[i];
        let line = t.line;

        // wall-clock ------------------------------------------------------
        if has(Rule::WallClock) && t.kind == TokKind::Ident && !ctx.in_use[i] {
            if t.text == "Instant"
                && i + 2 < tokens.len()
                && tokens[i + 1].is_op("::")
                && tokens[i + 2].is_ident("now")
            {
                out.push((
                    Rule::WallClock,
                    line,
                    "wall-clock read `Instant::now` in sim-domain code".into(),
                ));
            }
            if t.text == "SystemTime" {
                out.push((
                    Rule::WallClock,
                    line,
                    "wall-clock type `SystemTime` in sim-domain code".into(),
                ));
            }
        }

        // os-rng ----------------------------------------------------------
        if has(Rule::OsRng) && t.kind == TokKind::Ident && !ctx.in_use[i] {
            if matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng") {
                out.push((
                    Rule::OsRng,
                    line,
                    format!(
                        "unseeded RNG source `{}` (randomness must come from the run seed)",
                        t.text
                    ),
                ));
            }
            if t.text == "rand"
                && i + 2 < tokens.len()
                && tokens[i + 1].is_op("::")
                && tokens[i + 2].is_ident("random")
            {
                out.push((
                    Rule::OsRng,
                    line,
                    "unseeded RNG source `rand::random` (randomness must come from the run seed)"
                        .into(),
                ));
            }
        }

        // unordered-iter: container.method(…) ----------------------------
        if has(Rule::UnorderedIter)
            && t.kind == TokKind::Ident
            && ctx.containers.iter().any(|c| c == &t.text)
            && i + 3 < tokens.len()
            && tokens[i + 1].is_op(".")
            && tokens[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&tokens[i + 2].text.as_str())
            && tokens[i + 3].is_op("(")
        {
            out.push((
                Rule::UnorderedIter,
                tokens[i + 2].line,
                format!(
                    "iteration over hash-ordered container `{}` (use BTreeMap or sort first)",
                    t.text
                ),
            ));
        }

        // unordered-iter: `for pat in [&][mut] path {` --------------------
        if has(Rule::UnorderedIter) && t.is_ident("for") {
            // Find the `in` of this loop header (patterns never contain
            // the keyword), then require the subject to be a pure path.
            let mut j = i + 1;
            let mut found_in = None;
            while j < tokens.len() && j < i + 64 {
                if tokens[j].is_ident("in") {
                    found_in = Some(j);
                    break;
                }
                if tokens[j].is_op("{") || tokens[j].is_op(";") {
                    break;
                }
                j += 1;
            }
            if let Some(in_at) = found_in {
                let mut k = in_at + 1;
                let mut pure_path = true;
                let mut subject_names: Vec<&str> = Vec::new();
                while k < tokens.len() && !tokens[k].is_op("{") {
                    let s = &tokens[k];
                    match s.kind {
                        TokKind::Ident if s.text == "mut" => {}
                        TokKind::Ident => subject_names.push(&s.text),
                        TokKind::Int => {}
                        TokKind::Op if matches!(s.text.as_str(), "&" | "." | "::") => {}
                        _ => {
                            pure_path = false;
                            break;
                        }
                    }
                    k += 1;
                }
                if pure_path {
                    if let Some(name) = subject_names
                        .iter()
                        .find(|n| ctx.containers.iter().any(|c| c == **n))
                    {
                        out.push((
                            Rule::UnorderedIter,
                            tokens[in_at].line,
                            format!(
                                "iteration over hash-ordered container `{name}` \
                                 (use BTreeMap or sort first)"
                            ),
                        ));
                    }
                }
            }
        }

        // float-eq / units-mixing on binary operators ---------------------
        if t.kind == TokKind::Op && op_is_cmp_or_addsub(&t.text) && i > 0 {
            let is_eq = matches!(t.text.as_str(), "==" | "!=");
            if (has(Rule::FloatEq) && is_eq) || has(Rule::UnitsMixing) {
                let binary = if matches!(t.text.as_str(), "+" | "-") {
                    is_binary_here(tokens, i)
                } else {
                    true
                };
                if binary {
                    let lhs_dim = ctx.dim_before(i - 1);
                    let rhs_dim = ctx.dim_after(i + 1);
                    // units-mixing: both sides have a known, different
                    // dimension and no conversion call bridged them.
                    if has(Rule::UnitsMixing) {
                        if let (Some(a), Some(b)) = (lhs_dim, rhs_dim) {
                            if a != b
                                && !product_adjacent(tokens, i, false)
                                && !product_adjacent(tokens, i, true)
                            {
                                out.push((
                                    Rule::UnitsMixing,
                                    line,
                                    format!(
                                        "`{}` mixes {} with {} — insert an explicit \
                                         conversion call",
                                        t.text,
                                        a.describe(),
                                        b.describe()
                                    ),
                                ));
                            }
                        }
                    }
                    if has(Rule::FloatEq) && is_eq {
                        // A bare float literal is not enough: exact
                        // comparison against a literal sentinel is a
                        // legitimate pattern in math-kernel code (pivot
                        // checks, degenerate-variance guards). The rule
                        // targets *dimension-named* quantities.
                        let suspicious = |side: usize, fwd: bool| -> bool {
                            let name = if fwd {
                                forward_last_name(tokens, side)
                            } else {
                                backward_last_name(tokens, side)
                            };
                            name.is_some_and(|n| {
                                FLOAT_SUFFIXES.iter().any(|s| n.ends_with(s))
                                    || n.contains("latency")
                                    || n.contains("cost")
                            })
                        };
                        if suspicious(i - 1, false)
                            || (i + 1 < tokens.len() && suspicious(i + 1, true))
                        {
                            out.push((
                                Rule::FloatEq,
                                line,
                                format!(
                                    "exact float comparison `{}` on a latency/cost-style quantity",
                                    t.text
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // units-mixing: bytes divided by bits-per-second ------------------
        if has(Rule::UnitsMixing) && t.is_op("/") && i > 0 && i + 1 < tokens.len() {
            let lhs = ctx.dim_before(i - 1);
            let rhs = ctx.dim_after(i + 1);
            if lhs == Some(Dim::Bytes) && matches!(rhs, Some(Dim::BitsPerSec) | Some(Dim::Gbps)) {
                out.push((
                    Rule::UnitsMixing,
                    line,
                    "dividing a byte count by a bits-per-second rate — multiply bytes \
                     by 8.0 first (or use a `*_secs` conversion helper)"
                        .into(),
                ));
            }
        }

        // nanos-narrowing -------------------------------------------------
        if has(Rule::NanosNarrowing)
            && t.is_ident("as")
            && i > 0
            && i + 1 < tokens.len()
            && tokens[i + 1].kind == TokKind::Ident
            && NARROW_TYPES.contains(&tokens[i + 1].text.as_str())
        {
            let lhs_is_nanos = ctx.dim_before(i - 1) == Some(Dim::Nanos)
                || backward_last_name(tokens, i - 1)
                    .is_some_and(|n| n.contains("nanos") || n.ends_with("_ns"));
            if lhs_is_nanos {
                out.push((
                    Rule::NanosNarrowing,
                    line,
                    format!(
                        "narrowing cast `as {}` on a nanosecond quantity",
                        tokens[i + 1].text
                    ),
                ));
            }
        }

        // unwrap ----------------------------------------------------------
        if has(Rule::Unwrap) && t.is_op(".") && i + 2 < tokens.len() {
            let m = &tokens[i + 1];
            if m.is_ident("unwrap") && tokens[i + 2].is_op("(") {
                out.push((
                    Rule::Unwrap,
                    m.line,
                    "`.unwrap()` in library code (return a Result or use \
                     expect(\"…invariant…\"))"
                        .into(),
                ));
            }
            if m.is_ident("expect")
                && tokens[i + 2].is_op("(")
                && i + 3 < tokens.len()
                && tokens[i + 3].kind == TokKind::Str
                && tokens[i + 3].text.is_empty()
            {
                out.push((
                    Rule::Unwrap,
                    m.line,
                    "`.expect(\"\")` without an invariant message".into(),
                ));
            }
        }

        // sim-time-arith --------------------------------------------------
        if has(Rule::SimTimeArith) && t.kind == TokKind::Ident {
            // (a) SimTime::from_secs_f64(… as_secs_f64 …): a timestamp
            //     reconstructed from another timestamp's float seconds.
            if (t.text == "SimTime" || t.text == "SimSpan")
                && i + 3 < tokens.len()
                && tokens[i + 1].is_op("::")
                && tokens[i + 2].is_ident("from_secs_f64")
                && tokens[i + 3].is_op("(")
            {
                let end = skip_balanced(tokens, i + 3);
                let arg_idents = ident_list(&tokens[i + 4..end.saturating_sub(1)]);
                if arg_idents.iter().any(|n| {
                    matches!(
                        *n,
                        "as_secs_f64" | "as_millis_f64" | "as_micros_f64" | "as_nanos"
                    )
                }) {
                    out.push((
                        Rule::SimTimeArith,
                        line,
                        format!(
                            "`{}::from_secs_f64` rebuilt from another timestamp's float \
                             seconds — stay in integer nanoseconds (SimTime ± SimSpan, \
                             `mul_f64`, or a des-provided helper)",
                            t.text
                        ),
                    ));
                }
            }
            // (b) `.as_nanos() as f64`: float math on a raw nanosecond
            //     count (precision loss past 2^53 ns).
            if t.text == "as_nanos"
                && i + 4 < tokens.len()
                && tokens[i + 1].is_op("(")
                && tokens[i + 2].is_op(")")
                && tokens[i + 3].is_ident("as")
                && (tokens[i + 4].is_ident("f64") || tokens[i + 4].is_ident("f32"))
            {
                out.push((
                    Rule::SimTimeArith,
                    line,
                    "float math on a raw nanosecond count (`as_nanos() as f64`) — use \
                     `as_secs_f64()` for reporting or stay in integer nanoseconds"
                        .into(),
                ));
            }
        }

        // lock-in-sim -----------------------------------------------------
        if has(Rule::LockInSim)
            && t.kind == TokKind::Ident
            && !ctx.in_use[i]
            && SYNC_PRIMITIVES.contains(&t.text.as_str())
        {
            out.push((
                Rule::LockInSim,
                line,
                format!(
                    "shared-state synchronization primitive `{}` in event-loop code — \
                     sim state must be shard-local and merged deterministically",
                    t.text
                ),
            ));
        }
    }
}

/// The last path-segment name of the operand ending at token `end`
/// (walking back over one balanced group if present).
fn backward_last_name(tokens: &[Token], end: usize) -> Option<String> {
    let t = &tokens[end];
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    if t.is_op(")") || t.is_op("]") {
        let open = skip_balanced_back(tokens, end);
        if open >= 1 && tokens[open - 1].kind == TokKind::Ident {
            return Some(tokens[open - 1].text.clone());
        }
    }
    None
}

/// The last path-segment name of the operand starting at token `start`.
fn forward_last_name(tokens: &[Token], start: usize) -> Option<String> {
    let mut i = start;
    while i < tokens.len() && (tokens[i].is_op("&") || tokens[i].is_op("*") || tokens[i].is_op("-"))
    {
        i += 1;
    }
    if i >= tokens.len() || tokens[i].kind != TokKind::Ident {
        return None;
    }
    let mut last = tokens[i].text.clone();
    let mut j = i + 1;
    while j + 1 < tokens.len() && (tokens[j].is_op(".") || tokens[j].is_op("::")) {
        if tokens[j + 1].kind == TokKind::Ident {
            last = tokens[j + 1].text.clone();
            j += 2;
        } else {
            break;
        }
    }
    Some(last)
}

// ---------------------------------------------------------------------------
// Per-file entry point
// ---------------------------------------------------------------------------

/// Lint one source file under the given rule set. `file` is the label
/// used in findings.
pub fn lint_file(file: &str, source: &str, rules: &[Rule]) -> Vec<Finding> {
    let tokens = lex(source);
    let ctx = FileCtx::new(&tokens);

    let mut raw: Vec<RawFinding> = Vec::new();
    scan_rules(&ctx, rules, &mut raw);

    // One finding per (rule, line): several matches of the same rule on a
    // line are one defect. The sort is stable, so the first match stays.
    let rank = |rule: &Rule| Rule::ALL.iter().position(|r| r == rule).unwrap_or(0);
    raw.sort_by_key(|(rule, line, _)| (*line, rank(rule)));
    raw.dedup_by_key(|(rule, line, _)| (*line, rank(rule)));
    raw.into_iter()
        .map(|(rule, line, message)| Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workspace walk + report
// ---------------------------------------------------------------------------

/// The complete result of a workspace lint run.
#[derive(Default)]
pub struct WorkspaceReport {
    /// Findings across all crates.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl WorkspaceReport {
    /// True when CI should pass.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize to the machine-readable report schema (`--json`), keys
    /// in sorted order at every level.
    pub fn to_json(&self) -> Value {
        let findings: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                json!({
                    "file": &f.file,
                    "line": f.line,
                    "message": &f.message,
                    "rule": f.rule.name(),
                })
            })
            .collect();
        let profiles: Vec<Value> = PROFILES
            .iter()
            .map(|p| {
                let rules: Vec<&str> = p.rules.iter().map(|r| r.name()).collect();
                json!({"crate": p.krate, "rules": rules})
            })
            .collect();
        json!({
            "files_scanned": self.files_scanned,
            "findings": findings,
            "profiles": profiles,
            "summary": json!({
                "clean": self.is_clean(),
                "findings": self.findings.len(),
            }),
            "version": 3,
        })
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the `src/` tree of every profiled crate under `root`.
///
/// `tests/`, `benches/`, `examples/`, `vendor/`, and fixture files are out
/// of scope by construction: only `crates/<name>/src` is walked.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    for profile in PROFILES {
        let src = root.join("crates").join(profile.krate).join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("profiled crate source missing: {}", src.display()),
            ));
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        for path in files {
            let source = fs::read_to_string(&path)?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            report
                .findings
                .extend(lint_file(&label, &source, profile.rules));
            report.files_scanned += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        lint_file("t.rs", src, Rule::ALL)
    }

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    /// Each known-bad fixture fires its rule exactly once and nothing else.
    #[test]
    fn fixtures_fire_exactly_once() {
        let cases = [
            ("wall_clock.rs", Rule::WallClock),
            ("os_rng.rs", Rule::OsRng),
            ("unordered_iter.rs", Rule::UnorderedIter),
            ("float_eq.rs", Rule::FloatEq),
            ("nanos_narrowing.rs", Rule::NanosNarrowing),
            ("unwrap.rs", Rule::Unwrap),
            ("units_mixing.rs", Rule::UnitsMixing),
            ("sim_time_arith.rs", Rule::SimTimeArith),
            ("lock_in_sim.rs", Rule::LockInSim),
        ];
        for (name, rule) in cases {
            let fs = findings(&fixture(name));
            assert_eq!(
                fs.len(),
                1,
                "{name}: expected exactly one finding, got {fs:?}"
            );
            assert_eq!(fs[0].rule, rule, "{name}: wrong rule: {fs:?}");
        }
    }

    /// The negative fixture demonstrates every sanctioned pattern passing.
    #[test]
    fn clean_fixture_is_clean() {
        let fs = findings(&fixture("clean_conversions.rs"));
        assert!(fs.is_empty(), "clean fixture has findings: {fs:?}");
    }

    /// There are no per-line waivers: an allow comment, above the code or
    /// on its line, leaves the finding standing.
    #[test]
    fn allow_comments_do_not_suppress() {
        let above = "fn f() {\n    // simlint::allow(wall-clock, reporting only)\n    let t = std::time::Instant::now();\n}\n";
        let same_line = "fn f() { let t = std::time::Instant::now(); } // simlint::allow(wall-clock, reporting only)\n";
        for src in [above, same_line] {
            let fs = findings(src);
            assert_eq!(fs.len(), 1, "{fs:?}");
            assert_eq!(fs[0].rule, Rule::WallClock);
        }
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "pub fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = std::time::Instant::now();\n        let v: Option<u32> = None;\n        assert!(v.unwrap() > 0);\n    }\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\npub fn late() { let t = std::time::Instant::now(); }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::WallClock);
        assert_eq!(fs[0].line, 6);
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = "fn f() -> &'static str {\n    // Instant::now() would be bad; so would x.unwrap().\n    \"Instant::now thread_rng .unwrap()\"\n}\n";
        assert!(findings(src).is_empty());
        let raw = "fn f() -> &'static str {\n    r#\"Mutex thread_rng SystemTime\"#\n}\n";
        assert!(findings(raw).is_empty());
    }

    #[test]
    fn use_declarations_do_not_trigger_lock_rule() {
        let src = "use std::sync::Mutex;\npub fn f() {}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn expect_with_message_is_accepted() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.expect(\"queue invariant: peeked entry exists\")\n}\n";
        assert!(findings(src).is_empty());
        let empty = "fn f(v: Option<u32>) -> u32 {\n    v.expect(\"\")\n}\n";
        let fs = findings(empty);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::Unwrap);
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn hash_lookup_without_iteration_is_fine() {
        let src = "use rustc_hash::FxHashMap;\nstruct S { m: FxHashMap<u32, u32> }\nimpl S {\n    fn get(&self, k: u32) -> Option<u32> { self.m.get(&k).copied() }\n    fn put(&mut self, k: u32, v: u32) { self.m.insert(k, v); }\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_map_is_flagged() {
        let src = "use rustc_hash::FxHashMap;\nfn f(m: FxHashMap<u32, u32>) {\n    for (k, v) in &m {\n        drop((k, v));\n    }\n}\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::UnorderedIter);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn multiline_chain_over_hash_map_is_flagged() {
        let src = "use rustc_hash::FxHashMap;\nstruct S { switches: FxHashMap<u32, u32> }\nimpl S {\n    fn poll(&self) -> Vec<u32> {\n        self.switches\n            .values()\n            .copied()\n            .collect()\n    }\n}\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::UnorderedIter);
        assert_eq!(fs[0].line, 6);
    }

    #[test]
    fn float_eq_against_literal_is_flagged() {
        let src = "fn f(rate_bps: f64) -> bool { rate_bps == 0.0 }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::FloatEq);
    }

    #[test]
    fn integer_eq_is_fine() {
        let src = "fn f(count: u64, phase: u8) -> bool { count == 3 && phase != 1 }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn units_mixing_addition_is_flagged() {
        let src = "fn f(wait_s: f64, delay_ns: f64) -> f64 { wait_s + delay_ns }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::UnitsMixing);
    }

    #[test]
    fn units_mixing_comparison_is_flagged() {
        let src =
            "fn f(sent_bytes: f64, budget_tokens: f64) -> bool { sent_bytes < budget_tokens }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::UnitsMixing);
    }

    #[test]
    fn units_mixing_bytes_over_bps_is_flagged() {
        let src = "fn f(chunk_bytes: f64, link_bps: f64) -> f64 { chunk_bytes / link_bps }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::UnitsMixing);
    }

    #[test]
    fn units_mixing_conversion_call_is_sanctioned() {
        // A `*_secs` conversion call declares its result dimension.
        let src = "fn f(wait_s: f64, delay_ns: u64) -> f64 { wait_s + nanos_to_secs(delay_ns) }\nfn nanos_to_secs(ns: u64) -> f64 { ns as f64 / 1e9 }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn units_mixing_same_dim_is_fine() {
        let src = "fn f(a_s: f64, b_s: f64) -> f64 { a_s + b_s }\nfn g(x_bytes: u64, y_bytes: u64) -> bool { x_bytes < y_bytes }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn units_mixing_literal_is_fine() {
        let src = "fn f(chunk_bytes: f64) -> f64 { chunk_bytes * 8.0 / 1e9 }\nfn g(t_s: f64) -> bool { t_s > 0.5 }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn units_mixing_dim_flows_through_cast() {
        let src = "fn f(bytes: u64, rate_bps: f64) -> f64 { bytes as f64 / rate_bps }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::UnitsMixing);
    }

    #[test]
    fn sim_time_roundtrip_is_flagged() {
        let src = "use hs_des::{SimSpan, SimTime};\nfn f(now: SimTime, dt_s: f64) -> SimTime {\n    SimTime::from_secs_f64(now.as_secs_f64() + dt_s)\n}\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::SimTimeArith);
    }

    #[test]
    fn sim_time_integer_math_is_fine() {
        let src = "use hs_des::{SimSpan, SimTime};\nfn f(now: SimTime, dt_s: f64) -> SimTime {\n    now + SimSpan::from_secs_f64(dt_s)\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn as_secs_for_reporting_is_fine() {
        let src = "use hs_des::SimTime;\nfn f(now: SimTime, started: SimTime) -> f64 {\n    now.saturating_since(started).as_secs_f64()\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn lock_in_sim_field_is_flagged() {
        let src = "struct S { pending: std::sync::Mutex<Vec<u64>> }\n";
        let fs = findings(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::LockInSim);
    }

    #[test]
    fn profile_gating_respected() {
        // Same source, different rule sets: a profile without
        // `lock-in-sim` ignores Mutex but still catches unwrap.
        let src =
            "struct S { m: std::sync::Mutex<u32> }\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let all = lint_file("t.rs", src, Rule::ALL);
        assert_eq!(all.len(), 2);
        let unlocked = lint_file("t.rs", src, &[Rule::Unwrap]);
        assert_eq!(unlocked.len(), 1);
        assert_eq!(unlocked[0].rule, Rule::Unwrap);
    }

    #[test]
    fn report_json_schema_round_trips() {
        let report = WorkspaceReport {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: Rule::UnitsMixing,
                message: "`+` mixes bytes with seconds".into(),
            }],
            files_scanned: 7,
        };
        let text = serde_json::to_string_pretty(&report.to_json()).expect("report serializes");
        let back = serde_json::from_str(&text).expect("report JSON parses");
        assert_eq!(back.get("version").and_then(Value::as_u64), Some(3));
        assert_eq!(back.get("files_scanned").and_then(Value::as_u64), Some(7));
        let fs = back
            .get("findings")
            .and_then(Value::as_array)
            .expect("findings");
        assert_eq!(fs.len(), 1);
        assert_eq!(
            fs[0].get("rule").and_then(Value::as_str),
            Some("units-mixing")
        );
        assert_eq!(fs[0].get("line").and_then(Value::as_u64), Some(3));
        assert_eq!(
            back.get("summary").and_then(|s| s.get("clean")),
            Some(&Value::Bool(false))
        );
    }

    /// The workspace itself must lint clean — the same gate CI runs via
    /// `cargo run -p simlint`.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("simlint lives at <root>/crates/simlint");
        let report = lint_workspace(root).expect("workspace walk succeeds");
        assert!(
            report.is_clean(),
            "workspace has simlint findings:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
