//! `xlint` — workspace-aware static analysis for the iCPDA reproduction.
//!
//! Enforces repo-specific invariants that clippy cannot express:
//!
//! | rule  | name                     | what it flags                                        |
//! |-------|--------------------------|------------------------------------------------------|
//! | XL000 | stale-allowlist          | allowlist entries that matched nothing               |
//! | XL001 | determinism              | `HashMap`/`HashSet`/`Instant`/`SystemTime`/`thread_rng`/`OsRng` in protocol, sim and analysis crates |
//! | XL002 | panic-policy             | `unwrap()` / undocumented `expect()` / `panic!`-family macros / literal-index expressions in library code of `core`, `sim`, `crypto`, `agg` |
//! | XL003 | protocol-exhaustiveness  | message-enum variants never matched in a handler; `*Error` variants never constructed |
//! | XL004 | config-hygiene           | config struct fields never read outside their declaration |
//! | XL005 | forbid-unsafe            | crate roots missing `#![forbid(unsafe_code)]`        |
//! | XL006 | hot-path-alloc           | `.clone()` / `.to_vec()` / `format!` inside the engine's event-dispatch, frame-delivery and per-record trace-rendering functions |
//! | XL007 | secret-flow              | `Debug`/`Display` on `[secrets]` types; any taint path from secret-typed data into a trace/obs/format/CSV sink not routed through a `[secrets].redact` / `.declassify` boundary |
//! | XL008 | nondeterminism-flow      | interprocedural upgrade of XL001: `Instant`/`SystemTime`/thread-id taint reaching simulation state, trace output or results artifacts |
//!
//! XL007/XL008 run on a workspace-level dataflow engine (see [`ir`],
//! [`callgraph`], [`taint`]): every crate's items are lowered to a
//! lightweight IR, a name-resolved cross-crate call graph is built, and a
//! forward may-taint propagation carries secret / host-nondeterministic
//! values through lets, call arguments, returns and struct fields until
//! they reach a sink. Secret types and the sanctioned redaction /
//! declassification boundaries are declared in the `[secrets]` section of
//! `xlint.toml`; stale `[secrets]` entries are reported via XL000 exactly
//! like stale `[[allow]]` entries.
//!
//! Findings carry `file:line` plus a rule ID; legitimate sites are
//! suppressed through the TOML allowlist (`xlint.toml` at the workspace
//! root), where every entry must state a reason. `#[cfg(test)]` regions
//! are exempt from the token rules.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod ir;
pub mod taint;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use syn::{Token, TokenKind};

/// Identifiers whose presence breaks "same seed ⇒ identical trace".
const NONDETERMINISTIC_IDENTS: [&str; 6] = [
    "HashMap",
    "HashSet",
    "Instant",
    "SystemTime",
    "thread_rng",
    "OsRng",
];

/// Macro names in the panic family (`name!` flags).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "unimplemented", "todo"];

/// Crates whose `src/` trees the determinism rule covers (plus the
/// umbrella `src/`). Protocol, simulation, crypto, aggregation,
/// analysis and the experiment harness all feed reproducible traces.
const DETERMINISM_SCOPE: [&str; 9] = [
    "crates/core/src",
    "crates/sim/src",
    "crates/crypto/src",
    "crates/agg/src",
    "crates/analysis/src",
    "crates/bench/src",
    "crates/cli/src",
    "crates/obs/src",
    "src",
];

/// Crates whose library code must not panic (the simulated base
/// station and every node run on these).
const PANIC_SCOPE: [&str; 5] = [
    "crates/core/src",
    "crates/sim/src",
    "crates/crypto/src",
    "crates/agg/src",
    "crates/obs/src",
];

/// Crate roots that must carry `#![forbid(unsafe_code)]`. Each entry is
/// a candidate list: the first path that exists is the root.
const UNSAFE_ROOTS: [&str; 11] = [
    "crates/obs/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/sim/src/lib.rs",
    "crates/crypto/src/lib.rs",
    "crates/agg/src/lib.rs",
    "crates/analysis/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/cli/src/main.rs",
    "crates/xlint/src/lib.rs",
    "crates/xlint/src/main.rs",
    "src/lib.rs",
];

/// The engine's event-dispatch / frame-delivery hot path and the
/// per-record trace rendering path: one entry per file, listing the
/// function bodies XL006 scans. These run once per simulated event (or
/// per receiver), so a single `.clone()` there multiplies into millions
/// of allocations per experiment sweep. A name that matches no `fn` in
/// its file is reported as XL000, so a renamed hot function cannot
/// silently drop out of the scan.
const HOT_PATHS: [(&str, &[&str]); 8] = [
    (
        "crates/sim/src/sim.rs",
        &[
            "schedule",
            "with_ctx",
            "enqueue_frame",
            "handle_mac_attempt",
            "handle_tx_end",
            "initial_jitter",
            "lose",
            "handle_delivery",
            "deliver_frame",
            "dispatch_frame",
            "handle_redelivery",
            "execute",
            "next_event",
            // The packed per-node radio record and the timer bitset.
            "start_tx",
            "admit",
            "delivery_loss",
            "insert",
            "remove",
            "timer_bit",
        ],
    ),
    ("crates/sim/src/app.rs", &["rng"]),
    ("crates/sim/src/metrics.rs", &["lost_mut"]),
    // The calendar queue and frame arena exist precisely to keep the
    // per-event path allocation-free; every method on them is hot.
    (
        "crates/sim/src/calendar.rs",
        &["push", "pop", "peek_key", "maintain"],
    ),
    ("crates/sim/src/arena.rs", &["take", "recycle"]),
    // A full trace renders one `trace.jsonl` line per engine event.
    (
        "crates/sim/src/trace.rs",
        &[
            "record",
            "write_entry_line",
            "write_entry_fields",
            "push_field",
        ],
    ),
    ("crates/obs/src/stream.rs", &["with_line"]),
    ("crates/obs/src/json.rs", &["push_u64"]),
];

/// Where message enums are defined (exhaustiveness rule input).
const MSG_DEF: &str = "crates/core/src/msg.rs";

/// Where config structs are defined (config-hygiene rule input).
const CONFIG_DEFS: [&str; 2] = [
    "crates/core/src/config.rs",
    "crates/core/src/reliability.rs",
];

/// Stable rule identifiers, printed with every finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Stale allowlist entry (matched nothing in this run).
    Xl000,
    /// Nondeterministic collection / clock / RNG.
    Xl001,
    /// Panic-prone construct in library code.
    Xl002,
    /// Protocol / error enum variant not exhaustively handled.
    Xl003,
    /// Config field never read.
    Xl004,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    Xl005,
    /// Per-event allocation in a hot-path function body.
    Xl006,
    /// Secret-typed data flowing into an operator-visible sink.
    Xl007,
    /// Host-nondeterministic value flowing into deterministic output.
    Xl008,
}

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Xl000 => "XL000",
            RuleId::Xl001 => "XL001",
            RuleId::Xl002 => "XL002",
            RuleId::Xl003 => "XL003",
            RuleId::Xl004 => "XL004",
            RuleId::Xl005 => "XL005",
            RuleId::Xl006 => "XL006",
            RuleId::Xl007 => "XL007",
            RuleId::Xl008 => "XL008",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: `path:line` + rule + the offending identifier (the key
/// the allowlist matches on) + a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: RuleId,
    pub path: String,
    pub line: u32,
    pub ident: String,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One `[[allow]]` entry from `xlint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub ident: String,
    pub reason: String,
}

impl AllowEntry {
    fn matches(&self, diag: &Diagnostic) -> bool {
        self.rule == diag.rule.as_str() && self.path == diag.path && self.ident == diag.ident
    }
}

/// Parse `xlint.toml`. Every entry must carry a non-empty `reason`.
pub fn parse_allowlist(src: &str) -> Result<Vec<AllowEntry>, String> {
    let table = toml::from_str(src).map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let Some(allows) = table.get("allow") else {
        return Ok(entries);
    };
    let allows = allows
        .as_array()
        .ok_or_else(|| "`allow` must be an array of tables".to_string())?;
    for (i, entry) in allows.iter().enumerate() {
        let get = |key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(toml::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("allow entry #{} is missing `{key}`", i + 1))
        };
        let reason = get("reason")?;
        if reason.trim().is_empty() {
            return Err(format!("allow entry #{} has an empty `reason`", i + 1));
        }
        entries.push(AllowEntry {
            rule: get("rule")?,
            path: get("path")?,
            ident: get("ident")?,
            reason,
        });
    }
    Ok(entries)
}

/// The `[secrets]` section of `xlint.toml`: the secret-type universe and
/// the sanctioned taint barriers for XL007.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Secrets {
    /// Type names whose values are key material / shares (taint sources).
    pub types: Vec<String>,
    /// Redaction functions: outputs derived through them are sanctioned.
    pub redact: Vec<String>,
    /// Declassification boundaries: protocol-public derivations of secret
    /// inputs (wire encodings, recovered aggregates, scheme statistics).
    pub declassify: Vec<String>,
}

/// Full parsed `xlint.toml`: `[[allow]]` entries plus `[secrets]`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    pub allow: Vec<AllowEntry>,
    pub secrets: Secrets,
}

/// Parse the complete `xlint.toml` (allowlist + `[secrets]`).
pub fn parse_config(src: &str) -> Result<LintConfig, String> {
    let allow = parse_allowlist(src)?;
    let table = toml::from_str(src).map_err(|e| e.to_string())?;
    let mut secrets = Secrets::default();
    if let Some(s) = table.get("secrets") {
        let list = |key: &str| -> Result<Vec<String>, String> {
            match s.get(key) {
                None => Ok(Vec::new()),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| format!("`secrets.{key}` must be an array of strings"))?
                    .iter()
                    .map(|x| {
                        x.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("`secrets.{key}` must contain strings"))
                    })
                    .collect(),
            }
        };
        secrets.types = list("types")?;
        secrets.redact = list("redact")?;
        secrets.declassify = list("declassify")?;
    }
    Ok(LintConfig { allow, secrets })
}

/// A lexed + lightly-parsed source file ready for rule checks.
pub struct ScannedFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
    pub items: syn::File,
}

impl ScannedFile {
    pub fn parse(rel: &str, src: &str) -> Result<Self, String> {
        let tokens = syn::tokenize(src).map_err(|e| format!("{rel}: {e}"))?;
        let test_ranges = test_line_ranges(&tokens);
        let items = syn::parse_file(src).map_err(|e| format!("{rel}: {e}"))?;
        Ok(Self {
            rel: rel.to_string(),
            tokens,
            test_ranges,
            items,
        })
    }

    /// True when `line` sits inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }
}

/// Compute the inclusive line ranges of `#[cfg(test)]` items by
/// scanning for the attribute and brace-matching the item that follows.
fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
                               // Skip any further attributes between `#[cfg(test)]` and the item.
            while tokens.get(j).is_some_and(|t| t.is_punct("#")) {
                j += 1;
                if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is_punct("[")) {
                    let mut depth = 1u32;
                    j += 1;
                    while j < tokens.len() && depth > 0 {
                        if tokens[j].is_punct("[") {
                            depth += 1;
                        } else if tokens[j].is_punct("]") {
                            depth -= 1;
                        }
                        j += 1;
                    }
                }
            }
            // Consume the annotated item: up to `;` or a balanced `{...}`.
            let mut end_line = start_line;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct(";") {
                    end_line = t.line;
                    j += 1;
                    break;
                }
                if t.is_punct("{") {
                    let mut depth = 1u32;
                    j += 1;
                    while j < tokens.len() && depth > 0 {
                        if tokens[j].is_punct("{") {
                            depth += 1;
                        } else if tokens[j].is_punct("}") {
                            depth -= 1;
                        }
                        end_line = tokens[j].line;
                        j += 1;
                    }
                    break;
                }
                end_line = t.line;
                j += 1;
            }
            ranges.push((start_line, end_line));
            i = j;
        } else {
            i += 1;
        }
    }
    ranges
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct("#"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && tokens.get(i + 5).is_some_and(|t| t.is_punct(")"))
        && tokens.get(i + 6).is_some_and(|t| t.is_punct("]"))
}

/// XL001: nondeterministic collections, clocks and RNGs.
///
/// With `include_clocks = false` (the bench harness, whose whole purpose
/// is host timing), `Instant`/`SystemTime` are exempt from the blanket
/// ban — XL008's flow analysis proves instead that their values never
/// reach deterministic output.
pub fn check_determinism(file: &ScannedFile, include_clocks: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for tok in &file.tokens {
        if tok.kind == TokenKind::Ident
            && NONDETERMINISTIC_IDENTS.contains(&tok.text.as_str())
            && (include_clocks || !matches!(tok.text.as_str(), "Instant" | "SystemTime"))
            && !file.is_test_line(tok.line)
        {
            out.push(Diagnostic {
                rule: RuleId::Xl001,
                path: file.rel.clone(),
                line: tok.line,
                ident: tok.text.clone(),
                message: format!(
                    "`{}` is hasher/clock/OS-entropy dependent and breaks \
                     `same seed => identical trace`; use an ordered collection \
                     or the seeded simulation clock/RNG",
                    tok.text
                ),
            });
        }
    }
    out
}

/// XL002: panic-prone constructs in library code. `.expect("invariant: ...")`
/// is accepted as a documented invariant message.
pub fn check_panic_policy(file: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let tok = &toks[i];
        if file.is_test_line(tok.line) {
            continue;
        }
        // `panic!` / `unreachable!` / `unimplemented!` / `todo!`
        if tok.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&tok.text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
        {
            out.push(Diagnostic {
                rule: RuleId::Xl002,
                path: file.rel.clone(),
                line: tok.line,
                ident: "panic".to_string(),
                message: format!(
                    "`{}!` in library code aborts the whole simulation; \
                     return a typed error or restructure",
                    tok.text
                ),
            });
            continue;
        }
        if !tok.is_punct(".") {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if !toks.get(i + 2).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        if name.is_ident("unwrap") {
            out.push(Diagnostic {
                rule: RuleId::Xl002,
                path: file.rel.clone(),
                line: name.line,
                ident: "unwrap".to_string(),
                message: "`.unwrap()` in library code; return a typed error \
                          or use a documented `.expect(\"invariant: ...\")`"
                    .to_string(),
            });
        } else if name.is_ident("expect") {
            let documented = toks
                .get(i + 3)
                .is_some_and(|t| t.kind == TokenKind::StrLit && t.text.starts_with("\"invariant:"));
            if !documented {
                out.push(Diagnostic {
                    rule: RuleId::Xl002,
                    path: file.rel.clone(),
                    line: name.line,
                    ident: "expect".to_string(),
                    message: "`.expect()` without an `\"invariant: ...\"` message; \
                              document why this cannot fail or return a typed error"
                        .to_string(),
                });
            }
        }
    }
    // Literal-index expressions: `x[0]`, `x[&0]` in postfix position.
    for i in 0..toks.len() {
        if !toks[i].is_punct("[") || file.is_test_line(toks[i].line) {
            continue;
        }
        let postfix = i > 0
            && match &toks[i - 1] {
                t if t.is_punct(")") || t.is_punct("]") => true,
                t if t.kind == TokenKind::Ident => !matches!(
                    t.text.as_str(),
                    "return" | "break" | "in" | "if" | "else" | "match" | "mut"
                ),
                _ => false,
            };
        if !postfix {
            continue;
        }
        let lit_at = if toks.get(i + 1).is_some_and(|t| t.is_punct("&")) {
            i + 2
        } else {
            i + 1
        };
        if toks
            .get(lit_at)
            .is_some_and(|t| t.kind == TokenKind::NumLit)
            && toks.get(lit_at + 1).is_some_and(|t| t.is_punct("]"))
        {
            out.push(Diagnostic {
                rule: RuleId::Xl002,
                path: file.rel.clone(),
                line: toks[i].line,
                ident: "index".to_string(),
                message: "literal index can panic out of bounds; use `.get()`, \
                          `.first()` or a slice pattern"
                    .to_string(),
            });
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

/// XL005: crate roots must lock in `#![forbid(unsafe_code)]`.
pub fn check_forbid_unsafe(file: &ScannedFile) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let found = (0..toks.len()).any(|i| {
        toks.get(i).is_some_and(|t| t.is_punct("#"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(")"))
            && toks.get(i + 7).is_some_and(|t| t.is_punct("]"))
    });
    if found {
        Vec::new()
    } else {
        vec![Diagnostic {
            rule: RuleId::Xl005,
            path: file.rel.clone(),
            line: 1,
            ident: "forbid_unsafe".to_string(),
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        }]
    }
}

/// XL006: no per-event allocation inside hot-path function bodies.
///
/// Finds every `fn <name>` where `<name>` is in `hot_fns`, brace-matches
/// the body, and flags `.clone()`, `.to_vec()` and `format!` tokens
/// inside it. The path-call spelling `Arc::clone(&x)` / `Rc::clone(&x)`
/// deliberately escapes the `.clone()` ban: it is the workspace
/// convention for marking a refcount bump that is known to be cheap,
/// while the method spelling hides deep copies.
pub fn check_hot_path_alloc(file: &ScannedFile, hot_fns: &[&str]) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let hot = toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && hot_fns.contains(&t.text.as_str()))
            && !file.is_test_line(toks[i].line);
        if !hot {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // Skip the signature (which cannot contain `{`) to the body's
        // opening brace, then walk the balanced body.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct("{") {
            j += 1;
        }
        let mut depth = 0u32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.kind == TokenKind::Ident {
                let method_call = |name: &str| {
                    t.is_ident(name)
                        && j > 0
                        && toks[j - 1].is_punct(".")
                        && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                };
                let (ident, message) = if method_call("clone") {
                    (
                        "clone",
                        format!(
                            "`.clone()` in hot-path fn `{fn_name}` allocates per event; \
                             borrow instead, or spell a deliberate refcount bump \
                             `Arc::clone(&x)`"
                        ),
                    )
                } else if method_call("to_vec") {
                    (
                        "to_vec",
                        format!(
                            "`.to_vec()` in hot-path fn `{fn_name}` copies a buffer per \
                             event; iterate by index or borrow the slice"
                        ),
                    )
                } else if t.is_ident("format") && toks.get(j + 1).is_some_and(|n| n.is_punct("!")) {
                    (
                        "format",
                        format!(
                            "`format!` in hot-path fn `{fn_name}` heap-allocates a string \
                             per event; gate it behind a trace-level check or precompute"
                        ),
                    )
                } else {
                    j += 1;
                    continue;
                };
                out.push(Diagnostic {
                    rule: RuleId::Xl006,
                    path: file.rel.clone(),
                    line: t.line,
                    ident: ident.to_string(),
                    message,
                });
            }
            j += 1;
        }
        i = j;
    }
    out
}

/// XL000 (hot-path list): every name `hot_fns` lists for `file` must
/// match a `fn` outside `#[cfg(test)]` code there; a stale name would
/// otherwise drop out of the XL006 scan without a trace.
pub fn check_hot_path_names(file: &ScannedFile, hot_fns: &[&str]) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let defined = |name: &str| {
        (0..toks.len().saturating_sub(1)).any(|i| {
            toks[i].is_ident("fn") && toks[i + 1].is_ident(name) && !file.is_test_line(toks[i].line)
        })
    };
    hot_fns
        .iter()
        .filter(|name| !defined(name))
        .map(|name| Diagnostic {
            rule: RuleId::Xl000,
            path: file.rel.clone(),
            line: 0,
            ident: (*name).to_string(),
            message: format!(
                "stale hot-path entry `{name}` matches no fn in {} — update HOT_PATHS \
                 in crates/xlint/src/lib.rs",
                file.rel
            ),
        })
        .collect()
}

/// True when `corpus` contains the qualified path `enum_name::variant`
/// outside `#[cfg(test)]` regions, optionally excluding one file.
fn qualified_use_exists(
    corpus: &[&ScannedFile],
    enum_name: &str,
    variant: &str,
    exclude_rel: Option<&str>,
) -> bool {
    corpus.iter().any(|file| {
        if exclude_rel == Some(file.rel.as_str()) {
            return false;
        }
        let toks = &file.tokens;
        (0..toks.len()).any(|i| {
            toks[i].is_ident(enum_name)
                && toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
                && toks.get(i + 3).is_some_and(|t| t.is_ident(variant))
                && !file.is_test_line(toks[i].line)
        })
    })
}

fn collect_enums(items: &[syn::Item], in_test: bool, out: &mut Vec<(bool, syn::ItemEnum)>) {
    for item in items {
        match item {
            syn::Item::Enum(e) => out.push((in_test, e.clone())),
            syn::Item::Mod(m) => collect_enums(&m.items, in_test || m.cfg_test, out),
            syn::Item::Struct(_) => {}
        }
    }
}

fn collect_structs(items: &[syn::Item], in_test: bool, out: &mut Vec<(bool, syn::ItemStruct)>) {
    for item in items {
        match item {
            syn::Item::Struct(s) => out.push((in_test, s.clone())),
            syn::Item::Mod(m) => collect_structs(&m.items, in_test || m.cfg_test, out),
            syn::Item::Enum(_) => {}
        }
    }
}

/// XL003 (messages): every enum variant defined in the message module
/// must appear as a qualified `Enum::Variant` path somewhere else in
/// the workspace — i.e. some handler matches or constructs it.
pub fn check_msg_exhaustiveness(def: &ScannedFile, corpus: &[&ScannedFile]) -> Vec<Diagnostic> {
    let mut enums = Vec::new();
    collect_enums(&def.items.items, false, &mut enums);
    let mut out = Vec::new();
    for (in_test, e) in &enums {
        if *in_test {
            continue;
        }
        for v in &e.variants {
            if !qualified_use_exists(corpus, &e.ident, &v.ident, Some(&def.rel)) {
                out.push(Diagnostic {
                    rule: RuleId::Xl003,
                    path: def.rel.clone(),
                    line: v.line,
                    ident: format!("{}::{}", e.ident, v.ident),
                    message: format!(
                        "message variant `{}::{}` is never matched outside its \
                         definition — a silently-dropped message kind",
                        e.ident, v.ident
                    ),
                });
            }
        }
    }
    out
}

/// XL003 (errors): every variant of an enum whose name ends in `Error`
/// must be constructed (appear as `Name::Variant`) somewhere.
pub fn check_error_variants(corpus: &[&ScannedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in corpus {
        let mut enums = Vec::new();
        collect_enums(&file.items.items, false, &mut enums);
        for (in_test, e) in &enums {
            if *in_test || !e.ident.ends_with("Error") {
                continue;
            }
            for v in &e.variants {
                if !qualified_use_exists(corpus, &e.ident, &v.ident, None) {
                    out.push(Diagnostic {
                        rule: RuleId::Xl003,
                        path: file.rel.clone(),
                        line: v.line,
                        ident: format!("{}::{}", e.ident, v.ident),
                        message: format!(
                            "error variant `{}::{}` is never constructed — \
                             dead error surface",
                            e.ident, v.ident
                        ),
                    });
                }
            }
        }
    }
    out
}

/// XL004: every field of the config structs must be read (appear as
/// `.field`) at least once outside its declaration.
pub fn check_config_hygiene(def: &ScannedFile, corpus: &[&ScannedFile]) -> Vec<Diagnostic> {
    let mut structs = Vec::new();
    collect_structs(&def.items.items, false, &mut structs);
    let mut out = Vec::new();
    for (in_test, s) in &structs {
        if *in_test {
            continue;
        }
        for field in &s.fields {
            let read = corpus.iter().any(|file| {
                let toks = &file.tokens;
                (0..toks.len()).any(|i| {
                    toks[i].is_punct(".")
                        && toks.get(i + 1).is_some_and(|t| t.is_ident(&field.ident))
                        && !toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
                        && !file.is_test_line(toks[i].line)
                })
            });
            if !read {
                out.push(Diagnostic {
                    rule: RuleId::Xl004,
                    path: def.rel.clone(),
                    line: field.line,
                    ident: format!("{}.{}", s.ident, field.ident),
                    message: format!(
                        "config field `{}.{}` is never read by any experiment \
                         or protocol path — dead configuration",
                        s.ident, field.ident
                    ),
                });
            }
        }
    }
    out
}

/// XL007 sinks: functions that record into traces, obs exports, results
/// artifacts or rendered tables — anywhere an operator could read a value.
const XL007_SINK_FNS: [&str; 14] = [
    "record",
    "trace_note",
    "row",
    "write_csv",
    "write_svg",
    "write_span_line",
    "spans_jsonl",
    "metrics_jsonl",
    "span_start",
    "span_end",
    "observe",
    "inc",
    "add",
    "gauge_set",
];

/// XL007 sinks: every string-formatting macro (secret in a string is a
/// secret in a log line or error display).
const XL007_SINK_MACROS: [&str; 7] = [
    "format", "write", "writeln", "print", "println", "eprint", "eprintln",
];

/// XL008 sinks: simulation state, trace output and the byte-compared
/// deterministic artifacts (results CSVs/SVGs, obs JSONL, figure stdout).
/// `eprintln`/`format` are deliberately absent — stderr and string
/// building are operator channels, not determinism-gated outputs.
const XL008_SINK_FNS: [&str; 16] = [
    "record",
    "trace_note",
    "schedule",
    "set_timer",
    "row",
    "write_csv",
    "write_svg",
    "write_span_line",
    "spans_jsonl",
    "metrics_jsonl",
    "span_start",
    "span_end",
    "observe",
    "inc",
    "add",
    "gauge_set",
];

/// XL008 sinks: figure stdout is byte-compared across thread counts.
const XL008_SINK_MACROS: [&str; 2] = ["print", "println"];

/// XL008 sources: host clocks and thread identity.
const XL008_SOURCE_TYPES: [&str; 3] = ["Instant", "SystemTime", "ThreadId"];

/// Build the dataflow IR for `files` and run the XL007/XL008 taint rules
/// plus the XL007 declaration checks. Exposed for the fixture suite.
pub fn dataflow_diagnostics(files: &[&ScannedFile], secrets: &Secrets) -> Vec<Diagnostic> {
    let barriers: BTreeSet<String> = secrets
        .redact
        .iter()
        .chain(secrets.declassify.iter())
        .cloned()
        .collect();
    let ws_ir = ir::build(files, &barriers);
    let cg = callgraph::CallGraph::build(&ws_ir);
    let mut out = Vec::new();
    if !secrets.types.is_empty() {
        let secret_types: BTreeSet<String> = secrets.types.iter().cloned().collect();
        out.extend(taint::check_secret_decls(&ws_ir, &secret_types));
        let spec = taint::TaintSpec {
            rule: RuleId::Xl007,
            label: "secret-typed data",
            source_types: secret_types.clone(),
            sink_fns: XL007_SINK_FNS.iter().map(|s| s.to_string()).collect(),
            sink_macros: XL007_SINK_MACROS.iter().map(|s| s.to_string()).collect(),
            barriers: barriers.clone(),
            self_tainted_owners: secret_types,
            remedy: "route it through a `[secrets].redact` function or a \
                     declared declassification boundary",
        };
        out.extend(taint::analyze(&ws_ir, &cg, &spec));
    }
    let spec = taint::TaintSpec {
        rule: RuleId::Xl008,
        label: "host-nondeterministic value (clock / thread identity)",
        source_types: XL008_SOURCE_TYPES.iter().map(|s| s.to_string()).collect(),
        sink_fns: XL008_SINK_FNS.iter().map(|s| s.to_string()).collect(),
        sink_macros: XL008_SINK_MACROS.iter().map(|s| s.to_string()).collect(),
        barriers: barriers.clone(),
        self_tainted_owners: BTreeSet::new(),
        remedy: "deterministic outputs must derive only from the seeded \
                 simulation clock/RNG; keep host timings in BENCH_*.json \
                 or stderr",
    };
    out.extend(taint::analyze(&ws_ir, &cg, &spec));
    // Stale `[secrets]` entries: every declared type / barrier must still
    // exist somewhere in the scanned set.
    for t in &secrets.types {
        if !ws_ir.types.iter().any(|ty| &ty.name == t) {
            out.push(stale_secret("types", t));
        }
    }
    for (key, names) in [
        ("redact", &secrets.redact),
        ("declassify", &secrets.declassify),
    ] {
        for n in names {
            if !ws_ir.fns.iter().any(|f| &f.name == n) {
                out.push(stale_secret(key, n));
            }
        }
    }
    out
}

fn stale_secret(key: &str, name: &str) -> Diagnostic {
    Diagnostic {
        rule: RuleId::Xl000,
        path: "xlint.toml".to_string(),
        line: 0,
        ident: format!("secrets.{key}:{name}"),
        message: format!(
            "stale `[secrets].{key}` entry `{name}` names no existing \
             {} — remove it or fix the name",
            if key == "types" { "type" } else { "function" }
        ),
    }
}

/// Everything a full run produces.
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub suppressed: usize,
}

/// Recursively collect `.rs` files under `dir`, workspace-relative,
/// sorted for deterministic output.
fn collect_rs_files(root: &Path, rel_dir: &str, out: &mut BTreeSet<String>) {
    let dir = root.join(rel_dir);
    let Ok(entries) = fs::read_dir(&dir) else {
        return;
    };
    let mut names: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    names.sort();
    for path in names {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = format!("{rel_dir}/{name}");
        if path.is_dir() {
            collect_rs_files(root, &rel, out);
        } else if name.ends_with(".rs") {
            out.insert(rel);
        }
    }
}

/// Run every rule over the workspace rooted at `root`, applying the
/// allowlist. `config` is the parsed content of `xlint.toml`.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<LintReport, String> {
    let allowlist = &config.allow;
    // Discover and parse every in-scope file once.
    let mut rels = BTreeSet::new();
    for dir in DETERMINISM_SCOPE {
        collect_rs_files(root, dir, &mut rels);
    }
    for rel in UNSAFE_ROOTS {
        if root.join(rel).is_file() {
            rels.insert(rel.to_string());
        }
    }
    let mut files = Vec::new();
    for rel in &rels {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        files.push(ScannedFile::parse(rel, &src)?);
    }
    let by_rel = |rel: &str| files.iter().find(|f| f.rel == rel);
    let in_scope = |scopes: &[&str], rel: &str| {
        scopes
            .iter()
            .any(|s| rel.starts_with(&format!("{s}/")) || rel == *s)
    };

    let mut raw = Vec::new();
    for file in &files {
        if in_scope(&DETERMINISM_SCOPE, &file.rel) {
            // The bench harness is exempt from the blanket clock ban:
            // XL008 proves at flow level that host time never reaches
            // deterministic output there.
            let include_clocks = !file.rel.starts_with("crates/bench/src");
            raw.extend(check_determinism(file, include_clocks));
        }
        if in_scope(&PANIC_SCOPE, &file.rel) {
            raw.extend(check_panic_policy(file));
        }
        if UNSAFE_ROOTS.contains(&file.rel.as_str()) {
            raw.extend(check_forbid_unsafe(file));
        }
    }
    let corpus: Vec<&ScannedFile> = files.iter().collect();
    if let Some(def) = by_rel(MSG_DEF) {
        raw.extend(check_msg_exhaustiveness(def, &corpus));
    } else {
        return Err(format!("message definitions not found at {MSG_DEF}"));
    }
    for rel in CONFIG_DEFS {
        match by_rel(rel) {
            Some(def) => raw.extend(check_config_hygiene(def, &corpus)),
            None => return Err(format!("config definitions not found at {rel}")),
        }
    }
    raw.extend(check_error_variants(&corpus));
    raw.extend(dataflow_diagnostics(&corpus, &config.secrets));
    for (rel, fns) in HOT_PATHS {
        match by_rel(rel) {
            Some(file) => {
                raw.extend(check_hot_path_alloc(file, fns));
                raw.extend(check_hot_path_names(file, fns));
            }
            None => return Err(format!("hot-path file not found at {rel}")),
        }
    }

    // Apply the allowlist; unused entries become XL000 findings so the
    // allowlist cannot silently rot.
    let mut used = vec![false; allowlist.len()];
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for diag in raw {
        match allowlist.iter().position(|a| a.matches(&diag)) {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => diagnostics.push(diag),
        }
    }
    for (i, entry) in allowlist.iter().enumerate() {
        if !used[i] {
            diagnostics.push(Diagnostic {
                rule: RuleId::Xl000,
                path: "xlint.toml".to_string(),
                line: 0,
                ident: format!("{}:{}:{}", entry.rule, entry.path, entry.ident),
                message: format!(
                    "stale allowlist entry ({} / {} / {}) matched nothing — remove it",
                    entry.rule, entry.path, entry.ident
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.ident).cmp(&(b.rule, &b.path, b.line, &b.ident))
    });
    Ok(LintReport {
        diagnostics,
        files_scanned: files.len(),
        suppressed,
    })
}

/// Minimal JSON string escaping for diagnostic output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array (one object per finding).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"ident\":\"{}\",\"message\":\"{}\"}}",
            d.rule,
            json_escape(&d.path),
            d.line,
            json_escape(&d.ident),
            json_escape(&d.message)
        ));
    }
    out.push(']');
    out
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
