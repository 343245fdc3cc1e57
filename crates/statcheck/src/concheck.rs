//! The concurrency-discipline pass (`fidelity concheck`).
//!
//! The campaign engine's concurrency substrate — the `fidelity-par`
//! claim-counter loop, the serve supervisor/queue, and the `obs` metrics
//! registry — is hand-rolled, and a single lost or duplicated injection
//! silently corrupts FIT rates. This pass statically enforces the lock and
//! atomics discipline those protocols rely on; its dynamic complement is
//! the vendored loom-style model checker (`crates/compat/loom`).
//!
//! Rules:
//! - `lock-cycle` — a lock-acquisition-order cycle across the analyzed
//!   files (including acquiring a lock while already holding a lock of the
//!   same name). Lock identity is the last field/binding name of the
//!   receiver path (`self.jobs.lock()` and `lock(&self.jobs)` are both
//!   lock `jobs`), so a cycle here means "some instances of these locks
//!   can deadlock".
//! - `relaxed-flag` — a `Relaxed` atomic load driving a control-flow
//!   decision (`if`/`while` condition). Cross-thread control flow must use
//!   `Acquire`/`Release` (or justify the relaxation with an allow).
//! - `poison-unwrap` — `.lock().unwrap()` / `.lock().expect(...)`
//!   propagates poison: one panicked holder permanently wedges every
//!   later caller. Use `unwrap_or_else(PoisonError::into_inner)`.
//! - `block-under-lock` — blocking I/O, `join()`, `recv()`, or `sleep`
//!   while a `MutexGuard` is held, stalling every contender.
//!
//! The pass also classifies every atomic call site as counter
//! (`fetch_add`/`fetch_sub`), flag (`load`/`store`), or handoff
//! (`swap`/`compare_exchange`/`fetch_or`) for the report summary.
//!
//! Suppression follows the lint protocol: `// statcheck:allow(<rule>)` on
//! the finding's line or the line directly above, with a justification.
//! An allowed `lock-cycle` edge is removed from the order graph entirely
//! (the ordering exception is justified, so its partner edges stay clean).
//!
//! Like the lint, the analysis is token-level and intraprocedural: lock
//! guards are tracked from acquisition to scope end / `drop` / statement
//! end, and blocking calls hidden behind helper functions (e.g. journal
//! writes inside a method) are not seen at the call site.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::lint::{collect_rs_files, in_ranges, test_module_lines};

/// A concurrency-discipline rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConRule {
    /// Lock-acquisition-order cycle (potential deadlock).
    LockCycle,
    /// `Relaxed` load in a branch condition (cross-thread control flow).
    RelaxedFlag,
    /// `.lock().unwrap()` — poison propagation wedges the process.
    PoisonUnwrap,
    /// Blocking operation while holding a `MutexGuard`.
    BlockUnderLock,
}

impl ConRule {
    /// All rules, in reporting order.
    pub const ALL: [ConRule; 4] = [
        ConRule::LockCycle,
        ConRule::RelaxedFlag,
        ConRule::PoisonUnwrap,
        ConRule::BlockUnderLock,
    ];

    /// The stable name used in reports and `statcheck:allow(...)` lists.
    pub fn name(self) -> &'static str {
        match self {
            ConRule::LockCycle => "lock-cycle",
            ConRule::RelaxedFlag => "relaxed-flag",
            ConRule::PoisonUnwrap => "poison-unwrap",
            ConRule::BlockUnderLock => "block-under-lock",
        }
    }
}

impl fmt::Display for ConRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One concurrency finding.
#[derive(Clone, Debug)]
pub struct ConFinding {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: ConRule,
    /// What was matched, including the held lock-set where relevant.
    pub matched: String,
}

impl fmt::Display for ConFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.matched
        )
    }
}

/// One lock-order edge: lock `from` was held while `to` was acquired.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Held lock.
    pub from: String,
    /// Acquired lock.
    pub to: String,
    /// Witness site.
    pub path: PathBuf,
    /// Witness line (the acquisition of `to`).
    pub line: usize,
    /// Enclosing function name.
    pub function: String,
    /// Whether a `statcheck:allow(lock-cycle)` covers the witness.
    pub allowed: bool,
}

/// Atomic call sites by classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AtomicSites {
    /// `fetch_add` / `fetch_sub` — statistics and refcounts.
    pub counters: usize,
    /// `load` / `store` — cross-thread flags and published values.
    pub flags: usize,
    /// `swap` / `compare_exchange*` / `fetch_or` — ownership handoff.
    pub handoffs: usize,
}

impl AtomicSites {
    fn add(&mut self, other: AtomicSites) {
        self.counters += other.counters;
        self.flags += other.flags;
        self.handoffs += other.handoffs;
    }

    /// Total classified sites.
    pub fn total(&self) -> usize {
        self.counters + self.flags + self.handoffs
    }
}

/// Per-file analysis result; aggregated by [`concheck_paths`].
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Local findings (everything except `lock-cycle`), allows applied.
    pub findings: Vec<ConFinding>,
    /// Lock-order edges observed in this file.
    pub edges: Vec<LockEdge>,
    /// Atomic site classification counts.
    pub atomics: AtomicSites,
    /// Functions analyzed.
    pub functions: usize,
}

/// Workspace-level report of [`concheck_paths`].
#[derive(Clone, Debug, Default)]
pub struct ConcheckReport {
    /// All findings (lock-cycle included), in path order.
    pub findings: Vec<ConFinding>,
    /// Atomic site classification counts.
    pub atomics: AtomicSites,
    /// Functions analyzed.
    pub functions: usize,
    /// Distinct lock names seen.
    pub locks: usize,
    /// Distinct lock-order edges (allowed ones excluded).
    pub edges: usize,
}

/// Concheck configuration.
#[derive(Clone, Debug)]
pub struct ConcheckConfig {
    /// Whether to skip `#[cfg(test)]` modules (tests may hold locks across
    /// blocking asserts freely).
    pub skip_test_modules: bool,
}

impl Default for ConcheckConfig {
    fn default() -> Self {
        ConcheckConfig {
            skip_test_modules: true,
        }
    }
}

/// How long an acquired lock stays held in the intraprocedural model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Until {
    /// Let-bound guard: until the enclosing block (opened at depth `d`)
    /// closes, i.e. while `depth >= d`.
    Scope(usize),
    /// Statement temporary: until the next `;` at the acquisition depth.
    Semi(usize),
    /// `if`/`while` condition temporary: until the block `{` opens.
    CondEnd,
}

#[derive(Clone, Debug)]
struct Held {
    name: String,
    binding: Option<String>,
    until: Until,
}

/// Extracts `(line, rule)` pairs from `statcheck:allow(...)` comments for
/// the concurrency rules (same comment syntax as the lint).
fn collect_allows(tokens: &[Token]) -> Vec<(usize, ConRule)> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let Some(idx) = t.text.find("statcheck:allow(") else {
            continue;
        };
        let rest = &t.text[idx + "statcheck:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        for name in rest[..close].split(',') {
            let name = name.trim();
            if let Some(rule) = ConRule::ALL.iter().find(|r| r.name() == name) {
                out.push((t.line, *rule));
            }
        }
    }
    out
}

fn allowed(allows: &[(usize, ConRule)], rule: ConRule, line: usize) -> bool {
    allows
        .iter()
        .any(|(l, r)| *r == rule && (*l == line || *l + 1 == line))
}

/// Function body extents over the significant-token stream:
/// `(name, open_brace_idx, close_brace_idx)`.
fn function_bodies(sig: &[&Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if !(sig[i].is_ident("fn") && sig.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)) {
            i += 1;
            continue;
        }
        let name = sig[i + 1].text.clone();
        // Find the body `{` (or `;` for a trait method declaration).
        let mut j = i + 2;
        let mut body = None;
        while j < sig.len() {
            if sig[j].is_punct(";") {
                break;
            }
            if sig[j].is_punct("{") {
                body = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j + 1;
            continue;
        };
        let mut depth = 0isize;
        let mut close = open;
        while close < sig.len() {
            if sig[close].is_punct("{") {
                depth += 1;
            } else if sig[close].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        out.push((name, open, close.min(sig.len().saturating_sub(1))));
        // Nested fns are analyzed as part of the enclosing body.
        i = close + 1;
    }
    out
}

/// The lock identity of an acquisition ending at `sig[dot]` (the `.` of
/// `.lock()`): the last field name of the receiver path, or the callee name
/// for `f().lock()` receivers. Returns `None` for std stream locks.
fn receiver_lock_name(sig: &[&Token], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = sig[dot - 1];
    if prev.kind == TokenKind::Ident {
        if matches!(prev.text.as_str(), "self") {
            return Some("self".to_string());
        }
        return Some(prev.text.clone());
    }
    if prev.is_punct(")") {
        // `f(...).lock()` — match back to the `(` and take the callee.
        let mut depth = 0isize;
        let mut k = dot - 1;
        loop {
            if sig[k].is_punct(")") {
                depth += 1;
            } else if sig[k].is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        let callee = sig.get(k.wrapping_sub(1))?;
        if matches!(callee.text.as_str(), "stderr" | "stdout" | "stdin") {
            return None;
        }
        if callee.kind == TokenKind::Ident {
            return Some(callee.text.clone());
        }
    }
    None
}

/// The lock identity of a `lock(&...)` / `lock_inner(&...)` helper call:
/// the last identifier of the argument path. `lock_registry()` is the
/// registry lock.
fn helper_lock_name(sig: &[&Token], callee: usize) -> Option<String> {
    if sig[callee].is_ident("lock_registry") {
        return Some("registry".to_string());
    }
    let mut k = callee + 2; // past the `(`
    let mut last = None;
    let mut depth = 1isize;
    while k < sig.len() {
        if sig[k].is_punct("(") {
            depth += 1;
        } else if sig[k].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if sig[k].kind == TokenKind::Ident && depth == 1 {
            last = Some(sig[k].text.clone());
        }
        k += 1;
    }
    last
}

/// The token index starting the statement containing `sig[at]`: the token
/// after the closest preceding `;`, `{`, or `}` (bounded below by `floor`).
fn statement_start(sig: &[&Token], at: usize, floor: usize) -> usize {
    let mut k = at;
    while k > floor {
        let t = sig[k - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return k;
        }
        k -= 1;
    }
    floor
}

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Whether the call whose `(` is at `sig[open]` mentions an atomic
/// `Ordering` before its matching `)`; returns the orderings seen.
fn call_orderings(sig: &[&Token], open: usize) -> Vec<String> {
    let mut depth = 0isize;
    let mut k = open;
    let mut found = Vec::new();
    while k < sig.len() {
        if sig[k].is_punct("(") {
            depth += 1;
        } else if sig[k].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if sig[k].kind == TokenKind::Ident && ORDERINGS.contains(&sig[k].text.as_str()) {
            found.push(sig[k].text.clone());
        }
        k += 1;
    }
    found
}

fn lock_set(held: &[Held]) -> String {
    let names: Vec<&str> = held.iter().map(|h| h.name.as_str()).collect();
    format!("{{{}}}", names.join(", "))
}

/// Analyzes one source file; `lock-cycle` edges are returned for the
/// caller to aggregate across files.
pub fn concheck_source(path: &Path, src: &str, config: &ConcheckConfig) -> FileAnalysis {
    let tokens = lex(src);
    let allows = collect_allows(&tokens);
    let test_lines = if config.skip_test_modules {
        test_module_lines(&tokens)
    } else {
        Vec::new()
    };
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();

    let mut analysis = FileAnalysis::default();
    let bodies = function_bodies(&sig);
    analysis.functions = bodies.len();

    for (function, open, close) in bodies {
        analyze_body(
            path,
            &sig,
            &function,
            open,
            close,
            &allows,
            &test_lines,
            &mut analysis,
        );
    }
    analysis
}

/// Walks one function body tracking held guards, emitting local findings
/// and lock-order edges.
#[allow(clippy::too_many_arguments)]
fn analyze_body(
    path: &Path,
    sig: &[&Token],
    function: &str,
    open: usize,
    close: usize,
    allows: &[(usize, ConRule)],
    test_lines: &[(usize, usize)],
    analysis: &mut FileAnalysis,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth: usize = 1; // inside the body `{`
    let mut in_condition = false;

    let emit = |findings: &mut Vec<ConFinding>, rule: ConRule, line: usize, matched: String| {
        if in_ranges(test_lines, line) || allowed(allows, rule, line) {
            return;
        }
        findings.push(ConFinding {
            path: path.to_owned(),
            line,
            rule,
            matched,
        });
    };

    let mut i = open + 1;
    while i < close {
        let t = sig[i];
        if t.is_punct("{") {
            depth += 1;
            in_condition = false;
            held.retain(|h| h.until != Until::CondEnd);
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            held.retain(|h| match h.until {
                Until::Scope(d) => depth >= d,
                Until::Semi(d) => depth >= d,
                Until::CondEnd => true,
            });
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            held.retain(|h| h.until != Until::Semi(depth));
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "if" | "while" => {
                in_condition = true;
            }
            // `drop(g)` / `drop((ga, gb))` releases the named guards.
            "drop" if sig.get(i + 1).is_some_and(|n| n.is_punct("(")) => {
                let mut k = i + 2;
                let mut d = 1isize;
                while k < close && d > 0 {
                    if sig[k].is_punct("(") {
                        d += 1;
                    } else if sig[k].is_punct(")") {
                        d -= 1;
                    } else if sig[k].kind == TokenKind::Ident {
                        let name = &sig[k].text;
                        held.retain(|h| h.binding.as_ref() != Some(name));
                    }
                    k += 1;
                }
            }
            // Acquisitions: `recv.lock()` method form.
            "lock"
                if i > 0
                    && sig[i - 1].is_punct(".")
                    && sig.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && sig.get(i + 2).is_some_and(|n| n.is_punct(")")) =>
            {
                // Poison propagation: `.lock().unwrap()` / `.expect(...)`.
                if sig.get(i + 3).is_some_and(|n| n.is_punct("."))
                    && sig
                        .get(i + 4)
                        .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                    && receiver_lock_name(sig, i - 1).is_some()
                {
                    emit(
                        &mut analysis.findings,
                        ConRule::PoisonUnwrap,
                        t.line,
                        format!(".lock().{}()", sig[i + 4].text),
                    );
                }
                if let Some(name) = receiver_lock_name(sig, i - 1) {
                    acquire(
                        path,
                        sig,
                        function,
                        i,
                        t.line,
                        name,
                        depth,
                        &mut held,
                        allows,
                        test_lines,
                        in_condition,
                        analysis,
                    );
                }
            }
            // Acquisitions: `lock(&x)` / `lock_inner(&x)` / `lock_registry()`
            // helper form (not a method call).
            "lock" | "lock_inner" | "lock_registry"
                if (i == 0 || !sig[i - 1].is_punct("."))
                    && sig.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                if let Some(name) = helper_lock_name(sig, i) {
                    acquire(
                        path,
                        sig,
                        function,
                        i,
                        t.line,
                        name,
                        depth,
                        &mut held,
                        allows,
                        test_lines,
                        in_condition,
                        analysis,
                    );
                }
            }
            // Atomic classification + relaxed-flag.
            "load"
            | "store"
            | "swap"
            | "fetch_add"
            | "fetch_sub"
            | "fetch_or"
            | "fetch_and"
            | "compare_exchange"
            | "compare_exchange_weak"
                if i > 0
                    && sig[i - 1].is_punct(".")
                    && sig.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                let orderings = call_orderings(sig, i + 1);
                if !orderings.is_empty() {
                    match t.text.as_str() {
                        "fetch_add" | "fetch_sub" => analysis.atomics.counters += 1,
                        "load" | "store" => analysis.atomics.flags += 1,
                        _ => analysis.atomics.handoffs += 1,
                    }
                    if t.text == "load" && in_condition && orderings.iter().any(|o| o == "Relaxed")
                    {
                        emit(
                            &mut analysis.findings,
                            ConRule::RelaxedFlag,
                            t.line,
                            "Relaxed load in branch condition".to_string(),
                        );
                    }
                }
            }
            // Blocking while holding a guard: macro I/O.
            "write" | "writeln" | "print" | "println" | "eprint" | "eprintln"
                if !held.is_empty() && sig.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                emit(
                    &mut analysis.findings,
                    ConRule::BlockUnderLock,
                    t.line,
                    format!("{}! while holding {}", t.text, lock_set(&held)),
                );
            }
            // Blocking while holding a guard: method calls.
            "flush" | "write_all" | "read_to_string" | "sync_all" | "recv" | "recv_timeout"
                if !held.is_empty()
                    && i > 0
                    && sig[i - 1].is_punct(".")
                    && sig.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                emit(
                    &mut analysis.findings,
                    ConRule::BlockUnderLock,
                    t.line,
                    format!(".{}() while holding {}", t.text, lock_set(&held)),
                );
            }
            // `.join()` with no arguments is a thread join; `.join(sep)` is
            // a slice join and harmless.
            "join"
                if !held.is_empty()
                    && i > 0
                    && sig[i - 1].is_punct(".")
                    && sig.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && sig.get(i + 2).is_some_and(|n| n.is_punct(")")) =>
            {
                emit(
                    &mut analysis.findings,
                    ConRule::BlockUnderLock,
                    t.line,
                    format!(".join() while holding {}", lock_set(&held)),
                );
            }
            "sleep" if !held.is_empty() && i > 0 && sig[i - 1].is_punct("::") => {
                emit(
                    &mut analysis.findings,
                    ConRule::BlockUnderLock,
                    t.line,
                    format!("thread::sleep while holding {}", lock_set(&held)),
                );
            }
            _ => {}
        }
        i += 1;
    }
}

/// Records a lock acquisition at `sig[at]`: emits order edges against every
/// held lock and pushes the new guard with its lifetime model.
#[allow(clippy::too_many_arguments)]
fn acquire(
    path: &Path,
    sig: &[&Token],
    function: &str,
    at: usize,
    line: usize,
    name: String,
    depth: usize,
    held: &mut Vec<Held>,
    allows: &[(usize, ConRule)],
    test_lines: &[(usize, usize)],
    in_condition: bool,
    analysis: &mut FileAnalysis,
) {
    if in_ranges(test_lines, line) {
        return;
    }
    for h in held.iter() {
        analysis.edges.push(LockEdge {
            from: h.name.clone(),
            to: name.clone(),
            path: path.to_owned(),
            line,
            function: function.to_string(),
            allowed: allowed(allows, ConRule::LockCycle, line),
        });
    }

    // Guard lifetime: `let [mut] g = <acquisition>;` binds the guard and
    // holds it to scope end — but only when the lock expression (plus
    // `.unwrap`-family adapters) is the *whole* initializer; in
    // `let v = lock(&q).pop_front();` the binding is the popped value and
    // the guard is a statement temporary. A `for`-head temporary lives
    // across the loop body; an `if`/`while` condition temporary dies at
    // the block `{`; anything else dies at the statement's `;`.
    let start = statement_start(sig, at, 0);
    let (binding, until) = if sig[start].is_ident("let") && binds_guard(sig, at) {
        let mut k = start + 1;
        if sig.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let binding = sig
            .get(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone());
        (binding, Until::Scope(depth))
    } else if sig[start].is_ident("for") {
        (None, Until::Scope(depth + 1))
    } else if in_condition {
        (None, Until::CondEnd)
    } else {
        (None, Until::Semi(depth))
    };
    held.push(Held {
        name,
        binding,
        until,
    });
}

/// Index just past the matching `)` of the call whose `(` is at `open`.
fn skip_call(sig: &[&Token], open: usize) -> usize {
    let mut depth = 0isize;
    let mut k = open;
    while k < sig.len() {
        if sig[k].is_punct("(") {
            depth += 1;
        } else if sig[k].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Whether a `let` statement binds the *guard* of the acquisition at
/// `sig[at]`: the lock call, plus any `.unwrap()` / `.expect(...)` /
/// `.unwrap_or_else(...)` adapters, must be the entire initializer
/// (terminated by `;`). Further method calls mean the guard is a
/// statement temporary and only the call's result is bound.
fn binds_guard(sig: &[&Token], at: usize) -> bool {
    let mut k = skip_call(sig, at + 1);
    while sig.get(k).is_some_and(|t| t.is_punct("."))
        && sig.get(k + 1).is_some_and(|t| {
            t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
        })
        && sig.get(k + 2).is_some_and(|t| t.is_punct("("))
    {
        k = skip_call(sig, k + 2);
    }
    sig.get(k).is_some_and(|t| t.is_punct(";"))
}

/// Detects lock-order cycles over the non-allowed edges and emits one
/// `lock-cycle` finding per participating edge witness.
fn cycle_findings(edges: &[LockEdge]) -> Vec<ConFinding> {
    // Distinct direction pairs (self-edges are cycles of length 1).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges.iter().filter(|e| !e.allowed) {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };

    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, String, PathBuf, usize)> = BTreeSet::new();
    for e in edges.iter().filter(|e| !e.allowed) {
        // The edge is on a cycle iff its target reaches back to its source.
        if reaches(&e.to, &e.from)
            && reported.insert((e.from.clone(), e.to.clone(), e.path.clone(), e.line))
        {
            out.push(ConFinding {
                path: e.path.clone(),
                line: e.line,
                rule: ConRule::LockCycle,
                matched: format!(
                    "lock order {} -> {} in {}() closes a cycle",
                    e.from, e.to, e.function
                ),
            });
        }
    }
    out
}

/// Runs the concurrency pass over every `.rs` file under `roots`.
pub fn concheck_paths(
    roots: &[PathBuf],
    config: &ConcheckConfig,
) -> std::io::Result<ConcheckReport> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs_files(root, &mut files)?;
    }
    files.sort();

    let mut report = ConcheckReport::default();
    let mut edges: Vec<LockEdge> = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let analysis = concheck_source(&file, &src, config);
        report.findings.extend(analysis.findings);
        report.atomics.add(analysis.atomics);
        report.functions += analysis.functions;
        edges.extend(analysis.edges);
    }

    let mut locks: BTreeSet<&str> = BTreeSet::new();
    let mut pairs: BTreeSet<(&str, &str)> = BTreeSet::new();
    for e in edges.iter().filter(|e| !e.allowed) {
        locks.insert(e.from.as_str());
        locks.insert(e.to.as_str());
        pairs.insert((e.from.as_str(), e.to.as_str()));
    }
    report.locks = locks.len();
    report.edges = pairs.len();

    report.findings.extend(cycle_findings(&edges));
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> ConcheckReport {
        let analysis = concheck_source(Path::new("x.rs"), src, &ConcheckConfig::default());
        let mut report = ConcheckReport {
            findings: analysis.findings,
            atomics: analysis.atomics,
            functions: analysis.functions,
            ..Default::default()
        };
        report.findings.extend(cycle_findings(&analysis.edges));
        report
    }

    #[test]
    fn poison_unwrap_fires_and_recovery_does_not() {
        let r = run("fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, ConRule::PoisonUnwrap);

        let r = run(
            "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }",
        );
        assert!(r.findings.is_empty());
    }

    #[test]
    fn std_stream_locks_are_ignored() {
        let r = run("fn f() { let g = std::io::stderr().lock(); writeln!(g, \"x\").ok(); }");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn ab_ba_ordering_is_a_cycle() {
        let src = "
            fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); }
            fn g(&self) { let b = lock(&self.beta); let a = lock(&self.alpha); }
        ";
        let r = run(src);
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == ConRule::LockCycle)
            .collect();
        assert_eq!(cycles.len(), 2, "{:?}", r.findings);
    }

    #[test]
    fn consistent_ordering_is_not_a_cycle() {
        let src = "
            fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); }
            fn g(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); }
        ";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn drop_releases_the_guard_before_the_second_acquisition() {
        let src = "
            fn f(&self) { let a = lock(&self.alpha); drop(a); let b = lock(&self.beta); }
            fn g(&self) { let b = lock(&self.beta); drop(b); let a = lock(&self.alpha); }
        ";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn statement_temporary_is_released_at_semicolon() {
        let src = "
            fn f(&self) { self.alpha.lock().unwrap_or_else(E::into_inner).push(1); let b = lock(&self.beta); }
            fn g(&self) { self.beta.lock().unwrap_or_else(E::into_inner).push(1); let a = lock(&self.alpha); }
        ";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn for_head_lock_is_held_across_the_body() {
        let src = "
            fn f(&self) { for x in lock(&self.jobs).values() { let c = lock(&x.cancel); } }
            fn g(&self) { let c = lock(&self.cancel); let j = lock(&self.jobs); }
        ";
        let r = run(src);
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == ConRule::LockCycle)
            .collect();
        assert_eq!(cycles.len(), 2, "{:?}", r.findings);
    }

    #[test]
    fn relaxed_load_in_condition_fires_acquire_does_not() {
        let r = run("fn f(&self) { if self.stop.load(Ordering::Relaxed) { return; } }");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, ConRule::RelaxedFlag);

        let r = run("fn f(&self) { if self.stop.load(Ordering::Acquire) { return; } }");
        assert!(r.findings.is_empty());

        // A Relaxed load outside control flow (stat counter read) is fine.
        let r = run("fn f(&self) { let n = self.hits.load(Ordering::Relaxed); }");
        assert!(r.findings.is_empty());
    }

    #[test]
    fn blocking_under_lock_fires_and_after_release_does_not() {
        let r = run("fn f(&self) { let g = lock(&self.writer); g.flush().ok(); }");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, ConRule::BlockUnderLock);
        assert!(r.findings[0].matched.contains("{writer}"));

        let r = run("fn f(&self) { { let g = lock(&self.writer); } self.out.flush().ok(); }");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn slice_join_is_not_a_thread_join() {
        let r = run("fn f(&self) { let g = lock(&self.names); let s = g.join(\", \"); }");
        assert!(r.findings.is_empty(), "{:?}", r.findings);

        let r = run("fn f(&self) { let g = lock(&self.jobs); handle.join(); }");
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn condition_temporary_is_released_inside_the_block() {
        let r = run("fn f(&self) { if lock(&self.q).is_empty() { self.out.flush().ok(); } }");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn allows_suppress_and_remove_edges() {
        let src = "
            fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); }
            fn g(&self) {
                let b = lock(&self.beta);
                // statcheck:allow(lock-cycle) shutdown-only path, alpha uncontended here
                let a = lock(&self.alpha);
            }
        ";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);

        let r = run(
            "fn f(&self) { let g = lock(&self.writer); g.flush().ok(); // statcheck:allow(block-under-lock) lock serializes the sink\n }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn atomic_sites_are_classified() {
        let src = "
            fn f(&self) {
                self.count.fetch_add(1, Ordering::Relaxed);
                self.done.store(true, Ordering::Release);
                let t = self.slot.swap(0, Ordering::AcqRel);
                let n = self.count.load(Ordering::Relaxed);
            }
        ";
        let r = run(src);
        assert_eq!(r.atomics.counters, 1);
        assert_eq!(r.atomics.flags, 2);
        assert_eq!(r.atomics.handoffs, 1);
        assert_eq!(r.atomics.total(), 4);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }\n}";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn let_of_a_method_result_is_a_temporary_not_a_guard() {
        // The binding holds the popped value; the guard dies at the `;`,
        // so the second acquisition is not nested inside the first.
        let src = "
            fn f(&self) {
                let own = lock(&self.queue).pop_front();
                let q = lock(&self.queue);
            }
        ";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);

        // Adapter chains still bind the guard.
        let src = "
            fn f(&self) {
                let g = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                let h = lock(&self.other);
            }
            fn g(&self) { let h = lock(&self.other); let g = lock(&self.queue); }
        ";
        let r = run(src);
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.rule == ConRule::LockCycle)
                .count(),
            2,
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn self_relock_is_a_cycle_of_length_one() {
        let r = run("fn f(&self) { let a = lock(&self.jobs); let b = lock(&self.jobs); }");
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == ConRule::LockCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", r.findings);
    }
}
