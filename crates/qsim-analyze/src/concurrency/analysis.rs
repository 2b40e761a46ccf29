//! The concurrency analyses: lock-acquisition graph construction with a
//! call-graph fixpoint, guards held across blocking boundaries,
//! RAII-escape detection, and the mechanical unsafe-hygiene checks.
//!
//! All analyses are deliberately *lexical over-approximations with
//! documented under-approximations*: guard live ranges follow Rust 2021
//! temporary-lifetime rules (statement temporaries die at the `;`,
//! `if let`/`while let`/`match` scrutinee temporaries live to the end of
//! the construct, `let`-bound guards to the end of the block or an
//! explicit `drop(guard)`), and workspace calls are resolved by bare
//! name with a deny-list of ubiquitous method names (`len`, `clone`,
//! `finish`, …) that would otherwise alias std methods. A denied name
//! is never followed into, so a blocking workspace method that shares a
//! std name can be missed — the price of zero false edges on a
//! name-based call graph.

use std::collections::{HashMap, HashSet};

use qsim_core::diag::{SourceDiagnostic, SrcSpan};

use super::lexer::{Tok, TokKind};
use super::model::{FnDef, LockKind, SourceFile, Workspace};

/// Stable `QL03xx` diagnostic codes. Once published a code is never
/// reused for a different finding.
pub mod codes {
    /// Lock-order cycle: two or more lock sites are acquired in
    /// conflicting orders on some code paths (includes same-site
    /// re-acquisition while held). Severity: error.
    pub const LOCK_CYCLE: &str = "QL0301";
    /// A lock guard is held across a blocking boundary: `Condvar::wait`
    /// on a *different* lock, thread joins, sleeps, TCP/file I/O, rayon
    /// scope entry, or a `SimBackend::run*` call. Severity: error.
    pub const HELD_ACROSS_BLOCKING: &str = "QL0302";
    /// A leak-shaped escape (`mem::forget`, `ManuallyDrop::new`,
    /// `Box::leak`) applied to an RAII accounting value (`Reservation`,
    /// admission/pool acquisitions). Severity: error when the value is
    /// provably tracked, warning otherwise.
    pub const RAII_ESCAPE: &str = "QL0303";
    /// An `unsafe` block without a `// SAFETY:` comment on or directly
    /// above it. Severity: warning (mirrors the workspace clippy
    /// policy).
    pub const UNDOCUMENTED_UNSAFE: &str = "QL0304";
    /// x86 SIMD intrinsics in a file whose inclusion is not gated behind
    /// `cfg(target_arch = …)` (the ISA-dispatch discipline). Severity:
    /// error.
    pub const UNGATED_INTRINSICS: &str = "QL0305";
    /// A `.lock()` receiver that resolves to no declared lock site, an
    /// ambiguous field name, or a `lockorder::track` annotation string
    /// naming no known site. Severity: warning.
    pub const UNRESOLVED_LOCK_SITE: &str = "QL0306";
    /// An allowlist entry that matched no diagnostic — stale entries
    /// must be pruned so the allowlist never hides future regressions.
    /// Severity: error.
    pub const STALE_ALLOWLIST: &str = "QL0307";
    /// `Condvar::wait` outside a `loop`/`while` — condition variables
    /// wake spuriously, so waits must re-check their predicate.
    /// Severity: warning.
    pub const NAKED_CONDVAR_WAIT: &str = "QL0308";
}

/// Method/free-call names that are never resolved against workspace
/// functions: they collide with ubiquitous std inherent methods, so a
/// name-based call graph would invent edges through them.
const CALL_RESOLVE_DENY: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "next",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "take",
    "replace",
    "unwrap",
    "expect",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "is_some",
    "is_none",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_str",
    "to_string",
    "to_vec",
    "to_owned",
    "into",
    "from",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "finish",
    "write",
    "read",
    "lock",
    "try_lock",
    "drop",
    "name",
    "label",
    "index",
    "extend",
    "collect",
    "filter",
    "count",
    "sum",
    "min",
    "max",
    "abs",
    "sqrt",
    "floor",
    "ceil",
    "round",
    "exp",
    "ln",
    "powi",
    "powf",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "wait",
    "wait_timeout",
    "notify_one",
    "notify_all",
    "join",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "split",
    "trim",
    "parse",
    "clear",
    "sort",
    "sort_unstable",
    "dedup",
    "reserve",
    "capacity",
    "resize",
    "truncate",
    "first",
    "last",
    "chunks",
    "windows",
    "flatten",
    "zip",
    "rev",
    "skip",
    "enumerate",
    "any",
    "all",
    "find",
    "position",
    "fold",
    "flat_map",
    "cloned",
    "copied",
    "then",
    "send",
    "spawn",
    "elapsed",
    "now",
    "id",
    "kind",
    "get_or_init",
    "with",
    "borrow",
    "borrow_mut",
    "to_json",
    "status",
    "is_terminal",
];

/// Blocking calls detected directly by name. `EmptyOnly` names block
/// only in their zero-argument form (`handle.join()` blocks;
/// `path.join("x")` and `["a"].join(",")` do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgPolicy {
    Any,
    EmptyOnly,
}

const BLOCKING_CALLS: &[(&str, ArgPolicy)] = &[
    // Thread-level blocking.
    ("sleep", ArgPolicy::Any),
    ("join", ArgPolicy::EmptyOnly),
    ("park", ArgPolicy::EmptyOnly),
    ("recv", ArgPolicy::EmptyOnly),
    ("recv_timeout", ArgPolicy::Any),
    // TCP / stream I/O (the serve wire protocol).
    ("accept", ArgPolicy::EmptyOnly),
    ("incoming", ArgPolicy::EmptyOnly),
    ("connect", ArgPolicy::Any),
    ("read_line", ArgPolicy::Any),
    ("read_to_end", ArgPolicy::Any),
    ("read_to_string", ArgPolicy::Any),
    ("read_exact", ArgPolicy::Any),
    ("write_all", ArgPolicy::Any),
    ("write_fmt", ArgPolicy::Any),
    ("flush", ArgPolicy::EmptyOnly),
    // Rayon entry points: entering a parallel region blocks the calling
    // thread until the region completes.
    ("par_iter", ArgPolicy::Any),
    ("par_iter_mut", ArgPolicy::Any),
    ("into_par_iter", ArgPolicy::Any),
    ("par_chunks", ArgPolicy::Any),
    ("par_chunks_mut", ArgPolicy::Any),
    ("par_extend", ArgPolicy::Any),
    ("par_bridge", ArgPolicy::Any),
    ("scope", ArgPolicy::Any),
    ("install", ArgPolicy::Any),
    // Backend entry points: a simulation run is a long blocking region.
    ("run_with", ArgPolicy::Any),
    ("run_batch", ArgPolicy::Any),
    ("run_gang", ArgPolicy::Any),
    ("run_plan", ArgPolicy::Any),
];

/// Constructors whose results are RAII accounting values: forgetting
/// them silently corrupts the admission ledger or the buffer pool.
const TRACKED_CTORS: &[&str] = &["try_reserve"];
/// Type names that mark a binding as a tracked RAII value.
const TRACKED_TYPES: &[&str] = &["Reservation"];

/// One lock acquisition with its resolved site and guard live range.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Index into `Workspace::sites`, when resolution succeeded.
    pub site: Option<usize>,
    /// Token index of the receiver-chain start.
    pub pos: usize,
    /// Token index at which the guard dies (inclusive).
    pub end: usize,
    /// `let`-bound guard name, `None` for statement temporaries.
    pub binding: Option<String>,
    pub line: u32,
}

/// Everything the per-function pass extracts.
#[derive(Debug, Default)]
pub struct FnFacts {
    pub acqs: Vec<Acq>,
    /// `(pos, callee name)` of calls eligible for workspace resolution.
    pub calls: Vec<(usize, String)>,
    /// `(pos, description, line)` of directly blocking operations.
    pub blocking: Vec<(usize, String, u32)>,
    /// `(pos, consumed guard name, line, lexically inside loop/while)`
    /// of `Condvar::wait`/`wait_timeout` calls on resolved condvars.
    pub condvar_waits: Vec<(usize, Option<String>, u32, bool)>,
    /// Findings emitted during extraction (QL0303/QL0304/QL0306/QL0308).
    pub diags: Vec<SourceDiagnostic>,
}

/// Analyze one function body.
pub fn fn_facts(ws: &Workspace, f: &FnDef) -> FnFacts {
    let file = &ws.files[f.file_idx];
    let toks = &file.toks;
    let (open, close) = f.body;
    let mut facts = FnFacts::default();

    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let has_call_parens = i + 1 < close && toks[i + 1].is_punct('(');

        // Lock acquisition: `.lock()` / `.read()` / `.write()` with no
        // arguments.
        if is_method
            && has_call_parens
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && i + 2 < close
            && toks[i + 2].is_punct(')')
        {
            record_acquisition(ws, file, f, i, &mut facts);
            i += 3;
            continue;
        }

        // Condvar wait: `.wait(g)` / `.wait_timeout(g, d)`.
        if is_method && has_call_parens && matches!(t.text.as_str(), "wait" | "wait_timeout") {
            record_condvar_wait(ws, file, f, i, &mut facts);
            i += 2;
            continue;
        }

        // Leak-shaped escapes.
        if has_call_parens
            && (t.text == "forget"
                || (t.text == "leak" && path_prefix_is(toks, i, "Box"))
                || (t.text == "new" && path_prefix_is(toks, i, "ManuallyDrop")))
            && !is_method
        {
            record_escape(file, f, i, &mut facts);
            i += 2;
            continue;
        }

        // Undocumented unsafe blocks.
        if t.text == "unsafe" && i + 1 < close && toks[i + 1].is_punct('{') {
            if !safety_comment_above(file, t.line) {
                facts.diags.push(
                    SourceDiagnostic::warning(
                        codes::UNDOCUMENTED_UNSAFE,
                        SrcSpan::new(file.rel_path.clone(), t.line),
                        format!("unsafe block in `{}` has no `// SAFETY:` comment", f.qual),
                    )
                    .with_help("state the invariant that makes the block sound"),
                );
            }
            i += 1;
            continue;
        }

        // Directly blocking calls.
        if has_call_parens {
            if let Some((_, policy)) = BLOCKING_CALLS.iter().find(|(n, _)| *n == t.text.as_str()) {
                let empty = i + 2 < close && toks[i + 2].is_punct(')');
                if *policy == ArgPolicy::Any || empty {
                    facts.blocking.push((i, format!("`{}(…)`", t.text), t.line));
                }
            }
            // Workspace-call resolution candidates (macros `name!(…)`
            // never match: the `(` is preceded by `!`).
            if !is_keyword(&t.text) && !CALL_RESOLVE_DENY.contains(&t.text.as_str()) {
                facts.calls.push((i, t.text.clone()));
            }
        }
        i += 1;
    }
    facts
}

/// Is there a `SAFETY` mention in the comment block ending nearest above
/// `line`? The block may start within two lines of the `unsafe` token
/// (statement continuations intervene) and extends upward through
/// contiguous comment lines — `SAFETY:` on the first line of a four-line
/// comment still counts.
fn safety_comment_above(file: &SourceFile, line: u32) -> bool {
    let mut l = line;
    let mut in_run = false;
    loop {
        if let Some(c) = file.comment_at(l) {
            in_run = true;
            if c.contains("SAFETY") {
                return true;
            }
        } else if in_run || line - l >= 3 {
            // The comment run ended, or no comment starts near enough.
            return false;
        }
        if l == 0 {
            return false;
        }
        l -= 1;
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "else"
            | "fn"
            | "let"
            | "move"
            | "unsafe"
            | "in"
            | "as"
            | "ref"
            | "mut"
            | "box"
            | "await"
            | "dyn"
            | "impl"
            | "where"
            | "use"
            | "pub"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "continue"
            | "break"
    )
}

/// Is the identifier at `i` path-prefixed by `prefix` (`Prefix::ident`)?
fn path_prefix_is(toks: &[Tok], i: usize, prefix: &str) -> bool {
    i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') && toks[i - 3].is_ident(prefix)
}

/// Start of the receiver chain ending just before the `.` at `dot`:
/// walks back over idents, `.`/`::`, matched parens, and `& * mut`.
fn chain_start(toks: &[Tok], dot: usize) -> usize {
    let mut k = dot;
    loop {
        if k == 0 {
            return 0;
        }
        let p = &toks[k - 1];
        if p.kind == TokKind::Ident || p.is_punct('.') || p.is_punct(':') {
            k -= 1;
        } else if p.is_punct(')') || p.is_punct(']') {
            // Jump over the group.
            let (open_c, close_c) = if p.is_punct(')') { ('(', ')') } else { ('[', ']') };
            let mut depth = 0i32;
            let mut j = k - 1;
            loop {
                if toks[j].is_punct(close_c) {
                    depth += 1;
                } else if toks[j].is_punct(open_c) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            k = j;
        } else if p.is_punct('&') || p.is_punct('*') || p.is_ident("mut") {
            k -= 1;
        } else {
            return k;
        }
    }
}

/// Resolve a lock/condvar receiver field name to a site index with
/// same-file → same-crate → global preference. `Err(candidates)` when
/// ambiguous after preference filtering.
fn resolve_site(
    ws: &Workspace,
    file: &SourceFile,
    field: &str,
    want_condvar: Option<bool>,
) -> Result<Option<usize>, Vec<usize>> {
    let matching: Vec<usize> = ws
        .sites
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.field == field
                && match want_condvar {
                    Some(true) => s.kind == LockKind::Condvar,
                    Some(false) => s.kind != LockKind::Condvar,
                    None => true,
                }
        })
        .map(|(i, _)| i)
        .collect();
    if matching.is_empty() {
        return Ok(None);
    }
    for pred in [
        |s: &super::model::LockSite, f: &SourceFile| s.file == f.rel_path,
        |s: &super::model::LockSite, f: &SourceFile| s.site.starts_with(&f.crate_name),
        |_: &super::model::LockSite, _: &SourceFile| true,
    ] {
        let narrowed: Vec<usize> =
            matching.iter().copied().filter(|&i| pred(&ws.sites[i], file)).collect();
        match narrowed.len() {
            0 => continue,
            1 => return Ok(Some(narrowed[0])),
            _ => return Err(narrowed),
        }
    }
    Err(matching)
}

fn record_acquisition(ws: &Workspace, file: &SourceFile, f: &FnDef, i: usize, facts: &mut FnFacts) {
    let toks = &file.toks;
    let method = toks[i].text.clone();
    let dot = i - 1;
    let start = chain_start(toks, dot);
    let chain_idents: Vec<&str> = toks[start..dot]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if chain_idents.iter().any(|c| matches!(*c, "stdout" | "stderr" | "stdin")) {
        return;
    }
    // The receiver field is the last identifier before the `.`.
    let recv = (toks[dot - 1].kind == TokKind::Ident).then(|| toks[dot - 1].text.clone());
    let line = toks[i].line;
    let site = match recv.as_deref() {
        Some(field) => match resolve_site(ws, file, field, Some(false)) {
            Ok(Some(s)) => Some(s),
            Ok(None) => {
                if method == "lock" {
                    facts.diags.push(
                        SourceDiagnostic::warning(
                            codes::UNRESOLVED_LOCK_SITE,
                            SrcSpan::new(file.rel_path.clone(), line),
                            format!(
                                "`.lock()` on `{field}` in `{}` resolves to no declared lock \
                                 site",
                                f.qual
                            ),
                        )
                        .with_help(
                            "declare the field with a Mutex/RwLock type the analyzer can see, \
                             or mark it `// conc-lint: untracked`",
                        ),
                    );
                }
                None
            }
            Err(cands) => {
                let names: Vec<&str> = cands.iter().map(|&c| ws.sites[c].site.as_str()).collect();
                facts.diags.push(
                    SourceDiagnostic::warning(
                        codes::UNRESOLVED_LOCK_SITE,
                        SrcSpan::new(file.rel_path.clone(), line),
                        format!(
                            "`.{method}()` on `{field}` in `{}` is ambiguous between {}",
                            f.qual,
                            names.join(", ")
                        ),
                    )
                    .with_help("rename one of the fields so lock sites resolve uniquely"),
                );
                None
            }
        },
        None => None,
    };
    let (binding, end) = guard_range(file, f, start, i);
    facts.acqs.push(Acq { site, pos: start, end, binding, line });
}

/// Guard liveness: `(binding name, inclusive end token)` for the
/// acquisition whose method ident sits at `m` and whose receiver chain
/// starts at `start`.
fn guard_range(file: &SourceFile, f: &FnDef, start: usize, m: usize) -> (Option<String>, usize) {
    let toks = &file.toks;
    let close_paren = m + 2; // `.lock()` — method, `(`, `)`
    let (_, body_close) = f.body;

    // Is the whole expression a `let`-bound guard? Requires
    // `let [mut] name = <chain>.lock()[.unwrap()|.expect(…)|?]* ;`
    // A leading `*` means the binding is a deref-*copy* of the protected
    // value (`let agg = *self.aggregates.lock();`) — the guard itself is
    // a statement temporary, not the binding.
    let named = (|| {
        if start < 2 || !toks[start - 1].is_punct('=') || toks[start].is_punct('*') {
            return None;
        }
        let name_idx = start - 2;
        if toks[name_idx].kind != TokKind::Ident {
            return None;
        }
        let mut k = name_idx;
        if k >= 1 && toks[k - 1].is_ident("mut") {
            k -= 1;
        }
        if k < 1 || !toks[k - 1].is_ident("let") {
            return None;
        }
        // Adapter chain after the call must preserve the guard.
        let mut j = close_paren + 1;
        loop {
            if j >= toks.len() {
                return None;
            }
            if toks[j].is_punct(';') {
                return Some(toks[name_idx].text.clone());
            }
            if toks[j].is_punct('?') {
                j += 1;
                continue;
            }
            if toks[j].is_punct('.')
                && j + 1 < toks.len()
                && matches!(toks[j + 1].text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
            {
                // Skip the adapter call's argument group.
                let mut p = j + 2;
                if p < toks.len() && toks[p].is_punct('(') {
                    let mut depth = 0i32;
                    while p < toks.len() {
                        if toks[p].is_punct('(') {
                            depth += 1;
                        } else if toks[p].is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        p += 1;
                    }
                }
                j = p + 1;
                continue;
            }
            return None;
        }
    })();

    if let Some(name) = named {
        // Scope of the innermost enclosing block, truncated at an
        // explicit `drop(name)`.
        let mut scope_end = body_close;
        let mut best_open = 0usize;
        for (&o, &c) in &file.braces {
            if o < c && o < start && c >= m && o >= best_open && c <= scope_end {
                best_open = o;
                scope_end = c;
            }
        }
        let mut j = close_paren;
        while j < scope_end {
            if toks[j].is_ident("drop")
                && j + 3 < toks.len()
                && toks[j + 1].is_punct('(')
                && toks[j + 2].is_ident(&name)
                && toks[j + 3].is_punct(')')
            {
                scope_end = j;
                break;
            }
            j += 1;
        }
        return (Some(name), scope_end);
    }

    // Statement temporary: lives to the `;` — or, when the statement is
    // an `if let`/`while let`/`match`/`for` header, to the end of the
    // whole construct (Rust 2021 scrutinee-temporary rules). Scanning
    // forward: the first `;` at paren depth 0 ends a plain statement; a
    // `{` at depth 0 opens a construct body and the temporary lives to
    // its close (plus any `else` continuation).
    let mut paren = 0i32;
    let mut j = close_paren + 1;
    while j < body_close {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if paren == 0 {
            if t.is_punct(';') {
                return (None, j);
            }
            if t.is_punct('}') {
                return (None, j);
            }
            if t.is_punct('{') {
                let mut end = *file.braces.get(&j).unwrap_or(&j);
                // `else` / `else if …` continuation chains.
                while end + 1 < toks.len() && toks[end + 1].is_ident("else") {
                    let mut k = end + 2;
                    while k < toks.len() && !toks[k].is_punct('{') {
                        k += 1;
                    }
                    match file.braces.get(&k) {
                        Some(&c) => end = c,
                        None => break,
                    }
                }
                return (None, end);
            }
        }
        j += 1;
    }
    (None, body_close)
}

fn record_condvar_wait(
    ws: &Workspace,
    file: &SourceFile,
    f: &FnDef,
    i: usize,
    facts: &mut FnFacts,
) {
    let toks = &file.toks;
    let dot = i - 1;
    if !toks[dot].is_punct('.') || toks[dot - 1].kind != TokKind::Ident {
        return;
    }
    let field = &toks[dot - 1].text;
    let Ok(Some(_)) = resolve_site(ws, file, field, Some(true)) else {
        // Not a declared condvar — `Service::wait`-style polling methods
        // are resolved (or denied) through the call graph instead.
        return;
    };
    let line = toks[i].line;
    // First argument: the guard the wait consumes (and atomically
    // re-acquires) — the one lock legitimately "held" across the wait.
    let consumed = (toks[i + 2].kind == TokKind::Ident).then(|| toks[i + 2].text.clone());
    let in_loop = enclosing_loop(file, f, i);
    if !in_loop {
        facts.diags.push(
            SourceDiagnostic::warning(
                codes::NAKED_CONDVAR_WAIT,
                SrcSpan::new(file.rel_path.clone(), line),
                format!(
                    "condvar wait in `{}` is not inside a loop; condition variables wake \
                     spuriously",
                    f.qual
                ),
            )
            .with_help("re-check the predicate in a `loop`/`while` around the wait"),
        );
    }
    facts.condvar_waits.push((i, consumed, line, in_loop));
}

/// Is token `i` lexically inside a `loop { … }` or `while … { … }`
/// within the function body?
fn enclosing_loop(file: &SourceFile, f: &FnDef, i: usize) -> bool {
    let toks = &file.toks;
    let (body_open, _) = f.body;
    for (&o, &c) in &file.braces {
        if o < c && o > body_open && o < i && c > i {
            // Find the statement-ish header before this `{`: walk back to
            // the previous `;`/`{`/`}` and look at the first token after
            // it.
            let mut k = o;
            while k > body_open {
                let p = &toks[k - 1];
                if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
                    break;
                }
                k -= 1;
            }
            if k < o && (toks[k].is_ident("loop") || toks[k].is_ident("while")) {
                return true;
            }
            if toks[o.saturating_sub(1)].is_ident("loop") {
                return true;
            }
        }
    }
    false
}

fn record_escape(file: &SourceFile, f: &FnDef, i: usize, facts: &mut FnFacts) {
    let toks = &file.toks;
    let what = if toks[i].text == "forget" {
        "mem::forget"
    } else if toks[i].text == "leak" {
        "Box::leak"
    } else {
        "ManuallyDrop::new"
    };
    let line = toks[i].line;
    // Argument tokens of the call.
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut args: Vec<&Tok> = Vec::new();
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth >= 1 {
            args.push(&toks[j]);
        }
        j += 1;
    }
    let direct_tracked = args.iter().any(|t| {
        t.kind == TokKind::Ident
            && (TRACKED_CTORS.contains(&t.text.as_str())
                || TRACKED_TYPES.contains(&t.text.as_str()))
    });
    let arg_ident = args.first().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
    let binding_tracked =
        arg_ident.as_deref().is_some_and(|name| binding_is_tracked(file, f, i, name));
    let span = SrcSpan::new(file.rel_path.clone(), line);
    if direct_tracked || binding_tracked {
        facts.diags.push(
            SourceDiagnostic::error(
                codes::RAII_ESCAPE,
                span,
                format!(
                    "`{what}` in `{}` leaks an RAII accounting value; its Drop releases \
                     admission budget or pooled buffers",
                    f.qual
                ),
            )
            .with_help("let the value drop (or return it) on every path instead"),
        );
    } else {
        facts.diags.push(
            SourceDiagnostic::warning(
                codes::RAII_ESCAPE,
                span,
                format!(
                    "`{what}` in `{}` defeats RAII for a value the analyzer cannot prove \
                         inert",
                    f.qual
                ),
            )
            .with_help("if the escape is intentional, add an allowlist entry with justification"),
        );
    }
}

/// Does `name`, bound earlier in the function (by `let` or as a typed
/// parameter), originate from a tracked constructor or carry a tracked
/// type annotation?
fn binding_is_tracked(file: &SourceFile, f: &FnDef, before: usize, name: &str) -> bool {
    let toks = &file.toks;
    let (open, _) = f.body;
    // Parameters: `name : Reservation` in the signature.
    let mut k = f.kw;
    while k + 2 < open {
        if toks[k].is_ident(name) && toks[k + 1].is_punct(':') {
            let ty_end = (k + 2..open)
                .find(|&j| toks[j].is_punct(',') || toks[j].is_punct(')'))
                .unwrap_or(open);
            if toks[k + 2..ty_end]
                .iter()
                .any(|t| t.kind == TokKind::Ident && TRACKED_TYPES.contains(&t.text.as_str()))
            {
                return true;
            }
        }
        k += 1;
    }
    // `let [mut] name [: T] = rhs ;` bindings before the escape.
    let mut k = open;
    while k < before {
        if toks[k].is_ident("let") {
            let mut j = k + 1;
            if j < before && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < before && toks[j].is_ident(name) {
                // Scan to the `;`, checking annotation and rhs.
                let mut depth = 0i32;
                let mut p = j + 1;
                while p < before {
                    let t = &toks[p];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    } else if t.kind == TokKind::Ident
                        && (TRACKED_CTORS.contains(&t.text.as_str())
                            || TRACKED_TYPES.contains(&t.text.as_str()))
                    {
                        return true;
                    }
                    p += 1;
                }
            }
        }
        k += 1;
    }
    false
}

/// The cross-function analysis results.
#[derive(Debug, Default)]
pub struct Analysis {
    pub diags: Vec<SourceDiagnostic>,
    /// Site-level ordering edges `(from, to, file, line)` — `to` was
    /// acquired (directly or via a resolved callee) while `from` was
    /// held.
    pub edges: Vec<(usize, usize, String, u32)>,
}

/// Run every analysis over the modeled workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    let mut out = Analysis::default();
    let facts: Vec<FnFacts> = ws.fns.iter().map(|f| fn_facts(ws, f)).collect();
    for f in &facts {
        out.diags.extend(f.diags.iter().cloned());
    }

    // Name → function indices, for the call-graph fixpoint.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }

    // Fixpoint 1: which functions may block (directly or transitively).
    let mut may_block: Vec<bool> =
        facts.iter().map(|f| !f.blocking.is_empty() || !f.condvar_waits.is_empty()).collect();
    // Fixpoint 2: the set of sites a call into the function may acquire.
    let mut acquires: Vec<HashSet<usize>> =
        facts.iter().map(|f| f.acqs.iter().filter_map(|a| a.site).collect()).collect();
    let crate_of = |fn_idx: usize| ws.files[ws.fns[fn_idx].file_idx].crate_name.as_str();
    loop {
        let mut changed = false;
        for (i, f) in facts.iter().enumerate() {
            for (_, callee) in &f.calls {
                for &c in by_name.get(callee.as_str()).map_or(&[] as &[usize], Vec::as_slice) {
                    // A name resolving back to the function under
                    // analysis is the `self.inner.lock().foo()`-inside-
                    // `Wrapper::foo` pattern, not recursion; the
                    // function's own effects are counted directly. And a
                    // callee in a crate the caller does not depend on is
                    // unreachable — reject resolutions against the
                    // dependency direction.
                    if c == i || !ws.may_call(crate_of(i), crate_of(c)) {
                        continue;
                    }
                    if may_block[c] && !may_block[i] {
                        may_block[i] = true;
                        changed = true;
                    }
                    if !acquires[c].is_subset(&acquires[i]) {
                        let add: Vec<usize> =
                            acquires[c].difference(&acquires[i]).copied().collect();
                        acquires[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Per guard range: ordering edges and held-across-blocking findings.
    for (fi, f) in facts.iter().enumerate() {
        let fndef = &ws.fns[fi];
        let file = &ws.files[fndef.file_idx];
        for a in &f.acqs {
            let Some(a_site) = a.site else { continue };
            let held = |pos: usize| pos > a.pos && pos <= a.end;
            // Direct nested acquisitions.
            for b in &f.acqs {
                if std::ptr::eq(a, b) || b.site.is_none() {
                    continue;
                }
                if held(b.pos) {
                    out.edges.push((a_site, b.site.unwrap(), file.rel_path.clone(), b.line));
                }
            }
            // Acquisitions via resolved workspace calls.
            for (pos, callee) in &f.calls {
                if !held(*pos) {
                    continue;
                }
                let line = file.toks[*pos].line;
                for &c in by_name.get(callee.as_str()).map_or(&[] as &[usize], Vec::as_slice) {
                    if c == fi || !ws.may_call(crate_of(fi), crate_of(c)) {
                        continue;
                    }
                    for &s in &acquires[c] {
                        out.edges.push((a_site, s, file.rel_path.clone(), line));
                    }
                    if may_block[c] {
                        out.diags.push(
                            SourceDiagnostic::error(
                                codes::HELD_ACROSS_BLOCKING,
                                SrcSpan::new(file.rel_path.clone(), line),
                                format!(
                                    "guard of `{}` is held across a call to `{}`, which may \
                                     block",
                                    ws.sites[a_site].site, ws.fns[c].qual
                                ),
                            )
                            .with_help("release the guard before the call (narrow the scope)"),
                        );
                    }
                }
            }
            // Directly blocking operations under the guard.
            for (pos, what, line) in &f.blocking {
                if held(*pos) {
                    out.diags.push(
                        SourceDiagnostic::error(
                            codes::HELD_ACROSS_BLOCKING,
                            SrcSpan::new(file.rel_path.clone(), *line),
                            format!(
                                "guard of `{}` is held across blocking {what}",
                                ws.sites[a_site].site
                            ),
                        )
                        .with_help("release the guard before blocking (narrow the scope)"),
                    );
                }
            }
            // Condvar waits: the wait legitimately consumes *its own*
            // guard; any other guard held across it is a deadlock shape.
            for (pos, consumed, line, _) in &f.condvar_waits {
                if !held(*pos) {
                    continue;
                }
                let is_own = match (&a.binding, consumed) {
                    (Some(b), Some(c)) => b == c,
                    _ => false,
                };
                if !is_own {
                    out.diags.push(
                        SourceDiagnostic::error(
                            codes::HELD_ACROSS_BLOCKING,
                            SrcSpan::new(file.rel_path.clone(), *line),
                            format!(
                                "guard of `{}` is held across a `Condvar` wait that parks on \
                                 a different lock",
                                ws.sites[a_site].site
                            ),
                        )
                        .with_help(
                            "only the mutex the condvar re-acquires may be held at the wait",
                        ),
                    );
                }
            }
        }
    }

    // Lock-order cycles over the site digraph.
    out.diags.extend(cycle_diagnostics(ws, &out.edges));
    out.diags.extend(annotation_diagnostics(ws));
    out.diags.extend(isa_gating_diagnostics(ws));
    out
}

/// QL0301: strongly-connected components of size ≥ 2 (or self-loops) in
/// the ordering digraph.
fn cycle_diagnostics(
    ws: &Workspace,
    edges: &[(usize, usize, String, u32)],
) -> Vec<SourceDiagnostic> {
    let mut adj: HashMap<usize, HashSet<usize>> = HashMap::new();
    let mut where_edge: HashMap<(usize, usize), (String, u32)> = HashMap::new();
    for (a, b, file, line) in edges {
        adj.entry(*a).or_default().insert(*b);
        where_edge.entry((*a, *b)).or_insert_with(|| (file.clone(), *line));
    }
    let mut out = Vec::new();

    // Self-loops: a site re-acquired while already held.
    for (&a, next) in &adj {
        if next.contains(&a) {
            let (file, line) = &where_edge[&(a, a)];
            out.push(
                SourceDiagnostic::error(
                    codes::LOCK_CYCLE,
                    SrcSpan::new(file.clone(), *line),
                    format!(
                        "`{}` is acquired while a guard of the same site is already held",
                        ws.sites[a].site
                    ),
                )
                .with_help("non-reentrant locks self-deadlock (or are UB) on re-acquisition"),
            );
        }
    }

    // Two-or-more-node cycles: report each unordered pair {A,B} that is
    // connected in both directions through the digraph exactly once, at
    // the lexically first edge. (Pairwise reachability subsumes longer
    // cycles: every cycle contains such a pair.)
    let nodes: Vec<usize> = adj.keys().copied().collect();
    let reach = |from: usize, to: usize| -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(&n) {
                if next.contains(&to) {
                    return true;
                }
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    for &a in &nodes {
        for &b in &nodes {
            if a >= b {
                continue;
            }
            if reported.contains(&(a, b)) {
                continue;
            }
            if reach(a, b) && reach(b, a) {
                reported.insert((a, b));
                let (file, line) = where_edge
                    .get(&(a, b))
                    .or_else(|| where_edge.get(&(b, a)))
                    .cloned()
                    .unwrap_or_default();
                out.push(
                    SourceDiagnostic::error(
                        codes::LOCK_CYCLE,
                        SrcSpan::new(file, line),
                        format!(
                            "lock-order cycle: `{}` and `{}` are each acquired while the \
                             other is held on some path",
                            ws.sites[a].site, ws.sites[b].site
                        ),
                    )
                    .with_help("pick one global order for the two sites and enforce it"),
                );
            }
        }
    }
    out.sort_by_key(|x| (x.span.file.clone(), x.span.line));
    out
}

/// QL0306 for `lockorder::track("…")` annotation literals that name no
/// modeled site: the runtime tracker and the static graph must agree on
/// identities or the subset check in the serve tests is vacuous.
fn annotation_diagnostics(ws: &Workspace) -> Vec<SourceDiagnostic> {
    let known: HashSet<&str> = ws.sites.iter().map(|s| s.site.as_str()).collect();
    let mut out = Vec::new();
    for file in &ws.files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("track") || file.is_excluded(i) {
                continue;
            }
            if i + 2 >= toks.len() || !toks[i + 1].is_punct('(') {
                continue;
            }
            let lit = &toks[i + 2];
            if lit.kind != TokKind::Lit || !lit.text.starts_with('"') {
                continue;
            }
            let name = lit.text.trim_matches('"');
            if !known.contains(name) {
                out.push(
                    SourceDiagnostic::warning(
                        codes::UNRESOLVED_LOCK_SITE,
                        SrcSpan::new(file.rel_path.clone(), lit.line),
                        format!("lock-site annotation `{name}` names no declared lock site"),
                    )
                    .with_help(
                        "annotation strings must match the analyzer's \
                         `crate::module::Struct.field` identities exactly",
                    ),
                );
            }
        }
    }
    out
}

/// QL0305: x86 intrinsics in files whose `mod` declaration is not
/// `cfg(target_arch = …)`-gated.
fn isa_gating_diagnostics(ws: &Workspace) -> Vec<SourceDiagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        let first_intrinsic = file.toks.iter().enumerate().find(|(i, t)| {
            t.kind == TokKind::Ident
                && (t.text.starts_with("_mm") || t.text.starts_with("__m"))
                && !file.is_excluded(*i)
        });
        let Some((_, tok)) = first_intrinsic else { continue };
        let segment = file.module.rsplit("::").next().unwrap_or(&file.module).to_string();
        let gated = ws
            .mod_cfgs
            .get(&(file.crate_name.clone(), segment))
            .is_some_and(|attrs| attrs.iter().any(|a| a.contains("target_arch")));
        if !gated {
            out.push(
                SourceDiagnostic::error(
                    codes::UNGATED_INTRINSICS,
                    SrcSpan::new(file.rel_path.clone(), tok.line),
                    format!(
                        "`{}` uses x86 intrinsics but its module inclusion is not gated by \
                         `cfg(target_arch = …)`",
                        file.rel_path
                    ),
                )
                .with_help(
                    "declare the module behind #[cfg(all(target_arch = \"x86_64\", …))] and \
                     reach it only through runtime ISA dispatch",
                ),
            );
        }
    }
    out
}
