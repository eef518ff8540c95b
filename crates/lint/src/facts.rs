//! Per-function fact extraction over the token stream: lock acquisitions and
//! guard lifetimes, env-layer barrier calls, panic sites, calls with receiver
//! identifiers and closure arguments (for type-aware cross-function lock
//! propagation), discarded fallible I/O results, `#[cfg(test)]` regions, and
//! `MutexGuard::unlocked` spans.
//!
//! Beyond events, the extractor indexes the *type structure* the resolver in
//! [`crate::rules`] needs: `impl`/`impl Trait for Type` blocks (so methods
//! are keyed by their `Self` type), `trait` declarations (method name →
//! trait), struct field types, and parameter/local variable types — enough
//! to resolve `receiver.method(..)` through the receiver's type instead of
//! relying on globally unique method names.
//!
//! The extractor is lexical, not a parser: it tracks brace scopes, `let`
//! statements, and bracket matching, which is enough to recover guard
//! extents and type heads for straight-line Rust of the style this
//! workspace uses. Known approximations are documented in DESIGN.md §10.

use std::collections::{BTreeSet, HashMap};

use crate::lexer::{lex, Tok, Token};

/// Methods whose zero-argument calls are lock acquisitions.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];
/// Env-layer barrier/I-O methods watched by rules L1 and L4.
const BARRIER_METHODS: [&str; 4] = ["sync", "ordering_barrier", "append", "add_record"];
/// Fallible env/WAL/MANIFEST methods whose discarded `Result` rule L6
/// flags in crash-path and commit-protocol modules.
const FALLIBLE_IO_METHODS: [&str; 7] = [
    "sync",
    "ordering_barrier",
    "append",
    "add_record",
    "rename_file",
    "remove_file",
    "list_dir",
];
/// Panic-family suffix methods and macros watched by rule L3.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const CALL_KEYWORDS: [&str; 7] = ["if", "while", "for", "match", "loop", "return", "fn"];
/// Smart-pointer types unwrapped when extracting a receiver type head:
/// `Arc<Mutex<T>>` types its receiver as `Mutex`, `Box<dyn Env>` as `Env`.
const WRAPPER_TYPES: [&str; 3] = ["Arc", "Rc", "Box"];

/// A lock guard live at some program point.
#[derive(Debug, Clone)]
pub struct Held {
    /// The `let` binding holding the guard.
    pub binding: String,
    /// The acquisition receiver (`state` in `self.state.lock()`).
    pub receiver: String,
    /// Line of the acquisition.
    pub acquired_line: u32,
}

/// One extracted event, in source order within a function.
#[derive(Debug, Clone)]
pub enum Event {
    /// A `receiver.lock()` / `.read()` / `.write()` acquisition. `held` is
    /// the guard set at the moment of acquisition (excluding this one).
    Acquire {
        /// Receiver identifier at the call site.
        receiver: String,
        /// Source line of the acquisition.
        line: u32,
        /// Guards live at this point (excluding this one).
        held: Vec<Held>,
    },
    /// An env-layer barrier call (`.sync(` / `.ordering_barrier(` /
    /// `.append(` / `.add_record(`).
    Barrier {
        /// Barrier method name (`sync`, `append`, ...).
        method: String,
        /// Receiver identifier at the call site.
        receiver: String,
        /// Source line of the call.
        line: u32,
        /// Whether the call sits inside a `MutexGuard::unlocked` closure.
        in_unlocked: bool,
        /// Guards live at this point.
        held: Vec<Held>,
    },
    /// Any other call, recorded for cross-function lock propagation.
    Call {
        /// Callee identifier (method or free-function name).
        name: String,
        /// Receiver identifier for method calls (`None` for free calls and
        /// receivers the lexical pass cannot name, e.g. `shards[i]`).
        recv: Option<String>,
        /// Synthetic names of closure literals passed as arguments to this
        /// call (resolved to pseudo-functions in [`FileFacts::functions`]).
        closure_args: Vec<String>,
        /// Source line of the call.
        line: u32,
        /// Guards live at this point.
        held: Vec<Held>,
    },
    /// `unwrap`/`expect`/`panic!`-family site.
    Panic {
        /// What was called (`unwrap`, `expect`, `panic!`, ...).
        what: String,
        /// Source line of the call.
        line: u32,
    },
    /// A fallible env/WAL/MANIFEST call whose `Result` is discarded:
    /// `let _ = w.sync();`, `w.sync().ok();`, a bare `w.sync();` statement
    /// that binds nothing, or `env.list_dir(d).unwrap_or_default()`. Rule L6
    /// flags these in crash-path and commit-protocol modules.
    Discard {
        /// The fallible method whose result was dropped.
        method: String,
        /// How it was dropped (`let _ =`, `.ok()`, `.unwrap_or_default()`,
        /// `unused return`).
        how: &'static str,
        /// Source line of the call.
        line: u32,
    },
}

/// Facts for one function (or closure pseudo-function).
#[derive(Debug)]
pub struct FnFacts {
    /// Bare function name, or a synthetic `{closure:<file>:<n>}` name.
    pub name: String,
    /// Line of the `fn` keyword (or of the closure's opening `|`).
    pub line: u32,
    /// Inside a `#[cfg(test)]` region or under `#[test]`.
    pub in_test: bool,
    /// `true` for closure pseudo-functions. Closure bodies are *also*
    /// extracted inline into their enclosing function (so guard context is
    /// never lost); the pseudo-function exists so the resolver can model a
    /// callee invoking the closure while holding its own locks. Rules that
    /// report per-event findings skip closures to avoid double-reporting.
    pub is_closure: bool,
    /// `Self` type when the function sits inside an `impl` block.
    pub self_ty: Option<String>,
    /// Trait name when inside `impl Trait for Type` or a `trait` body.
    pub trait_name: Option<String>,
    /// Parameter `(name, type-head)` pairs; `"?"` when no type head could
    /// be extracted (tuples, slices, fn pointers). Generic parameters carry
    /// their first bound (`fn f<F: Fn()>(f: F)` records `("f", "Fn")`).
    pub params: Vec<(String, String)>,
    /// Local variable type heads from `let x: T = ..`, `let x = T::ctor(..)`
    /// and `let x = T { .. }`.
    pub locals: HashMap<String, String>,
    /// Extracted events in source order.
    pub events: Vec<Event>,
}

/// A named-lock registration: `named_mutex("core.state", ..)`,
/// `named_rwlock(..)`, or `Mutex::named("...", ..)` with a literal name.
#[derive(Debug, Clone)]
pub struct NamedLock {
    /// The canonical lock name passed as the first argument.
    pub name: String,
    /// Source line of the name literal.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region or under `#[test]`.
    pub in_test: bool,
}

/// A `trait` declaration: its name and every method named in its body
/// (declared or defaulted). The resolver uses this to route calls on
/// `dyn Trait` / `impl Trait` receivers to every implementor.
#[derive(Debug, Clone)]
pub struct TraitDecl {
    /// Trait name.
    pub name: String,
    /// Method names declared in the trait body.
    pub methods: BTreeSet<String>,
}

/// Facts for one file.
pub struct FileFacts {
    /// Path as given to [`extract`].
    pub path: String,
    /// Per-function facts in source order; closure pseudo-functions follow
    /// the real functions.
    pub functions: Vec<FnFacts>,
    /// Named-lock constructor sites (rule L5 cross-checks these against the
    /// declared `[order].locks`).
    pub named_locks: Vec<NamedLock>,
    /// Line → rules allowed by `// bolt-lint: allow(rule, ...)` comments.
    /// Only plain `//` comments count; doc comments (`///`, `//!`) that
    /// mention the syntax do not register suppressions.
    pub allows: HashMap<u32, Vec<String>>,
    /// Trait declarations in this file.
    pub traits: Vec<TraitDecl>,
    /// Struct name → field name → field type head.
    pub structs: HashMap<String, HashMap<String, String>>,
    /// `true` for integration-test and example files (a `tests` or
    /// `examples` path component): their `#[test]` functions are linted
    /// like live code instead of being exempt.
    pub integration: bool,
    /// Every token of the file, for the `[architecture]` rules.
    pub tokens: Vec<Token>,
    /// Token ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// The items an `[architecture]` scope narrows to.
    pub items: Vec<Item>,
}

/// `(kind, name, line, body)` of a `fn`, an `impl` (named by its `Self`
/// type), a braced `struct` or a `macro_rules!`; `body` is a token range.
pub type Item = (&'static str, String, u32, (usize, usize));

impl FileFacts {
    /// Is `rule` allowed at `line` (same line or the line above)?
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allowed_at(rule, line).is_some()
    }

    /// The comment line whose allow suppresses `rule` at `line`, if any.
    /// Used by the dead-suppression pass to mark which allows earned their
    /// keep.
    pub fn allowed_at(&self, rule: &str, line: u32) -> Option<u32> {
        [line, line.saturating_sub(1)].into_iter().find(|l| {
            self.allows
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }
}

/// An `impl` block or `trait` body: functions inside inherit its `Self`
/// type / trait name.
struct Container {
    self_ty: Option<String>,
    trait_name: Option<String>,
    body_start: usize,
    body_end: usize,
}

/// A closure literal: `|args| body`, recorded as a pseudo-function.
struct Closure {
    name: String,
    line: u32,
    /// Token index of the opening `|`.
    start: usize,
    /// Token index of the closing `|` of the parameter list.
    params_end: usize,
    body_start: usize,
    body_end: usize, // exclusive
    /// Innermost call paren token index this closure is an argument of.
    enclosing_call_paren: Option<usize>,
}

/// Extract facts from one source file.
pub fn extract(path: &str, src: &str) -> FileFacts {
    let lexed = lex(src);
    let toks = &lexed.tokens;

    let allows = parse_allows(&lexed.comments);
    let (close_of, open_of) = match_brackets(toks);
    let test_regions = find_test_regions(toks, &close_of);
    let unlocked_spans = find_unlocked_spans(toks, &close_of);
    let containers = find_containers(toks, &close_of);
    // A trait body is a container with no `Self` type; its methods, the
    // `fn`s named in it.
    let traits = (containers.iter().filter(|c| c.self_ty.is_none()))
        .filter_map(|c| {
            let fns = (c.body_start..c.body_end).filter(|&j| ident_at(toks, j) == Some("fn"));
            let methods = fns.filter_map(|j| Some(ident_at(toks, j + 1)?.to_string()));
            let (name, methods) = (c.trait_name.clone()?, methods.collect());
            Some(TraitDecl { name, methods })
        })
        .collect();
    let mut items = find_braced_items(toks, &close_of);
    let structs = (items.iter().filter(|it| it.0 == "struct"))
        .map(|(_, name, _, (s, e))| (name.clone(), parse_fields(toks, *s, *e)))
        .collect();
    let fns = find_functions(toks, &close_of);
    let closures = find_closures(toks, path, &close_of);

    let fn_bodies: Vec<(usize, usize)> = fns.iter().map(|f| (f.body_start, f.body_end)).collect();
    let container_of = |start: usize, end: usize| -> (Option<String>, Option<String>) {
        // Innermost container strictly enclosing the body.
        containers
            .iter()
            .filter(|c| c.body_start <= start && end <= c.body_end)
            .max_by_key(|c| c.body_start)
            .map(|c| (c.self_ty.clone(), c.trait_name.clone()))
            .unwrap_or((None, None))
    };

    let mut functions = Vec::new();
    for f in &fns {
        // Token ranges of other functions nested strictly inside this body
        // are theirs, not ours.
        let nested: Vec<(usize, usize)> = fns
            .iter()
            .filter(|g| g.body_start > f.body_start && g.body_end <= f.body_end)
            .map(|g| (g.body_start, g.body_end))
            .collect();
        let in_test = test_regions
            .iter()
            .any(|&(s, e)| f.body_start >= s && f.body_end <= e);
        let (self_ty, trait_name) = container_of(f.body_start, f.body_end);
        let (events, locals) = extract_events(
            toks,
            f.body_start,
            f.body_end,
            &nested,
            &unlocked_spans,
            &open_of,
            &close_of,
            &closures,
        );
        functions.push(FnFacts {
            name: f.name.clone(),
            line: f.line,
            in_test,
            is_closure: false,
            self_ty,
            trait_name,
            params: parse_param_segments(toks, f.params_open + 1, f.params_close, &f.bounds),
            locals,
            events,
        });
    }

    // Closure pseudo-functions: bodies re-extracted standalone so the
    // resolver can see what a callback may acquire when a callee invokes it.
    for c in &closures {
        let nested: Vec<(usize, usize)> = fn_bodies
            .iter()
            .filter(|&&(s, e)| s > c.body_start && e <= c.body_end)
            .copied()
            .collect();
        let in_test = test_regions
            .iter()
            .any(|&(s, e)| c.start >= s && c.start < e);
        let (self_ty, trait_name) = container_of(c.body_start, c.body_end.max(c.body_start));
        let (events, locals) = extract_events(
            toks,
            c.body_start,
            c.body_end,
            &nested,
            &unlocked_spans,
            &open_of,
            &close_of,
            &closures,
        );
        functions.push(FnFacts {
            name: c.name.clone(),
            line: c.line,
            in_test,
            is_closure: true,
            self_ty,
            trait_name,
            params: parse_param_segments(toks, c.start + 1, c.params_end, &HashMap::new()),
            locals,
            events,
        });
    }

    let named_locks = find_named_locks(toks, &test_regions);
    items.extend(
        fns.iter()
            .map(|f| ("fn", f.name.clone(), f.line, (f.body_start, f.body_end))),
    );
    items.extend(containers.iter().filter_map(|c| {
        let line = toks[c.body_start - 1].line;
        Some(("impl", c.self_ty.clone()?, line, (c.body_start, c.body_end)))
    }));

    FileFacts {
        path: path.to_string(),
        functions,
        named_locks,
        allows,
        traits,
        structs,
        integration: is_integration_path(path),
        tokens: lexed.tokens,
        test_regions,
        items,
    }
}

/// `struct NAME .. { .. }` and `macro_rules! NAME { .. }` items.
fn find_braced_items(toks: &[Token], close_of: &HashMap<usize, usize>) -> Vec<Item> {
    let item = |i: usize| {
        let (kind, at) = match ident_at(toks, i)? {
            "struct" => ("struct", i + 1),
            "macro_rules" => ("macro", i + 2),
            _ => return None,
        };
        let after = match punct_at(toks, at + 1) {
            Some('<') => skip_angles(toks, at + 1),
            _ => at + 1,
        };
        let open = (after..toks.len())
            .find(|&k| matches!(toks[k].tok, Tok::Punct('{' | '(' | ';')))
            .filter(|&k| punct_at(toks, k) == Some('{'))?;
        let name = ident_at(toks, at)?.to_string();
        Some((kind, name, toks[i].line, (open + 1, *close_of.get(&open)?)))
    };
    (0..toks.len()).filter_map(item).collect()
}

/// Integration-test / example files: any `tests` or `examples` path
/// component (the corpus under `tests/corpus/` is excluded from the walk
/// before extraction ever sees it).
fn is_integration_path(path: &str) -> bool {
    path.replace('\\', "/")
        .split('/')
        .any(|c| c == "tests" || c == "examples")
}

/// Named-lock constructor sites: `named_mutex("...", ..)` /
/// `named_rwlock("...", ..)` anywhere, or `::named("...", ..)` (the tracked
/// constructors). Calls whose first argument is not a string literal (e.g.
/// the forwarding `Mutex::named(name, value)` inside `named_mutex` itself)
/// register nothing.
fn find_named_locks(toks: &[Token], test_regions: &[(usize, usize)]) -> Vec<NamedLock> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(ident) = ident_at(toks, i) else {
            continue;
        };
        let is_ctor = ident == "named_mutex"
            || ident == "named_rwlock"
            || (ident == "named"
                && i >= 2
                && punct_at(toks, i - 1) == Some(':')
                && punct_at(toks, i - 2) == Some(':'));
        if !is_ctor || punct_at(toks, i + 1) != Some('(') {
            continue;
        }
        if let Some(Tok::Lit(name)) = toks.get(i + 2).map(|t| &t.tok) {
            out.push(NamedLock {
                name: name.clone(),
                line: toks[i + 2].line,
                in_test: test_regions.iter().any(|&(s, e)| i >= s && i < e),
            });
        }
    }
    out
}

fn parse_allows(comments: &[(u32, String)]) -> HashMap<u32, Vec<String>> {
    let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
    for (line, text) in comments {
        // Only plain `//` comments register suppressions. The lexer stores
        // comment text starting after the `//`, so doc comments arrive with
        // a leading `/` (`///`) or `!` (`//!`) — those merely *describe* the
        // allow syntax and must not count as (dead) allows themselves.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(pos) = text.find("bolt-lint:") else {
            continue;
        };
        let rest = text[pos + "bolt-lint:".len()..].trim_start();
        let Some(list) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        allows
            .entry(*line)
            .or_default()
            .extend(list.split(',').map(|r| r.trim().to_string()));
    }
    allows
}

/// Match `(`/`)`, `{`/`}` and `[`/`]` pairs. Returns (open→close, close→open).
fn match_brackets(toks: &[Token]) -> (HashMap<usize, usize>, HashMap<usize, usize>) {
    let mut close_of = HashMap::new();
    let mut open_of = HashMap::new();
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if let Tok::Punct(c) = t.tok {
            match c {
                '(' | '{' | '[' => stack.push((c, i)),
                ')' | '}' | ']' => {
                    let want = match c {
                        ')' => '(',
                        '}' => '{',
                        _ => '[',
                    };
                    // Pop to the matching opener, tolerating imbalance.
                    while let Some((oc, oi)) = stack.pop() {
                        if oc == want {
                            close_of.insert(oi, i);
                            open_of.insert(i, oi);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    (close_of, open_of)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Index just past a balanced `<...>` group starting at the `<` at `i`.
/// A `>` preceded by `-` (the `->` arrow inside `Fn(..) -> T` bounds) does
/// not close the group.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('<') => depth += 1,
            Some('>') if punct_at(toks, j.wrapping_sub(1)) != Some('-') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Some(';') | Some('{') => return j, // malformed; bail
            _ => {}
        }
        j += 1;
    }
    j
}

/// If `i` is an identifier followed by `(` — optionally with a turbofish
/// `::<..>` between — return the index of that call paren.
fn call_paren_after(toks: &[Token], i: usize) -> Option<usize> {
    if punct_at(toks, i + 1) == Some('(') {
        return Some(i + 1);
    }
    if punct_at(toks, i + 1) == Some(':')
        && punct_at(toks, i + 2) == Some(':')
        && punct_at(toks, i + 3) == Some('<')
    {
        let after = skip_angles(toks, i + 3);
        if punct_at(toks, after) == Some('(') {
            return Some(after);
        }
    }
    None
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
fn find_test_regions(toks: &[Token], close_of: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if punct_at(toks, i) == Some('#') && punct_at(toks, i + 1) == Some('[') {
            let Some(&attr_end) = close_of.get(&(i + 1)) else {
                i += 1;
                continue;
            };
            let mut has_cfg = false;
            let mut has_test = false;
            for j in i + 2..attr_end {
                match ident_at(toks, j) {
                    Some("cfg") => has_cfg = true,
                    Some("test") => has_test = true,
                    _ => {}
                }
            }
            let only_test = attr_end == i + 3 && ident_at(toks, i + 2) == Some("test");
            if (has_cfg && has_test) || only_test {
                // Skip any further attributes, then cover the following item.
                let mut j = attr_end + 1;
                while punct_at(toks, j) == Some('#') && punct_at(toks, j + 1) == Some('[') {
                    match close_of.get(&(j + 1)) {
                        Some(&e) => j = e + 1,
                        None => break,
                    }
                }
                // Item extends to its first top-level `{ ... }` or `;`.
                let mut k = j;
                while k < toks.len() {
                    match toks[k].tok {
                        Tok::Punct('{') => {
                            let end = close_of.get(&k).copied().unwrap_or(toks.len() - 1);
                            regions.push((i, end + 1));
                            i = end;
                            break;
                        }
                        Tok::Punct(';') => {
                            regions.push((i, k + 1));
                            i = k;
                            break;
                        }
                        _ => k += 1,
                    }
                }
            }
            i = i.max(attr_end) + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// Paren spans of `MutexGuard::unlocked(...)` / `TrackedMutexGuard::unlocked(...)`
/// calls, inside which rule L1 does not fire (the guard is released).
fn find_unlocked_spans(toks: &[Token], close_of: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        if (name == "MutexGuard" || name == "TrackedMutexGuard")
            && punct_at(toks, i + 1) == Some(':')
            && punct_at(toks, i + 2) == Some(':')
            && ident_at(toks, i + 3) == Some("unlocked")
            && punct_at(toks, i + 4) == Some('(')
        {
            if let Some(&end) = close_of.get(&(i + 4)) {
                spans.push((i + 4, end));
            }
        }
    }
    spans
}

/// Read a type head starting at `i`: skip references, lifetimes, `mut`,
/// `dyn` and `impl`; unwrap `Arc`/`Rc`/`Box`; return the last path segment
/// (`bolt_core::CompactionPolicyKind` → `CompactionPolicyKind`,
/// `Arc<Mutex<T>>` → `Mutex`, `&dyn Env` → `Env`). `None` for tuples,
/// slices and fn pointers.
fn type_head(toks: &[Token], mut i: usize, end: usize) -> Option<String> {
    loop {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct('&')) | Some(Tok::Lifetime) => i += 1,
            Some(Tok::Ident(s)) if s == "mut" || s == "dyn" || s == "impl" => i += 1,
            _ => break,
        }
        if i >= end {
            return None;
        }
    }
    let mut last: Option<String> = None;
    while i < end {
        let Some(name) = ident_at(toks, i) else { break };
        last = Some(name.to_string());
        i += 1;
        if punct_at(toks, i) == Some('<') {
            if WRAPPER_TYPES.contains(&name) {
                // The wrapped type is the interesting one.
                return type_head(toks, i + 1, end);
            }
            i = skip_angles(toks, i);
        }
        if punct_at(toks, i) == Some(':') && punct_at(toks, i + 1) == Some(':') {
            i += 2;
            continue;
        }
        break;
    }
    last
}

/// `impl` blocks and `trait` bodies, as containers assigning `Self` /
/// trait context to the functions inside them.
fn find_containers(toks: &[Token], close_of: &HashMap<usize, usize>) -> Vec<Container> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        match ident_at(toks, i) {
            Some("impl") => {
                let mut j = i + 1;
                if punct_at(toks, j) == Some('<') {
                    j = skip_angles(toks, j);
                }
                let first = type_head(toks, j, toks.len());
                // Advance past the first path (type_head does not report
                // how far it read); scan for `for`, `where` or `{`.
                let mut k = j;
                let mut second: Option<String> = None;
                while k < toks.len() {
                    match &toks[k].tok {
                        Tok::Ident(s) if s == "for" => {
                            second = type_head(toks, k + 1, toks.len());
                        }
                        Tok::Punct('{') => break,
                        Tok::Punct(';') => break,
                        _ => {}
                    }
                    k += 1;
                }
                if punct_at(toks, k) == Some('{') {
                    if let Some(&end) = close_of.get(&k) {
                        let (self_ty, trait_name) = match second {
                            Some(ty) => (Some(ty), first),
                            None => (first, None),
                        };
                        out.push(Container {
                            self_ty,
                            trait_name,
                            body_start: k + 1,
                            body_end: end,
                        });
                    }
                }
                i = k + 1;
                continue;
            }
            Some("trait") => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let name = name.to_string();
                    let mut k = i + 2;
                    while k < toks.len() && punct_at(toks, k) != Some('{') {
                        if punct_at(toks, k) == Some(';') {
                            break;
                        }
                        k += 1;
                    }
                    if punct_at(toks, k) == Some('{') {
                        if let Some(&end) = close_of.get(&k) {
                            out.push(Container {
                                self_ty: None,
                                trait_name: Some(name),
                                body_start: k + 1,
                                body_end: end,
                            });
                        }
                    }
                    i = k + 1;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// `field: Type` pairs at depth 0 of a struct body.
fn parse_fields(toks: &[Token], start: usize, end: usize) -> HashMap<String, String> {
    let mut fields = HashMap::new();
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match punct_at(toks, i) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some('<') => depth += 1,
            Some('>') if punct_at(toks, i.wrapping_sub(1)) != Some('-') => depth -= 1,
            Some(':')
                if depth == 0
                    && punct_at(toks, i + 1) != Some(':')
                    && punct_at(toks, i.wrapping_sub(1)) != Some(':') =>
            {
                if let Some(fname) = ident_at(toks, i - 1) {
                    if let Some(ty) = type_head(toks, i + 1, end) {
                        fields.insert(fname.to_string(), ty);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    fields
}

struct FnSpan {
    name: String,
    line: u32,
    params_open: usize,
    params_close: usize,
    /// Generic-parameter bounds: `F` → `Fn` for `fn f<F: Fn()>(..)`.
    bounds: HashMap<String, String>,
    body_start: usize,
    body_end: usize, // exclusive
}

/// Locate every `fn name ... { body }` at any nesting depth.
fn find_functions(toks: &[Token], close_of: &HashMap<usize, usize>) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("fn") {
            if let Some(name) = ident_at(toks, i + 1) {
                let name = name.to_string();
                let line = toks[i].line;
                // Generic parameter bounds, then the parameter list `(`.
                let mut bounds = HashMap::new();
                let mut j = i + 2;
                if punct_at(toks, j) == Some('<') {
                    let end = skip_angles(toks, j);
                    parse_bounds(toks, j + 1, end.saturating_sub(1), &mut bounds);
                    j = end;
                }
                let params = if punct_at(toks, j) == Some('(') {
                    Some(j)
                } else {
                    None
                };
                if let Some(p) = params {
                    if let Some(&pend) = close_of.get(&p) {
                        // Body is the first `{` before any `;` after params.
                        let mut k = pend + 1;
                        while k < toks.len() {
                            match toks[k].tok {
                                Tok::Punct('<') => k = skip_angles(toks, k),
                                Tok::Punct('{') => {
                                    let end = close_of.get(&k).copied().unwrap_or(toks.len() - 1);
                                    fns.push(FnSpan {
                                        name,
                                        line,
                                        params_open: p,
                                        params_close: pend,
                                        bounds,
                                        body_start: k + 1,
                                        body_end: end,
                                    });
                                    break;
                                }
                                Tok::Punct(';') => break, // trait signature
                                _ => k += 1,
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// `T: Bound` pairs inside a generic parameter list (first bound only).
fn parse_bounds(toks: &[Token], start: usize, end: usize, out: &mut HashMap<String, String>) {
    let mut i = start;
    while i < end {
        if punct_at(toks, i) == Some(':') && punct_at(toks, i + 1) != Some(':') {
            if let Some(param) = ident_at(toks, i.wrapping_sub(1)) {
                if let Some(bound) = type_head(toks, i + 1, end) {
                    out.insert(param.to_string(), bound);
                }
            }
            // Skip to the next top-level comma.
            let mut depth = 0i32;
            while i < end {
                match punct_at(toks, i) {
                    Some('(') | Some('[') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some(',') if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
        }
        i += 1;
    }
}

/// `name: Type` segments separated by top-level commas in `[start, end)`:
/// a `fn`'s parameters, and closure parameter lists (`|a, b: &T|`), where untyped
/// parameters record `"?"`.
fn parse_param_segments(
    toks: &[Token],
    start: usize,
    end: usize,
    bounds: &HashMap<String, String>,
) -> Vec<(String, String)> {
    let mut params = Vec::new();
    let mut seg_start = start;
    let mut depth = 0i32;
    let mut i = start;
    while i <= end {
        let at_end = i == end;
        let split = at_end || (depth == 0 && punct_at(toks, i) == Some(','));
        if !split {
            match punct_at(toks, i) {
                Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                Some('>') if punct_at(toks, i.wrapping_sub(1)) != Some('-') => depth -= 1,
                _ => {}
            }
            i += 1;
            continue;
        }
        if i > seg_start {
            if let Some(p) = parse_one_param(toks, seg_start, i, bounds) {
                params.push(p);
            }
        }
        seg_start = i + 1;
        if at_end {
            break;
        }
        i += 1;
    }
    params
}

fn parse_one_param(
    toks: &[Token],
    start: usize,
    end: usize,
    bounds: &HashMap<String, String>,
) -> Option<(String, String)> {
    // Find the pattern/type colon (single `:` at depth 0).
    let mut depth = 0i32;
    let mut colon = None;
    let mut i = start;
    while i < end {
        match punct_at(toks, i) {
            Some('(') | Some('[') | Some('<') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('>') if punct_at(toks, i.wrapping_sub(1)) != Some('-') => depth -= 1,
            Some(':')
                if depth == 0
                    && punct_at(toks, i + 1) != Some(':')
                    && punct_at(toks, i.wrapping_sub(1)) != Some(':') =>
            {
                colon = Some(i);
                break;
            }
            _ => {}
        }
        i += 1;
    }
    match colon {
        Some(c) => {
            // Name: last identifier before the colon (`mut x: T`).
            let name = (start..c)
                .rev()
                .find_map(|j| ident_at(toks, j))?
                .to_string();
            if name == "self" {
                return None;
            }
            let ty = type_head(toks, c + 1, end)
                .map(|t| bounds.get(&t).cloned().unwrap_or(t))
                .unwrap_or_else(|| "?".into());
            Some((name, ty))
        }
        None => {
            // Untyped (closure param) or a bare `self`.
            let name = (start..end).find_map(|j| ident_at(toks, j))?.to_string();
            if name == "self" || name == "mut" {
                return None;
            }
            Some((name, "?".into()))
        }
    }
}

/// Closure literals, recorded as pseudo-functions. A `|` starts a closure
/// when the previous token cannot end an expression: `(`, `,`, `=`, `{`,
/// `move`, `return`, or start-of-file.
fn find_closures(toks: &[Token], path: &str, close_of: &HashMap<usize, usize>) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut i = 0;
    let starts_closure = |i: usize| -> bool {
        if i == 0 {
            return true;
        }
        match &toks[i - 1].tok {
            Tok::Punct('(') | Tok::Punct(',') | Tok::Punct('=') | Tok::Punct('{') => true,
            Tok::Ident(s) => s == "move" || s == "return" || s == "else",
            _ => false,
        }
    };
    while i < toks.len() {
        if punct_at(toks, i) == Some('|') && starts_closure(i) {
            // Parameter list ends at the next `|` (parameters never nest
            // pipes); `||` is an empty list.
            let mut pe = i + 1;
            while pe < toks.len() && punct_at(toks, pe) != Some('|') {
                if matches!(punct_at(toks, pe), Some(';') | Some('{')) {
                    break; // not a closure after all
                }
                pe += 1;
            }
            if punct_at(toks, pe) != Some('|') {
                i += 1;
                continue;
            }
            let mut body_start = pe + 1;
            // Explicit return type: `|x| -> T { .. }` — skip to the block.
            if punct_at(toks, body_start) == Some('-')
                && punct_at(toks, body_start + 1) == Some('>')
            {
                while body_start < toks.len() && punct_at(toks, body_start) != Some('{') {
                    body_start += 1;
                }
            }
            let (bs, be) = if punct_at(toks, body_start) == Some('{') {
                match close_of.get(&body_start) {
                    Some(&end) => (body_start + 1, end),
                    None => (body_start + 1, toks.len()),
                }
            } else {
                // Expression body: up to the first `,`/`)`/`;`/`}` at depth 0.
                let mut depth = 0i32;
                let mut j = body_start;
                while j < toks.len() {
                    match punct_at(toks, j) {
                        Some('(') | Some('[') | Some('{') => depth += 1,
                        Some(')') | Some(']') | Some('}') if depth > 0 => depth -= 1,
                        Some(')') | Some('}') | Some(',') | Some(';') => break,
                        _ => {}
                    }
                    j += 1;
                }
                (body_start, j)
            };
            let enclosing_call_paren = innermost_call_paren(toks, close_of, i);
            out.push(Closure {
                name: format!("{{closure:{}:{}}}", path, out.len() + 1),
                line: toks[i].line,
                start: i,
                params_end: pe,
                body_start: bs,
                body_end: be,
                enclosing_call_paren,
            });
            i = pe + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// The innermost call paren (a `(` directly preceded by an identifier)
/// strictly containing token `at`.
fn innermost_call_paren(
    toks: &[Token],
    close_of: &HashMap<usize, usize>,
    at: usize,
) -> Option<usize> {
    close_of
        .iter()
        .filter(|&(&open, &close)| {
            open < at
                && at < close
                && punct_at(toks, open) == Some('(')
                && open > 0
                && ident_at(toks, open - 1).is_some()
        })
        .map(|(&open, _)| open)
        .max()
}

/// Receiver identifier of a method call whose `.` is at `dot`.
fn receiver_of(toks: &[Token], open_of: &HashMap<usize, usize>, dot: usize) -> String {
    if dot == 0 {
        return "?".into();
    }
    match &toks[dot - 1].tok {
        Tok::Ident(s) => s.clone(),
        Tok::Punct(')') => {
            // `self.shard(key).lock()` — name the call before the parens.
            match open_of.get(&(dot - 1)) {
                Some(&open) if open > 0 => match &toks[open - 1].tok {
                    Tok::Ident(s) => s.clone(),
                    _ => "?".into(),
                },
                _ => "?".into(),
            }
        }
        _ => "?".into(),
    }
}

/// Record a local's type from `let x: T = ..`, `let x = T::ctor(..)` or
/// `let x = T { .. }` (uppercase path segment heuristics keep module paths
/// like `txn::decode(..)` out).
fn record_local_type(
    toks: &[Token],
    let_idx: usize,
    binding: &str,
    end: usize,
    locals: &mut HashMap<String, String>,
) {
    // Find the binding ident, then look at what follows.
    let mut i = let_idx + 1;
    if ident_at(toks, i) == Some("mut") {
        i += 1;
    }
    if ident_at(toks, i) != Some(binding) {
        return;
    }
    i += 1;
    if punct_at(toks, i) == Some(':') && punct_at(toks, i + 1) != Some(':') {
        if let Some(ty) = type_head(toks, i + 1, end) {
            locals.insert(binding.to_string(), ty);
        }
        return;
    }
    if punct_at(toks, i) != Some('=') {
        return;
    }
    i += 1;
    // `= Type { .. }` struct literal, or `= path::Type::ctor(..)`.
    let mut segments: Vec<String> = Vec::new();
    let mut j = i;
    while j < end {
        let Some(name) = ident_at(toks, j) else { break };
        segments.push(name.to_string());
        j += 1;
        if punct_at(toks, j) == Some('<')
            || (punct_at(toks, j) == Some(':')
                && punct_at(toks, j + 1) == Some(':')
                && punct_at(toks, j + 2) == Some('<'))
        {
            // Generic args (plain or turbofish) before the next segment.
            let at = if punct_at(toks, j) == Some('<') {
                j
            } else {
                j + 2
            };
            j = skip_angles(toks, at);
        }
        if punct_at(toks, j) == Some(':') && punct_at(toks, j + 1) == Some(':') {
            j += 2;
            continue;
        }
        break;
    }
    let uppercase = |s: &String| s.chars().next().is_some_and(char::is_uppercase);
    match (punct_at(toks, j), segments.len()) {
        // `= Type { .. }`
        (Some('{'), 1) if uppercase(&segments[0]) => {
            locals.insert(binding.to_string(), segments[0].clone());
        }
        // `= Type::ctor(..)` — the segment before the call is the type.
        (Some('('), n) if n >= 2 && uppercase(&segments[n - 2]) => {
            locals.insert(binding.to_string(), segments[n - 2].clone());
        }
        _ => {}
    }
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn extract_events(
    toks: &[Token],
    start: usize,
    end: usize,
    nested: &[(usize, usize)],
    unlocked_spans: &[(usize, usize)],
    open_of: &HashMap<usize, usize>,
    close_of: &HashMap<usize, usize>,
    closures: &[Closure],
) -> (Vec<Event>, HashMap<String, String>) {
    let mut events = Vec::new();
    let mut locals: HashMap<String, String> = HashMap::new();
    let mut scopes: Vec<Vec<Held>> = vec![Vec::new()];
    let mut pending_let: Option<String> = None;
    // L6 statement state: does the current statement bind/consume a value,
    // and is it a `let _ = ..` discard?
    let mut stmt_bound = false;
    let mut discard_let = false;

    let held_now =
        |scopes: &Vec<Vec<Held>>| -> Vec<Held> { scopes.iter().flatten().cloned().collect() };
    let in_unlocked = |i: usize| unlocked_spans.iter().any(|&(s, e)| i > s && i < e);
    let closure_args_of = |paren: usize| -> Vec<String> {
        closures
            .iter()
            .filter(|c| c.enclosing_call_paren == Some(paren))
            .map(|c| c.name.clone())
            .collect()
    };
    // How a fallible call's result is consumed, judged from the token after
    // its closing paren. Returns the discard mode, if any.
    let discarded = |paren: usize, discard_let: bool, stmt_bound: bool| -> Option<&'static str> {
        let after = close_of.get(&paren).copied()? + 1;
        match punct_at(toks, after) {
            Some('?') => None, // propagated
            Some('.')
                if ident_at(toks, after + 1) == Some("ok")
                    && punct_at(toks, after + 2) == Some('(')
                    && punct_at(toks, after + 3) == Some(')')
                    && !matches!(punct_at(toks, after + 4), Some('.') | Some('?'))
                    && (discard_let || !stmt_bound) =>
            {
                Some(".ok()")
            }
            // A default in place of the result reads a failure as success,
            // however the default is used.
            Some('.')
                if ident_at(toks, after + 1) == Some("unwrap_or_default")
                    && punct_at(toks, after + 2) == Some('(')
                    && punct_at(toks, after + 3) == Some(')') =>
            {
                Some(".unwrap_or_default()")
            }
            Some(';') if discard_let => Some("let _ ="),
            Some(';') if !stmt_bound => Some("unused return"),
            _ => None,
        }
    };

    let mut i = start;
    while i < end {
        // Skip nested function bodies — their events are their own. (An
        // empty body has start == end; always make progress.)
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            i = ne.max(i + 1);
            continue;
        }
        match &toks[i].tok {
            Tok::Punct('{') => {
                scopes.push(Vec::new());
                pending_let = None;
                stmt_bound = false;
                discard_let = false;
            }
            Tok::Punct('}') => {
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Vec::new());
                }
                stmt_bound = false;
                discard_let = false;
            }
            Tok::Punct(';') => {
                pending_let = None;
                stmt_bound = false;
                discard_let = false;
            }
            Tok::Punct('=') => stmt_bound = true,
            Tok::Ident(id) if id == "let" => {
                pending_let = match toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(m)) if m == "mut" => match toks.get(i + 2).map(|t| &t.tok) {
                        Some(Tok::Ident(b)) if punct_at(toks, i + 3) != Some('(') => {
                            Some(b.clone())
                        }
                        _ => None,
                    },
                    Some(Tok::Ident(b)) if punct_at(toks, i + 2) != Some('(') => Some(b.clone()),
                    _ => None,
                };
                if let Some(b) = &pending_let {
                    if b == "_" {
                        discard_let = true;
                    } else {
                        record_local_type(toks, i, b, end.min(i + 64), &mut locals);
                    }
                }
            }
            Tok::Ident(id) if id == "return" || id == "if" || id == "while" || id == "match" => {
                stmt_bound = true;
            }
            Tok::Punct('.') => {
                if let Some(method) = ident_at(toks, i + 1) {
                    let line = toks[i + 1].line;
                    if let Some(paren) = call_paren_after(toks, i + 1) {
                        let method = method.to_string();
                        let receiver = receiver_of(toks, open_of, i);
                        let zero_arg = punct_at(toks, paren + 1) == Some(')');
                        if zero_arg && ACQUIRE_METHODS.contains(&method.as_str()) {
                            let held = held_now(&scopes);
                            events.push(Event::Acquire {
                                receiver: receiver.clone(),
                                line,
                                held,
                            });
                            // Bound guard only when the statement is exactly
                            // `let g = <recv>.lock();` — the acquisition's
                            // `()` immediately followed by `;`.
                            if let Some(binding) = pending_let.clone() {
                                if punct_at(toks, paren + 2) == Some(';') {
                                    scopes.last_mut().unwrap().push(Held {
                                        binding,
                                        receiver,
                                        acquired_line: line,
                                    });
                                    pending_let = None;
                                }
                            }
                            i = paren + 1;
                            continue;
                        }
                        if FALLIBLE_IO_METHODS.contains(&method.as_str()) {
                            if let Some(how) = discarded(paren, discard_let, stmt_bound) {
                                events.push(Event::Discard {
                                    method: method.clone(),
                                    how,
                                    line,
                                });
                            }
                        }
                        if BARRIER_METHODS.contains(&method.as_str()) {
                            events.push(Event::Barrier {
                                method: method.clone(),
                                receiver,
                                line,
                                in_unlocked: in_unlocked(i),
                                held: held_now(&scopes),
                            });
                            i = paren;
                            continue;
                        }
                        if PANIC_METHODS.contains(&method.as_str()) {
                            events.push(Event::Panic {
                                what: format!(".{method}()"),
                                line,
                            });
                            i = paren;
                            continue;
                        }
                        events.push(Event::Call {
                            name: method,
                            recv: (receiver != "?").then_some(receiver),
                            closure_args: closure_args_of(paren),
                            line,
                            held: held_now(&scopes),
                        });
                        i = paren;
                        continue;
                    }
                }
            }
            Tok::Ident(name) => {
                // Macro invocations: only the panic family matters.
                if punct_at(toks, i + 1) == Some('!') && PANIC_MACROS.contains(&name.as_str()) {
                    events.push(Event::Panic {
                        what: format!("{name}!"),
                        line: toks[i].line,
                    });
                    i += 2;
                    continue;
                }
                // Free / associated calls: `name(...)` not preceded by `.`
                // (method calls handled above) or `fn`.
                if let Some(paren) = call_paren_after(toks, i) {
                    if !CALL_KEYWORDS.contains(&name.as_str())
                        && (i == 0 || ident_at(toks, i - 1) != Some("fn"))
                        && punct_at(toks, i.wrapping_sub(1)) != Some('.')
                    {
                        // `drop(guard)` explicitly releases a binding.
                        if name == "drop" && punct_at(toks, paren + 2) == Some(')') {
                            if let Some(arg) = ident_at(toks, paren + 1) {
                                let arg = arg.to_string();
                                for scope in scopes.iter_mut() {
                                    scope.retain(|h| h.binding != arg);
                                }
                                i = paren + 3;
                                continue;
                            }
                        }
                        events.push(Event::Call {
                            name: name.clone(),
                            recv: None,
                            closure_args: closure_args_of(paren),
                            line: toks[i].line,
                            held: held_now(&scopes),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    (events, locals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract("test.rs", src)
    }

    #[test]
    fn guard_binding_and_extent() {
        let f = facts(
            r#"
fn f(&self) {
    {
        let g = self.state.lock();
        self.file.sync()?;
    }
    self.file.sync()?;
}
"#,
        );
        let ev = &f.functions[0].events;
        let barriers: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                Event::Barrier { held, .. } => Some(held.len()),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![1, 0], "guard dies at block end");
    }

    #[test]
    fn temporary_guard_not_bound() {
        let f = facts("fn f(&self) { let n = self.versions.lock().next(); self.file.sync()?; }");
        let ev = &f.functions[0].events;
        assert!(ev.iter().any(|e| matches!(e, Event::Acquire { .. })));
        let held = ev
            .iter()
            .find_map(|e| match e {
                Event::Barrier { held, .. } => Some(held.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(held, 0, "chained call is not a guard binding");
    }

    #[test]
    fn drop_releases_binding() {
        let f = facts("fn f(&self) { let g = self.state.lock(); drop(g); self.file.sync()?; }");
        let held = f.functions[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::Barrier { held, .. } => Some(held.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(held, 0);
    }

    #[test]
    fn cfg_test_regions_marked() {
        let f = facts(
            r#"
fn live(&self) { self.x.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
    #[test]
    fn t() { y.unwrap(); }
}
"#,
        );
        let by_name: HashMap<_, _> = f
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.in_test))
            .collect();
        assert!(!by_name["live"]);
        assert!(by_name["helper"]);
        assert!(by_name["t"]);
    }

    #[test]
    fn unlocked_span_suppresses() {
        let f = facts(
            r#"
fn f(&self) {
    let mut state = self.state.lock();
    MutexGuard::unlocked(&mut state, || { wal.sync() })?;
    wal.sync()?;
}
"#,
        );
        let flags: Vec<bool> = f.functions[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Barrier { in_unlocked, .. } => Some(*in_unlocked),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn allow_comments_parsed() {
        let f = facts("// bolt-lint: allow(lock-order, unsynced-commit)\nfn f() {}\n");
        assert!(f.allowed("lock-order", 1));
        assert!(f.allowed("unsynced-commit", 2), "line-above allows apply");
        assert!(!f.allowed("guard-across-barrier", 1));
        assert_eq!(f.allowed_at("lock-order", 2), Some(1));
    }

    #[test]
    fn doc_comments_do_not_register_allows() {
        let f = facts(
            "/// Suppress with `// bolt-lint: allow(lock-order)`.\n\
             //! Module docs: bolt-lint: allow(unsynced-commit) syntax.\n\
             fn f() {}\n",
        );
        assert!(f.allows.is_empty(), "doc comments must not create allows");
    }

    #[test]
    fn nested_fn_events_not_double_counted() {
        let f = facts("fn outer() { fn inner() { x.unwrap(); } }");
        let outer = f.functions.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.events.is_empty());
        let inner = f.functions.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.events.len(), 1);
    }

    #[test]
    fn named_lock_registrations_extracted() {
        let f = facts(
            r#"
fn build() {
    let a = named_mutex("core.state", State::new());
    let b = named_rwlock("core.table", ());
    let c = TrackedMutex::named("core.tracked", ());
    let d = Mutex::named(name, value); // forwarded ident, not a literal
}
#[cfg(test)]
mod tests {
    fn t() { let x = named_mutex("test.only", ()); }
}
"#,
        );
        let live: Vec<&str> = f
            .named_locks
            .iter()
            .filter(|l| !l.in_test)
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(live, vec!["core.state", "core.table", "core.tracked"]);
        assert!(f
            .named_locks
            .iter()
            .any(|l| l.in_test && l.name == "test.only"));
    }

    #[test]
    fn receiver_through_call_parens() {
        let f = facts("fn f(&self) { let g = self.shard(key).lock(); }");
        let recv = f.functions[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::Acquire { receiver, .. } => Some(receiver.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(recv, "shard");
    }

    #[test]
    fn impl_blocks_assign_self_and_trait() {
        let f = facts(
            r#"
impl Db {
    fn close(&self) {}
}
impl CompactionPolicy for TieredPolicy {
    fn pick(&self) {}
}
impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut Formatter) {}
}
trait Env {
    fn sync(&self) -> Result<()>;
    fn default_helper(&self) { x.unwrap(); }
}
"#,
        );
        let by_name: HashMap<&str, &FnFacts> =
            f.functions.iter().map(|g| (g.name.as_str(), g)).collect();
        assert_eq!(by_name["close"].self_ty.as_deref(), Some("Db"));
        assert_eq!(by_name["close"].trait_name, None);
        assert_eq!(by_name["pick"].self_ty.as_deref(), Some("TieredPolicy"));
        assert_eq!(
            by_name["pick"].trait_name.as_deref(),
            Some("CompactionPolicy")
        );
        assert_eq!(by_name["fmt"].self_ty.as_deref(), Some("ShardedDb"));
        assert_eq!(by_name["fmt"].trait_name.as_deref(), Some("Debug"));
        assert_eq!(by_name["default_helper"].trait_name.as_deref(), Some("Env"));
        assert_eq!(by_name["default_helper"].self_ty, None);
        let env = f.traits.iter().find(|t| t.name == "Env").unwrap();
        assert!(env.methods.contains("sync") && env.methods.contains("default_helper"));
    }

    #[test]
    fn param_and_local_types_with_nested_generics() {
        let f = facts(
            r#"
fn f(a: &Mutex<State>, b: Arc<Mutex<TxnLog>>, c: &dyn Env, d: impl CompactionPolicy, e: &[u8]) {
    let log = TxnLog::create(&env, path);
    let marker = ShardTxnMarker { txn_id, shard_bitmap };
    let opts: Options = defaults();
    let lower = txn::decode(&rec);
}
"#,
        );
        let g = &f.functions[0];
        let params: HashMap<_, _> = g.params.iter().cloned().collect();
        assert_eq!(params["a"], "Mutex");
        assert_eq!(params["b"], "Mutex", "Arc wrapper unwrapped");
        assert_eq!(params["c"], "Env", "dyn stripped");
        assert_eq!(params["d"], "CompactionPolicy", "impl Trait arg");
        assert_eq!(params["e"], "?", "slices have no type head");
        assert_eq!(g.locals["log"], "TxnLog", "Type::ctor call");
        assert_eq!(g.locals["marker"], "ShardTxnMarker", "struct literal");
        assert_eq!(g.locals["opts"], "Options", "let ascription");
        assert!(!g.locals.contains_key("lower"), "module path is not a type");
    }

    #[test]
    fn generic_bounds_map_params() {
        let f = facts("fn helper<F: Fn()>(state: &Mutex<S>, callback: F) { callback(); }");
        let params: HashMap<_, _> = f.functions[0].params.iter().cloned().collect();
        assert_eq!(params["callback"], "Fn");
    }

    #[test]
    fn struct_fields_indexed() {
        let f = facts(
            r#"
pub struct ShardedDb {
    name: String,
    shards: Vec<Arc<Db>>,
    epoch: RwLock<()>,
    commit: Mutex<u64>,
    policy: Arc<dyn CompactionPolicy>,
}
struct Unit;
struct Tuple(u32, u32);
"#,
        );
        let fields = &f.structs["ShardedDb"];
        assert_eq!(fields["commit"], "Mutex");
        assert_eq!(fields["policy"], "CompactionPolicy");
        assert_eq!(fields["shards"], "Vec");
        assert!(!f.structs.contains_key("Tuple"));
    }

    #[test]
    fn turbofish_calls_detected() {
        let f =
            facts("fn f(&self) { let v = xs.collect::<Vec<_>>(); parse::<u32>(text); s.lock(); }");
        let names: Vec<String> = f.functions[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"collect".to_string()), "method turbofish");
        assert!(names.contains(&"parse".to_string()), "free-fn turbofish");
        assert!(
            f.functions[0]
                .events
                .iter()
                .any(|e| matches!(e, Event::Acquire { .. })),
            "acquire after turbofish still seen"
        );
    }

    #[test]
    fn raw_strings_do_not_derail_extraction() {
        let f = facts(
            r###"
fn f(&self) {
    let re = r#"a "lock()" b"#;
    let g = self.state.lock();
    self.file.sync()?;
}
"###,
        );
        let held = f.functions[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::Barrier { held, .. } => Some(held.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(held, 1, "raw string is opaque; guard still tracked");
    }

    #[test]
    fn closure_args_recorded_on_calls_and_pseudo_fns_extracted() {
        let f = facts(
            r#"
fn caller(&self) {
    helper(state, || {
        let v = versions.lock();
        drop(v);
    });
}
"#,
        );
        let caller = f.functions.iter().find(|g| g.name == "caller").unwrap();
        let call = caller
            .events
            .iter()
            .find_map(|e| match e {
                Event::Call {
                    name, closure_args, ..
                } if name == "helper" => Some(closure_args.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(call.len(), 1, "closure literal recorded as an argument");
        let pseudo = f.functions.iter().find(|g| g.is_closure).unwrap();
        assert_eq!(pseudo.name, call[0]);
        assert!(
            pseudo
                .events
                .iter()
                .any(|e| matches!(e, Event::Acquire { receiver, .. } if receiver == "versions")),
            "closure body extracted standalone"
        );
        assert!(
            caller
                .events
                .iter()
                .any(|e| matches!(e, Event::Acquire { receiver, .. } if receiver == "versions")),
            "closure body also stays inline in the enclosing function"
        );
    }

    #[test]
    fn method_chain_ending_in_closure_arg() {
        let f = facts("fn f(&self) { items.iter().map(|x| x.lock()).count(); }");
        let main = &f.functions[0];
        let map_call = main.events.iter().find_map(|e| match e {
            Event::Call {
                name, closure_args, ..
            } if name == "map" => Some(closure_args.clone()),
            _ => None,
        });
        assert_eq!(map_call.unwrap().len(), 1);
        let pseudo = f.functions.iter().find(|g| g.is_closure).unwrap();
        assert!(pseudo
            .events
            .iter()
            .any(|e| matches!(e, Event::Acquire { .. })));
    }

    #[test]
    fn closure_pipe_is_not_binary_or() {
        let f = facts("fn f() { let x = a | b; let y = flags.fold(0, |acc, v| acc | v); }");
        let closures: Vec<_> = f.functions.iter().filter(|g| g.is_closure).collect();
        assert_eq!(closures.len(), 1, "only the fold callback is a closure");
    }

    #[test]
    fn discarded_fallible_results_detected() {
        let f = facts(
            r#"
fn f(&self) {
    let _ = self.file.sync();
    self.wal.append(rec).ok();
    self.manifest.add_record(rec);
    self.file.sync()?;
    let r = self.file.sync();
    let _ = self.file.sync()?;
    for name in self.env.list_dir(dir).unwrap_or_default() {}
    let names = self.env.list_dir(dir)?;
}
"#,
        );
        let discards: Vec<(String, &str)> = f.functions[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Discard { method, how, .. } => Some((method.clone(), *how)),
                _ => None,
            })
            .collect();
        assert_eq!(
            discards,
            vec![
                ("sync".to_string(), "let _ ="),
                ("append".to_string(), ".ok()"),
                ("add_record".to_string(), "unused return"),
                ("list_dir".to_string(), ".unwrap_or_default()"),
            ],
            "`?`-propagated and bound results are not discards"
        );
    }
}
