//! The bolt-lint rules (DESIGN.md §10):
//!
//! - **L1 `guard-across-barrier`** — a lock guard binding live across an
//!   env-layer `sync`/`ordering_barrier`/`append`/`add_record` call.
//! - **L2 `lock-order`** — acquisition edges vs the declared global order.
//! - **L3 `unwrap-in-crash-path`** — panics in recovery/compaction/WAL code.
//! - **L4 `unsynced-commit`** — MANIFEST append durability ordering.
//! - **L5 `lock-registry`** — named-lock constructors vs `[order].locks`.
//! - **L6 `swallowed-io-error`** — discarded fallible I/O `Result`s in
//!   crash-path / commit-protocol / 2PC modules.
//! - **L7 `decide-before-apply`** — the 2PC commit-point discipline in
//!   `crates/sharded`: the prepare round's join before any apply.
//! - **`architecture`** — `[architecture]` rules: a token pattern's exact
//!   count in a scope.
//! - **`dead-allow`** (warn) — suppression comments that suppress nothing.
//!
//! Cross-function reasoning (L2) runs on a type-aware call graph: calls are
//! resolved through the receiver's type when the extractor recovered one
//! (impl blocks, struct fields, params, locals), through *all* implementors
//! when only the trait is known (a sound over-approximation for lock-order
//! edges), by unique name as a last resort, and closures passed as
//! arguments become edges from the locks the callee holds at its callback
//! invocation into the closure body's acquisitions.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::config::Config;
use crate::facts::{Event, FileFacts, FnFacts};
use crate::lexer::{lex, Tok, Token};

/// L1: a lock guard binding live across an env-layer
/// `sync`/`ordering_barrier`/`append`/`add_record` call. WAL and compaction
/// I/O must run outside the engine mutex (the PR-1 group-commit invariant);
/// `MutexGuard::unlocked(...)` spans are exempt.
pub const RULE_GUARD_ACROSS_BARRIER: &str = "guard-across-barrier";
/// L2: every recorded acquisition edge (lock B taken while A held — intra-
/// function, through a resolvable call, or through a closure invoked by the
/// callee) must agree with the global order declared in
/// `lint/lock_order.toml`; any cycle in the edge graph is rejected even
/// among undeclared locks.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// L3: `unwrap`/`expect`/`panic!`-family in recovery/compaction/WAL modules
/// (`[modules].crash_path`) outside `#[cfg(test)]` — crash-path code must
/// return errors, not panic.
///
/// L3 sees only the calls written in the module. It cannot see a slice
/// index out of range (a decoded level used as `levels[level]`), nor an
/// `assert!` inside a callee (`extract_user_key` on a key shorter than its
/// tag). The damage tests guard those: every truncation, bit flip and
/// `0x00`/`0xFF` byte of a block (`every_damaged_block_is_ok_or_corruption`),
/// a table tail (`a_flipped_bit_anywhere_in_the_tail_is_corruption_or_harmless`),
/// a MANIFEST edit (`every_damaged_edit_is_ok_or_corruption`), a WAL record
/// (`every_damaged_wal_record_is_ok_or_corruption`) and a `SHARDS` file
/// (`every_damaged_shards_file_is_ok_or_corruption`) is `Ok` or
/// `Corruption`, never a panic.
pub const RULE_UNWRAP_IN_CRASH_PATH: &str = "unwrap-in-crash-path";
/// L4: in commit-protocol modules, a MANIFEST append must be dominated by a
/// sync of every data file appended earlier in the function (O1), and
/// followed by a sync of the MANIFEST writer itself (the commit point, O2).
pub const RULE_UNSYNCED_COMMIT: &str = "unsynced-commit";
/// L5: every `named_mutex`/`named_rwlock`/`::named` constructor name must
/// appear in `[order].locks`, and every declared lock in a namespace that
/// registers names must actually be constructed somewhere — the static
/// order and the runtime witness cannot drift.
pub const RULE_LOCK_REGISTRY: &str = "lock-registry";
/// L6: a fallible env/WAL/MANIFEST call (`sync`, `ordering_barrier`,
/// `append`, `add_record`, `rename_file`, `remove_file`, `list_dir`) whose
/// `Result` is discarded via `let _ =`, a terminal `.ok()`, an unused return,
/// or `.unwrap_or_default()` (a failed listing read as an empty directory),
/// inside crash-path, commit-protocol, or 2PC modules. A swallowed I/O error
/// there silently voids the durability argument.
pub const RULE_SWALLOWED_IO_ERROR: &str = "swallowed-io-error";
/// L7: in `crates/sharded` (`[modules].twopc_path`), any call that applies
/// a staged slice (`txn_apply`) must be dominated by a `join_prepares(..)`
/// call in the same function — the join that returns once every
/// participant's prepare is durable, the commit point (the A1/A2
/// discipline of DESIGN.md §12). The open's resolution, which judges the
/// durable prepares and floors instead, carries a reviewed allow.
pub const RULE_DECIDE_BEFORE_APPLY: &str = "decide-before-apply";
/// The `[architecture]` rules of `lint/lock_order.toml`: in a scope's
/// non-test tokens (comments, string contents and test items never count),
/// a token pattern occurs exactly N times (0 forbids it). A scope that
/// selects no code is a finding too, so a rename cannot blind its rule.
pub const RULE_ARCHITECTURE: &str = "architecture";
/// Warn-level: a `// bolt-lint: allow(<rule>)` comment that suppressed no
/// finding of that rule. Dead suppressions hide nothing but erode trust in
/// the live ones; delete them. (Not itself suppressible.)
pub const RULE_DEAD_ALLOW: &str = "dead-allow";

/// Methods the 2PC apply rule treats as applying a staged slice.
const APPLY_METHODS: [&str; 1] = ["txn_apply"];
/// Methods the 2PC apply rule treats as the commit point: the join of the
/// prepare round.
const DECIDE_METHODS: [&str; 1] = ["join_prepares"];

/// Finding severity: errors fail the build, warnings only report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails `bolt-lint check` (exit code 1).
    Error,
    /// Reported but does not fail the check (dead suppressions).
    Warn,
}

impl Severity {
    /// Lowercase label, as emitted in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, as analyzed.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule slug (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Error findings fail the check; warnings are advisory.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

fn error(file: &FileFacts, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.path.clone(),
        line,
        rule,
        severity: Severity::Error,
        message,
    }
}

/// Is this function's code live (linted)? `#[cfg(test)]` unit tests are
/// exempt — they may deliberately exercise bad orders — but integration
/// tests and examples ship crash-consistency claims and are held to the
/// same rules.
fn live(file: &FileFacts, f: &FnFacts) -> bool {
    !f.in_test || file.integration
}

/// Run all rules over the extracted facts. Findings suppressed by allow
/// comments are dropped here (and the allows that earned their keep are
/// recorded); allow comments that suppressed nothing come back as
/// warn-level `dead-allow` findings. The remainder are sorted by file/line.
pub fn run(files: &[FileFacts], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        guard_across_barrier(file, cfg, &mut findings);
        unwrap_in_crash_path(file, cfg, &mut findings);
        unsynced_commit(file, cfg, &mut findings);
        swallowed_io_error(file, cfg, &mut findings);
        decide_before_apply(file, cfg, &mut findings);
    }
    lock_order(files, cfg, &mut findings);
    lock_registry(files, cfg, &mut findings);
    architecture(files, cfg, &mut findings);

    // Suppression: drop allowed findings, remembering which allow comment
    // lines earned their keep (per rule).
    let mut used: HashSet<(String, u32, String)> = HashSet::new();
    findings.retain(|f| {
        let Some(ff) = files.iter().find(|ff| ff.path == f.file) else {
            return true;
        };
        match ff.allowed_at(f.rule, f.line) {
            Some(comment_line) => {
                used.insert((f.file.clone(), comment_line, f.rule.to_string()));
                false
            }
            None => true,
        }
    });

    // Dead suppressions: every (line, rule) allow entry that suppressed
    // nothing. Deliberately not suppressible itself.
    for file in files {
        let mut lines: Vec<&u32> = file.allows.keys().collect();
        lines.sort();
        for &line in lines {
            for rule in &file.allows[&line] {
                if !used.contains(&(file.path.clone(), line, rule.clone())) {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line,
                        rule: RULE_DEAD_ALLOW,
                        severity: Severity::Warn,
                        message: format!(
                            "`bolt-lint: allow({rule})` suppresses no `{rule}` finding — delete \
                             the stale comment"
                        ),
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

fn path_matches(path: &str, suffixes: &[String]) -> bool {
    let normalized = path.replace('\\', "/");
    suffixes.iter().any(|s| {
        if s.ends_with('/') {
            normalized.contains(s.as_str())
        } else {
            normalized.ends_with(s.as_str())
        }
    })
}

/// L1: a live guard binding across an env-layer barrier call. Closure
/// pseudo-functions are skipped — their events are also present inline in
/// the enclosing function, which is where this fires.
fn guard_across_barrier(file: &FileFacts, cfg: &Config, out: &mut Vec<Finding>) {
    for f in &file.functions {
        if !live(file, f) || f.is_closure {
            continue;
        }
        for ev in &f.events {
            let Event::Barrier {
                method,
                line,
                in_unlocked,
                held,
                ..
            } = ev
            else {
                continue;
            };
            if *in_unlocked || held.is_empty() {
                continue;
            }
            let g = &held[0];
            out.push(error(
                file,
                *line,
                RULE_GUARD_ACROSS_BARRIER,
                format!(
                    "`.{method}(..)` while guard `{}` (lock `{}`, acquired line {}) is live in \
                     `{}` — run barriers/appends outside the lock (MutexGuard::unlocked)",
                    g.binding,
                    cfg.canonical(&g.receiver),
                    g.acquired_line,
                    f.name,
                ),
            ));
        }
    }
}

/// L3: panic-family call in a crash-path module outside `#[cfg(test)]`.
fn unwrap_in_crash_path(file: &FileFacts, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(&file.path, &cfg.crash_path) {
        return;
    }
    for f in &file.functions {
        if !live(file, f) || f.is_closure {
            continue;
        }
        for ev in &f.events {
            if let Event::Panic { what, line } = ev {
                out.push(error(
                    file,
                    *line,
                    RULE_UNWRAP_IN_CRASH_PATH,
                    format!(
                        "`{what}` in crash-path function `{}` — recovery/compaction/WAL code \
                         must return errors, not panic",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// L4: MANIFEST append ordering inside commit-protocol modules.
fn unsynced_commit(file: &FileFacts, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(&file.path, &cfg.commit_path) {
        return;
    }
    let is_manifest = |recv: &str| recv.to_ascii_lowercase().contains("manifest");
    let is_sync = |m: &str| m == "sync" || m == "ordering_barrier";
    let is_append = |m: &str| m == "append" || m == "add_record";
    for f in &file.functions {
        if !live(file, f) || f.is_closure {
            continue;
        }
        let barriers: Vec<(usize, &str, &str, u32)> = f
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Event::Barrier {
                    method,
                    receiver,
                    line,
                    ..
                } => Some((i, method.as_str(), receiver.as_str(), *line)),
                _ => None,
            })
            .collect();
        for &(p, method, recv, line) in &barriers {
            if !(is_append(method) && is_manifest(recv)) {
                continue;
            }
            // (a) The MANIFEST writer itself must be synced afterwards — the
            // commit point.
            let committed = barriers
                .iter()
                .any(|&(q, m, r, _)| q > p && is_sync(m) && r == recv);
            if !committed {
                out.push(error(
                    file,
                    line,
                    RULE_UNSYNCED_COMMIT,
                    format!(
                        "MANIFEST append on `{recv}` in `{}` has no following `.sync()` on the \
                         same writer — the commit point never becomes durable (O2)",
                        f.name
                    ),
                ));
            }
            // (b) Every data file appended earlier in this function must be
            // synced before the MANIFEST append (O1).
            let mut last_append: BTreeMap<&str, usize> = BTreeMap::new();
            for &(q, m, r, _) in &barriers {
                if q < p && is_append(m) && !is_manifest(r) {
                    last_append.insert(r, q);
                }
            }
            for (r, &q) in &last_append {
                let synced_between = barriers
                    .iter()
                    .any(|&(s, m, r2, _)| s > q && s < p && is_sync(m) && r2 == *r);
                if !synced_between {
                    out.push(error(
                        file,
                        line,
                        RULE_UNSYNCED_COMMIT,
                        format!(
                            "MANIFEST append on `{recv}` in `{}` is not dominated by a sync of \
                             `{r}` (appended earlier in this function) — data must be durable \
                             before the commit record (O1)",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// L6: discarded fallible I/O results in crash-path, commit-protocol, or
/// 2PC modules. The extractor already classified the discard shape; this
/// rule only scopes it to the modules where a swallowed error voids the
/// durability argument.
fn swallowed_io_error(file: &FileFacts, cfg: &Config, out: &mut Vec<Finding>) {
    let in_scope = path_matches(&file.path, &cfg.crash_path)
        || path_matches(&file.path, &cfg.commit_path)
        || path_matches(&file.path, &cfg.twopc_path);
    if !in_scope {
        return;
    }
    for f in &file.functions {
        if !live(file, f) || f.is_closure {
            continue;
        }
        for ev in &f.events {
            if let Event::Discard { method, how, line } = ev {
                out.push(error(
                    file,
                    *line,
                    RULE_SWALLOWED_IO_ERROR,
                    format!(
                        "`.{method}(..)` result discarded via `{how}` in `{}` — a swallowed I/O \
                         error here voids the durability argument; propagate it (`?`) or handle \
                         it explicitly",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// L7: in 2PC modules, applying a staged slice must be dominated by the
/// prepare round's join in the same function (events are in source order, so
/// "earlier event" approximates domination for the straight-line commit
/// paths this workspace writes).
fn decide_before_apply(file: &FileFacts, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(&file.path, &cfg.twopc_path) {
        return;
    }
    for f in &file.functions {
        if !live(file, f) || f.is_closure {
            continue;
        }
        let mut decided = false;
        for ev in &f.events {
            let Event::Call { name, line, .. } = ev else {
                continue;
            };
            if DECIDE_METHODS.contains(&name.as_str()) {
                decided = true;
            } else if APPLY_METHODS.contains(&name.as_str()) && !decided {
                out.push(error(
                    file,
                    *line,
                    RULE_DECIDE_BEFORE_APPLY,
                    format!(
                        "`.{name}(..)` in `{}` is not dominated by `join_prepares(..)` — a \
                         shard must never apply a staged slice before every participant's \
                         prepare is durable (DESIGN.md §12 A1/A2)",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// L5: the named-lock registry and the declared order must agree.
///
/// Forward: every non-test `named_mutex`/`named_rwlock`/`::named` constructor
/// name must appear in `[order].locks` (checked only when an order is
/// declared). Reverse: every declared lock whose namespace (the prefix
/// before the first `.`) registers at least one name must itself be
/// registered somewhere — a declared-but-never-constructed lock in a
/// registering namespace is stale. Namespaces with no registrations at all
/// (locks named only via `[aliases]`) are exempt from the reverse check.
fn lock_registry(files: &[FileFacts], cfg: &Config, out: &mut Vec<Finding>) {
    let registered: Vec<(&str, &str, u32)> = files
        .iter()
        .flat_map(|file| {
            file.named_locks
                .iter()
                .filter(|l| !l.in_test)
                .map(move |l| (l.name.as_str(), file.path.as_str(), l.line))
        })
        .collect();
    if registered.is_empty() {
        return;
    }

    if !cfg.order.is_empty() {
        for &(name, file, line) in &registered {
            if cfg.order_index(name).is_none() {
                out.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: RULE_LOCK_REGISTRY,
                    severity: Severity::Error,
                    message: format!(
                        "lock `{name}` is constructed with a name that does not appear in \
                         [order].locks of lint/lock_order.toml — declare it (in order) or \
                         rename the constructor argument"
                    ),
                });
            }
        }
    }

    let namespace = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let registering: BTreeSet<String> = registered.iter().map(|&(n, _, _)| namespace(n)).collect();
    for declared in &cfg.order {
        let ns = namespace(declared);
        if !registering.contains(&ns) {
            continue;
        }
        if registered.iter().any(|&(n, _, _)| n == declared) {
            continue;
        }
        // Anchor the finding at the namespace's first registration site —
        // the place a reader would look for the missing constructor.
        let &(_, file, line) = registered
            .iter()
            .find(|&&(n, _, _)| namespace(n) == ns)
            .expect("namespace has a registration");
        out.push(Finding {
            file: file.to_string(),
            line,
            rule: RULE_LOCK_REGISTRY,
            severity: Severity::Error,
            message: format!(
                "lock `{declared}` is declared in [order].locks but never constructed via \
                 named_mutex/named_rwlock in namespace `{ns}` — remove the stale entry or \
                 register the lock"
            ),
        });
    }
}

/// The `[architecture]` rules. Every hit past the N-th is reported where it
/// occurs; too few hits, or a scope that selects nothing, at the scope (the
/// config line when no file matches its path).
fn architecture(files: &[FileFacts], cfg: &Config, out: &mut Vec<Finding>) {
    for rule in &cfg.architecture {
        let mut report = |file: &str, line, what: String| {
            out.push(Finding {
                file: file.to_string(),
                line,
                rule: RULE_ARCHITECTURE,
                severity: Severity::Error,
                message: format!("{what}: `{}` — {}", rule.text, rule.why),
            })
        };
        let pats: Vec<Vec<Tok>> = (rule.patterns.iter())
            .map(|p| lex(p).tokens.into_iter().map(|t| t.tok).collect())
            .collect();
        let (mut hits, mut anchor, mut seen) = (Vec::new(), None, None);
        for file in files.iter().filter(|f| {
            (rule.tests || !f.integration) && path_matches(&f.path, &rule.scopes[0][..1])
        }) {
            seen.get_or_insert(file.path.as_str());
            let test_code = (!rule.tests).then_some(&file.test_regions).into_iter();
            let skip: Vec<(usize, usize)> = (rule.scopes[1..].iter())
                .filter(|s| path_matches(&file.path, &s[..1]))
                .flat_map(|s| regions(file, &s[1..]).into_iter().map(|(s, e, _)| (s, e)))
                .chain(test_code.flatten().copied())
                .collect();
            for (start, end, line) in regions(file, &rule.scopes[0][1..]) {
                anchor.get_or_insert((file.path.as_str(), line));
                let found = (start..end).filter(|&i| {
                    !skip.iter().any(|&(s, e)| s <= i && i < e)
                        && pats.iter().any(|p| matches_at(&file.tokens, i, p))
                });
                hits.extend(found.map(|i| (file.path.as_str(), file.tokens[i].line)));
            }
        }
        for (k, &(file, line)) in hits.iter().enumerate().skip(rule.count) {
            let what = format!("hit {} of {}, {} allowed", k + 1, hits.len(), rule.count);
            report(file, line, what);
        }
        match (anchor, seen) {
            (Some((file, line)), _) if hits.len() < rule.count => report(
                file,
                line,
                format!("{} hits, {} required", hits.len(), rule.count),
            ),
            (None, Some(file)) => report(file, 1, "no item in scope".into()),
            (None, None) => report("lint/lock_order.toml", rule.line, "no file in scope".into()),
            _ => {}
        }
    }
}

/// Token ranges of the items the `KIND NAME` chain selects in `file`, each
/// inside the one before, and the line each starts on (the whole file, line
/// 1, for an empty chain).
fn regions(file: &FileFacts, chain: &[String]) -> Vec<(usize, usize, u32)> {
    let mut out = vec![(0, file.tokens.len(), 1)];
    for pair in chain.chunks(2) {
        out = (file.items.iter())
            .filter(|(kind, name, _, (s, e))| {
                *kind == pair[0]
                    && (pair[1] == "*" || *name == pair[1])
                    && out.iter().any(|&(os, oe, _)| os <= *s && *e <= oe)
            })
            .map(|&(_, _, line, (s, e))| (s, e, line))
            .collect();
    }
    out
}

/// Does `pat` occur at token `i`? A pattern's string literal matches every
/// literal it is a prefix of.
fn matches_at(toks: &[Token], i: usize, pat: &[Tok]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| match (toks.get(i + k).map(|t| &t.tok), p) {
            (Some(Tok::Lit(s)), Tok::Lit(q)) => s.starts_with(q.as_str()),
            (t, p) => t == Some(p),
        })
}

/// Function id: (file index, function index).
type FnId = (usize, usize);

/// Type-aware call resolution over the extracted facts.
///
/// Resolution order for `recv.method(..)`:
/// 1. receiver type known and is a trait → every implementor's method plus
///    the trait's default bodies (sound over-approximation);
/// 2. receiver type known and a matching inherent/impl method exists →
///    exactly those;
/// 3. receiver type known but with no such method (ours, where the call
///    hits a derive or std method, or foreign) → nothing, rather than a
///    wrong-name guess;
/// 4. receiver type unknown (or a free call) → the definition, if the bare
///    name is globally unique among live functions.
///
/// Closures are never resolution targets by name; they enter the graph via
/// `closure_args` on the call that passes them.
#[derive(Default)]
struct Resolver {
    by_name: HashMap<String, Vec<FnId>>,
    methods: HashMap<(String, String), Vec<FnId>>,
    trait_methods: HashMap<(String, String), Vec<FnId>>,
    trait_names: BTreeSet<String>,
    /// Closure pseudo-function name → id.
    closures: HashMap<String, FnId>,
    /// Struct name → field name → type head, across all files.
    fields: HashMap<String, HashMap<String, String>>,
}

impl Resolver {
    fn build(files: &[FileFacts]) -> Resolver {
        let mut r = Resolver::default();
        for (fi, file) in files.iter().enumerate() {
            for t in &file.traits {
                r.trait_names.insert(t.name.clone());
            }
            for (name, fields) in &file.structs {
                r.fields
                    .entry(name.clone())
                    .or_default()
                    .extend(fields.iter().map(|(k, v)| (k.clone(), v.clone())));
            }
            for (gi, f) in file.functions.iter().enumerate() {
                if f.is_closure {
                    r.closures.insert(f.name.clone(), (fi, gi));
                    continue;
                }
                if !live(file, f) {
                    continue;
                }
                let id = (fi, gi);
                r.by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(ty) = &f.self_ty {
                    r.methods
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                if let Some(tr) = &f.trait_name {
                    // Impl of a trait method, or a trait default body.
                    r.trait_methods
                        .entry((tr.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        r
    }

    /// The receiver's type head, as seen from inside `f`.
    fn type_of(&self, f: &FnFacts, recv: &str) -> Option<String> {
        if recv == "self" {
            return f.self_ty.clone().or_else(|| f.trait_name.clone());
        }
        if let Some(t) = f.locals.get(recv) {
            return Some(t.clone());
        }
        if let Some((_, t)) = f.params.iter().find(|(n, _)| n == recv) {
            return (t != "?").then(|| t.clone());
        }
        // A bare field name: `self.state.lock()` records receiver `state`.
        if let Some(ty) = &f.self_ty {
            if let Some(ft) = self.fields.get(ty).and_then(|m| m.get(recv)) {
                return Some(ft.clone());
            }
        }
        None
    }

    fn unique_by_name(&self, name: &str) -> Vec<FnId> {
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([single]) => vec![*single],
            _ => Vec::new(),
        }
    }

    /// Targets of a call event made from `f`.
    fn resolve(&self, f: &FnFacts, name: &str, recv: Option<&str>) -> Vec<FnId> {
        if let Some(ty) = recv.and_then(|r| self.type_of(f, r)) {
            if self.trait_names.contains(&ty) {
                return self
                    .trait_methods
                    .get(&(ty, name.to_string()))
                    .cloned()
                    .unwrap_or_default();
            }
            if let Some(ms) = self.methods.get(&(ty.clone(), name.to_string())) {
                return ms.clone();
            }
            // Ours with no such method, or foreign (Vec, HashMap, ...).
            return Vec::new();
        }
        self.unique_by_name(name)
    }
}

/// One acquisition-order edge: lock `to` acquired while `from` was held.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    via: Option<String>,
}

/// L2: build the global acquisition graph on the type-aware call graph and
/// check it against the declared order; reject cycles.
fn lock_order(files: &[FileFacts], cfg: &Config, out: &mut Vec<Finding>) {
    // `#[cfg(test)]` unit-test code may deliberately exercise bad orders
    // (the debug_locks tests do); it neither defines resolution targets nor
    // contributes edges. Closure pseudo-functions contribute may-sets and
    // callback edges but are not walked for direct edges — their events are
    // duplicated inline in the enclosing function, which is walked.
    let resolver = Resolver::build(files);

    // Fixpoint: the set of canonical lock names each function may acquire,
    // directly or through resolvable calls. Closure bodies are inline in
    // their enclosing functions, so enclosing may-sets subsume callback
    // acquisitions automatically.
    let mut may: HashMap<FnId, BTreeSet<String>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.functions.iter().enumerate() {
            if !live(file, f) {
                may.insert((fi, gi), BTreeSet::new());
                continue;
            }
            let direct: BTreeSet<String> = f
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Acquire { receiver, .. } => Some(cfg.canonical(receiver).to_string()),
                    _ => None,
                })
                .collect();
            may.insert((fi, gi), direct);
        }
    }
    loop {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                if !live(file, f) {
                    continue;
                }
                let mut add = BTreeSet::new();
                for ev in &f.events {
                    if let Event::Call { name, recv, .. } = ev {
                        for callee in resolver.resolve(f, name, recv.as_deref()) {
                            if let Some(locks) = may.get(&callee) {
                                add.extend(locks.iter().cloned());
                            }
                        }
                    }
                }
                let mine = may.get_mut(&(fi, gi)).expect("indexed above");
                let before = mine.len();
                mine.extend(add);
                if mine.len() != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Locks a function holds at the points where it invokes one of its own
    // parameters (a callback). Edges flow from these into the bodies of
    // closures passed to it.
    let callback_holds = |id: FnId| -> BTreeSet<String> {
        let f = &files[id.0].functions[id.1];
        let param_names: BTreeSet<&str> = f.params.iter().map(|(n, _)| n.as_str()).collect();
        f.events
            .iter()
            .filter_map(|e| match e {
                Event::Call {
                    name, recv, held, ..
                } if recv.is_none() && param_names.contains(name.as_str()) => Some(held),
                _ => None,
            })
            .flatten()
            .map(|h| cfg.canonical(&h.receiver).to_string())
            .collect()
    };

    // Collect edges.
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut push_edge = |edges: &mut Vec<Edge>, e: Edge| {
        if seen.insert((e.from.clone(), e.to.clone())) {
            edges.push(e);
        }
    };
    for file in files {
        for f in &file.functions {
            if !live(file, f) || f.is_closure {
                continue;
            }
            for ev in &f.events {
                match ev {
                    Event::Acquire {
                        receiver,
                        line,
                        held,
                    } => {
                        let to = cfg.canonical(receiver).to_string();
                        for h in held {
                            push_edge(
                                &mut edges,
                                Edge {
                                    from: cfg.canonical(&h.receiver).to_string(),
                                    to: to.clone(),
                                    file: file.path.clone(),
                                    line: *line,
                                    via: None,
                                },
                            );
                        }
                    }
                    Event::Call {
                        name,
                        recv,
                        closure_args,
                        line,
                        held,
                    } => {
                        let targets = resolver.resolve(f, name, recv.as_deref());
                        // Locks the callee may take, while we hold ours.
                        if !held.is_empty() {
                            for callee in &targets {
                                let Some(locks) = may.get(callee) else {
                                    continue;
                                };
                                for h in held {
                                    let from = cfg.canonical(&h.receiver).to_string();
                                    for to in locks {
                                        push_edge(
                                            &mut edges,
                                            Edge {
                                                from: from.clone(),
                                                to: to.clone(),
                                                file: file.path.clone(),
                                                line: *line,
                                                via: Some(name.clone()),
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        // Closures we pass run under whatever the callee
                        // holds at its callback invocation.
                        for cname in closure_args {
                            let Some(&cid) = resolver.closures.get(cname) else {
                                continue;
                            };
                            let Some(closure_locks) = may.get(&cid) else {
                                continue;
                            };
                            if closure_locks.is_empty() {
                                continue;
                            }
                            for callee in &targets {
                                for from in callback_holds(*callee) {
                                    for to in closure_locks {
                                        push_edge(
                                            &mut edges,
                                            Edge {
                                                from: from.clone(),
                                                to: to.clone(),
                                                file: file.path.clone(),
                                                line: *line,
                                                via: Some(format!("closure passed to `{name}`")),
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Order violations (and self-edges) against the declared order.
    let mut in_cycle_reported: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &edges {
        let via = e
            .via
            .as_ref()
            .map(|v| format!(" (via call to `{v}`)"))
            .unwrap_or_default();
        if e.from == e.to {
            out.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: RULE_LOCK_ORDER,
                severity: Severity::Error,
                message: format!(
                    "lock `{}` acquired while already held{via} — self-deadlock",
                    e.from
                ),
            });
            in_cycle_reported.insert((e.from.clone(), e.to.clone()));
            continue;
        }
        if let (Some(a), Some(b)) = (cfg.order_index(&e.from), cfg.order_index(&e.to)) {
            if a >= b {
                out.push(Finding {
                    file: e.file.clone(),
                    line: e.line,
                    rule: RULE_LOCK_ORDER,
                    severity: Severity::Error,
                    message: format!(
                        "lock `{}` acquired while holding `{}`{via} — contradicts the declared \
                         order in lint/lock_order.toml (`{}` before `{}`)",
                        e.to, e.from, e.to, e.from
                    ),
                });
                in_cycle_reported.insert((e.from.clone(), e.to.clone()));
            }
        }
    }

    // Cycles among the remaining edges (covers undeclared locks and
    // cross-function composition). Edges already reported as order
    // contradictions are removed from the graph first — every cycle through
    // one of them is the same defect, already on the report.
    let cycle_edges: Vec<&Edge> = edges
        .iter()
        .filter(|e| !in_cycle_reported.contains(&(e.from.clone(), e.to.clone())))
        .collect();
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &cycle_edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut reported_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for e in &cycle_edges {
        // Path e.to -> ... -> e.from closes a cycle through e.
        if let Some(path) = find_path(&adj, &e.to, &e.from) {
            let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
            cycle.push(e.to.clone());
            // Canonicalize: rotate so the smallest element leads.
            let n = cycle.len() - 1; // last repeats first conceptually
            let min_at = (0..n).min_by_key(|&i| &cycle[i]).unwrap_or(0);
            let canon: Vec<String> = (0..=n).map(|i| cycle[(min_at + i) % n].clone()).collect();
            if reported_cycles.insert(canon.clone()) {
                out.push(Finding {
                    file: e.file.clone(),
                    line: e.line,
                    rule: RULE_LOCK_ORDER,
                    severity: Severity::Error,
                    message: format!(
                        "lock-order cycle: {} — acquiring `{}` while holding `{}` closes it",
                        canon.join(" -> "),
                        e.to,
                        e.from
                    ),
                });
            }
        }
    }
}

fn find_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut stack = vec![(from, vec![from])];
    let mut seen = BTreeSet::new();
    while let Some((node, path)) = stack.pop() {
        if node == to {
            return Some(path);
        }
        if !seen.insert(node) {
            continue;
        }
        if let Some(edges) = adj.get(node) {
            for e in edges {
                let mut p = path.clone();
                p.push(e.to.as_str());
                stack.push((e.to.as_str(), p));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract;

    fn cfg() -> Config {
        Config::parse(
            r#"
[order]
locks = ["a.first", "a.second"]
[aliases]
first = "a.first"
second = "a.second"
[modules]
crash_path = ["crash.rs"]
commit_path = []
twopc_path = ["twopc.rs"]
"#,
        )
        .unwrap()
    }

    fn run_on(named: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<_> = named.iter().map(|(path, src)| extract(path, src)).collect();
        run(&files, &cfg())
    }

    /// The pre-resolver blind spot: `select` is defined on two implementors,
    /// so name-based resolution (unique names only) could never follow the
    /// call; the receiver-typed resolver must.
    #[test]
    fn trait_method_edge_resolved_through_receiver_type() {
        let src = r#"
trait Victim { fn select(&self) -> usize; }
struct Tiered { first: Mutex<S> }
impl Victim for Tiered {
    fn select(&self) -> usize { let g = self.first.lock(); drop(g); 0 }
}
struct Leveled { first: Mutex<S> }
impl Victim for Leveled {
    fn select(&self) -> usize { let g = self.first.lock(); drop(g); 1 }
}
fn caller(policy: &dyn Victim, second: &Mutex<T>) {
    let s = second.lock();
    policy.select();
    drop(s);
}
"#;
        let findings = run_on(&[("lib.rs", src)]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RULE_LOCK_ORDER && f.line == 13),
            "trait-routed a.second -> a.first edge must violate the order: {findings:#?}"
        );
    }

    /// Same blind spot for the `impl Trait` argument spelling.
    #[test]
    fn impl_trait_arg_resolves_like_dyn() {
        let src = r#"
trait Victim { fn select(&self) -> usize; }
struct OnlyImpl { first: Mutex<S> }
impl Victim for OnlyImpl {
    fn select(&self) -> usize { let g = self.first.lock(); drop(g); 0 }
}
struct Decoy;
impl Decoy { fn select(&self) -> usize { 2 } }
fn caller(policy: impl Victim, second: &Mutex<T>) {
    let s = second.lock();
    policy.select();
    drop(s);
}
"#;
        let findings = run_on(&[("lib.rs", src)]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RULE_LOCK_ORDER && f.line == 11),
            "impl-Trait receiver must route to the trait impl: {findings:#?}"
        );
    }

    /// A closure passed as a callback runs under the callee's lock; its own
    /// acquisitions must become edges from that lock.
    #[test]
    fn closure_callback_edge_reported_at_call_site() {
        let src = r#"
fn helper<F: Fn()>(second: &Mutex<S>, callback: F) {
    let g = second.lock();
    callback();
    drop(g);
}
fn caller(first: &Mutex<S>, second: &Mutex<T>) {
    helper(second, || {
        let f = first.lock();
        drop(f);
    });
}
"#;
        let findings = run_on(&[("lib.rs", src)]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RULE_LOCK_ORDER && f.line == 8),
            "the callback acquires a.first under a.second — an inverted edge: {findings:#?}"
        );
    }

    /// A known foreign receiver type must NOT fall back to name matching:
    /// `map.get(..)` is std's HashMap, not our uniquely-named `get`.
    #[test]
    fn foreign_typed_receiver_does_not_name_match() {
        let src = r#"
fn get(first: &Mutex<S>) { let g = first.lock(); drop(g); }
fn caller(second: &Mutex<T>) {
    let map = HashMap::new();
    let s = second.lock();
    map.get(&1);
    drop(s);
}
"#;
        let findings = run_on(&[("lib.rs", src)]);
        assert!(
            findings.is_empty(),
            "HashMap::get must not resolve to our free `get`: {findings:#?}"
        );
    }

    #[test]
    fn swallowed_io_error_scoped_to_listed_modules() {
        let src = "fn f(w: &mut W) { let _ = w.sync(); }";
        let flagged = run_on(&[("crash.rs", src)]);
        assert!(flagged.iter().any(|f| f.rule == RULE_SWALLOWED_IO_ERROR));
        let clean = run_on(&[("elsewhere.rs", src)]);
        assert!(
            !clean.iter().any(|f| f.rule == RULE_SWALLOWED_IO_ERROR),
            "L6 only applies in crash/commit/2PC modules"
        );
    }

    #[test]
    fn decide_before_apply_orders_events() {
        let good = "fn ok(&self) { self.join_prepares(m, slices)?; self.shard.txn_apply(id)?; }";
        assert!(run_on(&[("twopc.rs", good)]).is_empty());
        let bad = "fn bad(&self) { self.shard.txn_apply(id)?; self.join_prepares(m, slices)?; }";
        let findings = run_on(&[("twopc.rs", bad)]);
        assert!(findings.iter().any(|f| f.rule == RULE_DECIDE_BEFORE_APPLY));
    }

    #[test]
    fn dead_allow_reported_as_warning_and_used_allow_is_not() {
        let src = r#"
fn f(w: &mut W) {
    // bolt-lint: allow(swallowed-io-error)
    let _ = w.sync();
}
fn g() {
    // bolt-lint: allow(lock-order)
    let x = 1;
}
"#;
        let findings = run_on(&[("crash.rs", src)]);
        assert!(
            !findings.iter().any(|f| f.rule == RULE_SWALLOWED_IO_ERROR),
            "allow suppresses the discard"
        );
        let dead: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RULE_DEAD_ALLOW)
            .collect();
        assert_eq!(
            dead.len(),
            1,
            "only the unused allow is dead: {findings:#?}"
        );
        assert_eq!(dead[0].line, 7);
        assert_eq!(dead[0].severity, Severity::Warn);
    }

    /// Integration-test files (a `tests/` path component) are linted even
    /// inside `#[test]` functions; unit tests stay exempt.
    #[test]
    fn integration_tests_are_live() {
        let src = r#"
#[test]
fn t(first: &Mutex<S>, w: &mut W) {
    let g = first.lock();
    w.sync();
    drop(g);
}
"#;
        let integration = run_on(&[("crates/x/tests/smoke.rs", src)]);
        assert!(integration
            .iter()
            .any(|f| f.rule == RULE_GUARD_ACROSS_BARRIER));
        let unit = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(unit.is_empty(), "unit-test fns stay exempt: {unit:#?}");
    }

    /// A rule whose path matches no file is reported at its own config
    /// line; test code and integration files count only with `tests`.
    #[test]
    fn architecture_scopes_files_tests_and_missing_paths() {
        let cfg = Config::parse(
            "[architecture]\n\
             \"gone\" = \"renamed.rs : x = 0\"\n\
             \"live code\" = \"/ : spawn = 0\"\n\
             \"with tests\" = \"lib.rs tests : spawn = 1\"\n",
        )
        .unwrap();
        let src = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { spawn(); } }\n";
        let files = [
            extract("src/lib.rs", src),
            extract("tests/it.rs", "fn h() { spawn(); }"),
        ];
        let findings = run(&files, &cfg);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(
            (findings[0].file.as_str(), findings[0].line),
            ("lint/lock_order.toml", 2)
        );
    }
}
