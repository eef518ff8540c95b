//! # bolt-lint
//!
//! Barrier-ordering and lock-discipline static analyzer for the BoLT
//! workspace. Dependency-free: a hand-rolled tokenizer ([`lexer`]),
//! per-function fact extraction with a type-aware call-graph resolver
//! ([`facts`]), and seven rules plus dead-suppression detection
//! ([`rules`]) checked against the declared lock order in
//! `lint/lock_order.toml` ([`config`]).
//!
//! Run as `cargo run -p bolt-lint -- check .` (or `bolt-tool lint`); CI
//! treats any unannotated error finding as a failure and validates the
//! `--json` stream against `schemas/lint.schema.json`. Suppress a reviewed
//! finding with `// bolt-lint: allow(<rule>)` on the same line or the line
//! above — allows that suppress nothing are themselves reported (warn).
//! See DESIGN.md §10 for the rule catalogue and resolution strategy.

#![warn(missing_docs)]

pub mod config;
pub mod facts;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::{Finding, Severity};

/// Directory names never descended into, and path fragments excluded from
/// analysis. `shims/` contains stand-ins for third-party crates (vendored
/// dependency code is not ours to lint); `tests/corpus/` holds bolt-lint's
/// own seeded violations.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];
const SKIP_FRAGMENTS: [&str; 2] = ["/tests/corpus/", "/shims/"];

/// Analyze in-memory sources: `(path, contents)` pairs. The entry point the
/// corpus tests use; [`check_root`] is the filesystem front door.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let files: Vec<facts::FileFacts> = sources
        .iter()
        .map(|(path, src)| facts::extract(path, src))
        .collect();
    rules::run(&files, cfg)
}

/// Recursively collect `.rs` files under `root`, honoring the skip lists.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            let ty = entry
                .file_type()
                .map_err(|e| format!("stat {}: {e}", path.display()))?;
            if ty.is_dir() {
                if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let p = path.to_string_lossy().replace('\\', "/");
                if SKIP_FRAGMENTS.iter().any(|f| p.contains(f)) {
                    continue;
                }
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Analyze every `.rs` file under `root` with the config at
/// `root/lint/lock_order.toml` (when absent, only the rules that need no
/// configuration run: the lock-order and path-scoped rules have no lists).
/// Returns unsuppressed findings sorted by file and line.
pub fn check_root(root: &Path, config_path: Option<&Path>) -> Result<Vec<Finding>, String> {
    let cfg_path = config_path
        .map(Path::to_path_buf)
        .unwrap_or_else(|| root.join("lint/lock_order.toml"));
    let cfg = if cfg_path.exists() {
        let text = std::fs::read_to_string(&cfg_path)
            .map_err(|e| format!("read {}: {e}", cfg_path.display()))?;
        Config::parse(&text)?
    } else {
        Config::default()
    };
    let mut sources = Vec::new();
    for path in collect_rs_files(root)? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        // Report paths relative to the checked root for stable output.
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, text));
    }
    Ok(analyze_sources(&sources, &cfg))
}

/// Render findings as JSON Lines, one object per finding, matching
/// `schemas/lint.schema.json`. Hand-rolled emission (no serde in this
/// workspace); paths and messages are escaped per RFC 8259.
pub fn findings_json_lines(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"}}\n",
            json_escape(&f.file),
            f.line,
            f.rule,
            f.severity.as_str(),
            json_escape(&f.message),
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// CLI driver shared by the `bolt-lint` binary and `bolt-tool lint`:
/// analyze, print findings (human text, or JSON Lines with `json`), return
/// the process exit code (0 clean or warnings only, 1 error findings,
/// 2 usage/config error).
pub fn run_check(root: &Path, config_path: Option<&Path>, json: bool) -> i32 {
    match check_root(root, config_path) {
        Ok(findings) => {
            let errors = findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .count();
            if json {
                print!("{}", findings_json_lines(&findings));
                return i32::from(errors > 0);
            }
            for f in &findings {
                let tag = match f.severity {
                    Severity::Error => "",
                    Severity::Warn => "warning ",
                };
                println!("{}:{}: {tag}[{}] {}", f.file, f.line, f.rule, f.message);
            }
            if findings.is_empty() {
                println!("bolt-lint: clean ({} ok)", root.display());
            } else {
                println!(
                    "bolt-lint: {} error(s), {} warning(s); annotate reviewed sites with \
                     `// bolt-lint: allow(<rule>)`",
                    errors,
                    findings.len() - errors
                );
            }
            i32::from(errors > 0)
        }
        Err(e) => {
            eprintln!("bolt-lint: error: {e}");
            2
        }
    }
}
