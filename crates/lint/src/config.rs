//! Analyzer configuration, loaded from `lint/lock_order.toml` with a
//! hand-rolled TOML-subset parser (tables, string values, string arrays —
//! everything this config needs, nothing more, zero dependencies).

use std::collections::HashMap;

/// Analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Declared global lock order (canonical lock names, outermost first).
    /// Rule L2 rejects any recorded acquisition edge that contradicts it.
    pub order: Vec<String>,
    /// Receiver identifier → canonical lock name (e.g. `state` →
    /// `core.state`). Unmapped receivers participate in the graph under
    /// their own identifier.
    pub aliases: HashMap<String, String>,
    /// Path suffixes of crash-path modules where rule L3 forbids
    /// `unwrap`/`expect`/`panic!` outside `#[cfg(test)]`.
    pub crash_path: Vec<String>,
    /// Path suffixes of commit-protocol modules checked by rule L4
    /// (MANIFEST append must be dominated by data-file syncs and followed by
    /// its own sync).
    pub commit_path: Vec<String>,
    /// Path suffixes of two-phase-commit modules checked by rule L7
    /// (staged-slice application dominated by the prepare round's join) and, along
    /// with the crash/commit lists, by rule L6 (no discarded fallible I/O
    /// results).
    pub twopc_path: Vec<String>,
    /// `[architecture]` rules, in file order.
    pub architecture: Vec<ArchRule>,
}

/// One `[architecture]` rule, `"why" = "SCOPE : P | Q = N"`: in SCOPE's
/// non-test tokens the patterns occur N times in all (0 forbids them).
/// SCOPE is `PATH [KIND NAME].. [tests] [except SCOPE; ..]`: a path as in
/// `[modules]`, narrowed to the `fn`/`impl`/`struct`/`macro` items named
/// (`*` is any), test code included with `tests`.
#[derive(Debug, Clone)]
pub struct ArchRule {
    pub(crate) why: String,
    pub(crate) text: String,
    pub(crate) line: u32,
    /// The scope, then each excepted one: a path, then `KIND NAME` pairs.
    pub(crate) scopes: Vec<Vec<String>>,
    pub(crate) tests: bool,
    pub(crate) patterns: Vec<String>,
    pub(crate) count: usize,
}

impl Config {
    /// Parse the `lint/lock_order.toml` subset. The file is the only home
    /// of the workspace's lock order and module lists: a key it omits stays
    /// empty, and the rules scoped by an empty list check nothing.
    pub fn parse(toml: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = toml.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("lock_order.toml:{}: expected `key = value`", n + 1));
            };
            let key = unquote(line[..eq].trim());
            let mut value = line[eq + 1..].trim().to_string();
            // Multiline arrays: keep consuming lines until the bracket closes.
            if value.starts_with('[') {
                while !value.contains(']') {
                    match lines.next() {
                        Some((_, next)) => {
                            value.push(' ');
                            value.push_str(strip_comment(next).trim());
                        }
                        None => return Err("lock_order.toml: unterminated array".into()),
                    }
                }
            }
            match (section.as_str(), key.as_str()) {
                ("order", "locks") => cfg.order = parse_array(&value)?,
                ("aliases", receiver) => {
                    cfg.aliases.insert(receiver.to_string(), unquote(&value));
                }
                ("modules", "crash_path") => cfg.crash_path = parse_array(&value)?,
                ("modules", "commit_path") => cfg.commit_path = parse_array(&value)?,
                ("modules", "twopc_path") => cfg.twopc_path = parse_array(&value)?,
                ("architecture", why) => {
                    let rule = parse_rule(why, unquote(&value), n as u32 + 1);
                    cfg.architecture.push(rule?);
                }
                _ => {
                    return Err(format!(
                        "lock_order.toml:{}: unknown key `{key}` in section `[{section}]`",
                        n + 1
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Position of a canonical lock name in the declared order.
    pub fn order_index(&self, lock: &str) -> Option<usize> {
        self.order.iter().position(|l| l == lock)
    }

    /// Canonical name for an acquisition receiver identifier.
    pub fn canonical<'a>(&'a self, receiver: &'a str) -> &'a str {
        self.aliases
            .get(receiver)
            .map(String::as_str)
            .unwrap_or(receiver)
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> String {
    let s = s.trim();
    ['"', '\'']
        .into_iter()
        .find_map(|q| s.strip_prefix(q)?.strip_suffix(q))
        .unwrap_or(s)
        .to_string()
}

fn parse_rule(why: &str, text: String, line: u32) -> Result<ArchRule, String> {
    let bad = || format!("lock_order.toml:{line}: expected `SCOPE : PATTERN | .. = N`");
    let (lhs, count) = text.rsplit_once(" = ").ok_or_else(bad)?;
    let (scope, patterns) = lhs.split_once(" : ").ok_or_else(bad)?;
    let (scope, except) = scope.split_once(" except ").unwrap_or((scope, ""));
    let except = except.split(';').filter(|s| !s.trim().is_empty());
    let words = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let tests = scope.ends_with(" tests");
    let scope = scope.trim_end_matches(" tests");
    let scopes: Vec<_> = std::iter::once(scope).chain(except).map(words).collect();
    let patterns: Vec<String> = patterns.split(" | ").map(String::from).collect();
    if scopes.iter().any(|s| s.len() % 2 == 0) || patterns.iter().any(|p| p.trim().is_empty()) {
        return Err(bad());
    }
    let count = count.trim().parse().map_err(|_| bad())?;
    Ok(ArchRule {
        why: why.to_string(),
        text,
        line,
        scopes,
        tests,
        patterns,
        count,
    })
}

fn parse_array(s: &str) -> Result<Vec<String>, String> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.rfind(']').map(|e| &s[..e]))
        .ok_or_else(|| format!("expected string array, got `{s}`"))?;
    Ok(inner
        .split(',')
        .map(unquote)
        .filter(|s| !s.is_empty())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_order_aliases_and_modules() {
        let cfg = Config::parse(
            r#"
# comment
[order]
locks = [
    "core.state",   # outermost
    "core.versions",
]

[aliases]
state = "core.state"
versions = "core.versions"

[modules]
crash_path = ["a.rs", "b/"]
twopc_path = ["c/"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.order, vec!["core.state", "core.versions"]);
        assert_eq!(cfg.canonical("state"), "core.state");
        assert_eq!(cfg.canonical("unmapped"), "unmapped");
        assert_eq!(cfg.crash_path, vec!["a.rs", "b/"]);
        assert_eq!(cfg.twopc_path, vec!["c/"]);
        assert!(cfg.order_index("core.state") < cfg.order_index("core.versions"));
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Config::parse("[order]\nbogus = 1\n").is_err());
    }

    #[test]
    fn parses_architecture_rules() {
        let cfg = Config::parse(
            r#"
[architecture]
"why" = 'a/ fn f tests except a/b.rs; a/c.rs impl T fn g : x( | "lit" = 2'
"#,
        )
        .unwrap();
        let rule = &cfg.architecture[0];
        assert_eq!(
            (rule.why.as_str(), rule.line, rule.count, rule.tests),
            ("why", 3, 2, true)
        );
        assert_eq!(
            rule.scopes,
            [
                vec!["a/", "fn", "f"],
                vec!["a/b.rs"],
                vec!["a/c.rs", "impl", "T", "fn", "g"]
            ]
        );
        assert_eq!(rule.patterns, ["x(", "\"lit\""]);
        for bad in ["a/ : x", "a/ fn : x = 0", "a/ : x |  = 0", "a/ : x = many"] {
            assert!(
                Config::parse(&format!("[architecture]\nr = \"{bad}\"\n")).is_err(),
                "{bad}"
            );
        }
    }
}
