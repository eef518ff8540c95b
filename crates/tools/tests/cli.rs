//! Drives the real `bolt-tool` binary: argument handling that the library
//! functions never see. A numeric positional that does not parse must be a
//! usage error (exit 2), not a silent fall-back to the default, and the
//! retired `bench` subcommand must be refused the same way.

use std::process::{Command, Output};

fn bolt_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bolt-tool"))
        .args(args)
        .output()
        .expect("run bolt-tool")
}

/// A database directory under cargo's per-test scratch space that no run
/// has written to yet.
fn fresh_db(name: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("utf-8 path").to_string()
}

/// `args` must be refused as a usage error: exit 2, nothing on stdout, and
/// `complaint` on stderr. Returns stderr.
fn assert_usage_error(args: &[&str], complaint: &str) -> String {
    let out = bolt_tool(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    stderr
}

#[test]
fn unparseable_numbers_are_usage_errors() {
    // The letter O, not a zero: this used to sweep the default point set
    // and print `ok`.
    assert_usage_error(&["crash-sweep", "10O"], "max-points must be a number");
    assert_usage_error(&["crash-sweep", "4", "seed"], "seed must be a number");

    let db = fresh_db("cli-bad-numbers");
    assert_usage_error(&["load", &db, "1e3"], "records must be a number");
    assert_usage_error(&["load", &db, "10", "-1"], "vlen must be a number");
    assert_usage_error(&["scan", &db, "", "all"], "limit must be a number");
    assert!(
        !std::path::Path::new(&db).exists(),
        "a rejected command must not have opened the database"
    );
}

#[test]
fn parsed_numbers_are_honoured() {
    let db = fresh_db("cli-good-numbers");
    let out = bolt_tool(&["load", &db, "40", "16"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("loaded 40 records (16 B values)"));

    let out = bolt_tool(&["scan", &db, "", "7"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).ends_with("(7 entries)\n"));

    // The default samples 72 points before adding the forced windows.
    let out = bolt_tool(&["crash-sweep", "3", "9"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let swept: u64 = stdout
        .split("swept ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("report names its point count");
    assert!(swept < 72, "swept {swept} points:\n{stdout}");
}

#[test]
fn unknown_policy_is_a_usage_error_everywhere() {
    for args in [
        &["crash-sweep", "--policy=mystery"][..],
        &["stat", "no-such-db", "--policy=mystery"],
        &["backup", "verify", "no-such-backup", "--policy=mystery"],
    ] {
        assert_usage_error(args, "unknown policy `mystery`");
    }
}

#[test]
fn bench_is_no_longer_a_subcommand() {
    for args in [&["bench"][..], &["bench", "--smoke"]] {
        let stderr = assert_usage_error(args, "usage: bolt-tool");
        assert!(
            !stderr.contains("bench"),
            "usage still offers bench: {stderr}"
        );
    }
}
