//! `bolt-tool` — command-line inspection and maintenance for BoLT
//! databases on a real filesystem.
//!
//! ```text
//! bolt-tool <command> <db-dir> [args...] [--profile <name>] [--policy=<p>]
//!
//! commands:
//!   stat <db> [--json|--prometheus] one merged metrics snapshot — level
//!        [--per-shard]              shape, engine and I/O counters — as
//!                                   text, JSON, or Prometheus exposition;
//!                                   with --per-shard, open a ShardedDb and
//!                                   show the aggregate plus every shard
//!   trace [--json] [--validate F]   run the canonical micro workload
//!                                   (in-memory, needs no db-dir) and dump
//!                                   its event stream; with --validate,
//!                                   check every JSON line against schema F
//!   dump-manifest <db>              decode the live MANIFEST
//!   dump-tables <db>                logical SSTables by physical file
//!   scan <db> [start] [limit]       print entries in order (limit: 100)
//!   get <db> <key>                  point lookup
//!   put <db> <key> <value>          insert
//!   delete <db> <key>               delete
//!   load <db> [records] [vlen]      bulk-load synthetic records (10000
//!                                   records of 256 bytes by default)
//!   compact <db>                    flush + compact until quiet
//!   verify <db>                     full integrity walk
//!   backup create <db> <backup>     checkpoint the database into a new
//!                                   generation of an incremental backup
//!                                   (unchanged payloads are shared)
//!   backup restore <backup> <dest>  rebuild a database image from a
//!          [--gen N]                generation (latest by default), every
//!                                   byte CRC-verified, CURRENT landing last
//!   backup verify <backup>          check every generation's manifest and
//!                                   payload CRCs
//!   crash-sweep [points] [seed]     the fault sweep (in-memory, needs no
//!               [--policy=<p>]      db-dir): record a workload, then crash
//!               [--sharded]         at every selected op, fail sync
//!               [--vlog]            ordinals with EIO, and crash again
//!               [--checkpoint]      inside recovery, checking the DESIGN.md
//!                                   §9 invariants after each. --policy
//!                                   picks leveled (default), size-tiered,
//!                                   lazy-leveled or fragmented;
//!                                   --sharded sweeps a ShardedDb, forcing
//!                                   every op of every 2PC commit window;
//!                                   --vlog runs under value separation and
//!                                   forces every value-log op; --checkpoint
//!                                   ends with an online checkpoint, forces
//!                                   its window and checks C1 (the last two
//!                                   do not combine with --sharded)
//!   lint [path] [--config FILE]     barrier-ordering/lock-discipline
//!        [--json] [--validate F]    static analysis (alias of bolt-lint);
//!                                   with --json, findings are JSON Lines,
//!                                   optionally validated against schema F
//!
//! --profile: leveldb | lvl64 | hyper | pebbles | rocks | bolt (default)
//!            | hyperbolt | rocksbolt
//! --policy:  leveled | size-tiered | lazy-leveled | fragmented (default:
//!            the profile's — fragmented for pebbles, else leveled) —
//!            required to open a database whose MANIFEST pins another one
//! ```
//!
//! A numeric argument that does not parse is a usage error (exit 2), never
//! a silent fall-back to the default. Experiments are not a subcommand:
//! run them with `cargo bench -p bolt-bench --bench <fig*|ext_*>`.

use std::process::ExitCode;
use std::sync::Arc;

use bolt_env::{Env, RealEnv};

/// What a subcommand returns: `Ok` is the exit code of a command that ran,
/// `Err` the exit code of a usage error already reported on stderr — so
/// argument parsing can use `?`.
type Outcome = Result<ExitCode, ExitCode>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bolt-tool <stat|dump-manifest|dump-tables|scan|get|put|delete|load|compact|verify> <db-dir> [args...] [--profile <name>] [--policy=<p>]\n       bolt-tool stat <db-dir> [--json|--prometheus] [--per-shard]\n       bolt-tool backup <create <db-dir>|restore [--gen N]|verify> <backup-dir> [<dest-dir>]\n       bolt-tool trace [--json] [--validate SCHEMA]\n       bolt-tool crash-sweep [max-points] [seed] [--policy=<p>] [--sharded] [--vlog] [--checkpoint]\n       bolt-tool lint [path] [--config FILE] [--json] [--validate SCHEMA]"
    );
    ExitCode::from(2)
}

/// Parse an optional numeric positional. Absent means `default`; present
/// but unparseable is a usage error — outside input is never silently
/// replaced by the default.
fn numeric<T: std::str::FromStr>(
    what: &str,
    arg: Option<&String>,
    default: T,
) -> Result<T, ExitCode> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            eprintln!("error: {what} must be a number, got `{s}`");
            usage()
        }),
    }
}

/// `--profile <name>` resolved; an unknown name is a usage error.
fn profile(name: &str) -> Result<bolt_core::Options, ExitCode> {
    bolt_tools::profile(name).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// `--policy=<p>`: `None` if `arg` is some other argument, otherwise the
/// parsed policy or the exit code of the reported usage error.
fn policy_flag(arg: &str) -> Option<Result<bolt_core::CompactionPolicyKind, ExitCode>> {
    let name = arg.strip_prefix("--policy=")?;
    Some(bolt_core::CompactionPolicyKind::parse(name).ok_or_else(|| {
        eprintln!(
            "error: unknown policy `{name}` (try: leveled, size-tiered, lazy-leveled, fragmented)"
        );
        ExitCode::from(2)
    }))
}

/// Run the fault sweep on an in-memory filesystem (no db-dir needed): the
/// single-engine scenario, or with `--sharded` the cross-shard 2PC windows
/// of a [`bolt_sharded::ShardedDb`].
fn crash_sweep(args: &[String]) -> Outcome {
    let mut positional: Vec<&String> = Vec::new();
    let mut cfg = if args.iter().any(|a| a == "--sharded") {
        bolt_tools::SweepConfig::for_sharded()
    } else {
        bolt_tools::SweepConfig::default()
    };
    for arg in &args[1..] {
        if arg == "--vlog" {
            cfg.vlog = true;
        } else if arg == "--checkpoint" {
            cfg.checkpoint = true;
        } else if let Some(policy) = policy_flag(arg) {
            cfg.policy = policy?;
        } else if arg != "--sharded" {
            positional.push(arg);
        }
    }
    cfg.max_crash_points = numeric(
        "max-points",
        positional.first().copied(),
        cfg.max_crash_points,
    )?;
    cfg.seed = numeric("seed", positional.get(1).copied(), cfg.seed)?;
    Ok(match bolt_tools::run_crash_sweep(&cfg) {
        Ok(outcome) => {
            print!("{}", bolt_tools::render_report(&outcome));
            if outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    })
}

/// `bolt-tool backup <create|restore|verify> ...` — incremental backups
/// built on online checkpoints. `create` opens the database (honouring
/// `--profile` / `--policy=`), checkpoints it into the backup's staging
/// area and commits a new generation; `restore` rebuilds a database image
/// from a generation with every byte CRC-verified; `verify` checks every
/// generation end to end.
fn backup(args: &[String], profile_name: &str) -> Outcome {
    let mut positional: Vec<&String> = Vec::new();
    let mut policy = None;
    let mut generation: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(parsed) = policy_flag(arg) {
            policy = Some(parsed?);
        } else if arg == "--gen" {
            generation = Some(it.next().and_then(|s| s.parse().ok()).ok_or_else(usage)?);
        } else {
            positional.push(arg);
        }
    }
    let env: Arc<dyn Env> = Arc::new(RealEnv::new("."));
    let result = match positional.as_slice() {
        [verb, db, backup_dir] if verb.as_str() == "create" => {
            let mut opts = profile(profile_name)?;
            if let Some(p) = policy {
                opts.compaction_policy = p;
            }
            bolt_core::Db::open(Arc::clone(&env), db, opts)
                .and_then(|db| {
                    let report = bolt_tools::backup_create(&env, &db, backup_dir);
                    db.close()?;
                    report
                })
                .map(|r| bolt_tools::render_backup_report("create", &r))
        }
        [verb, backup_dir, dest] if verb.as_str() == "restore" => {
            bolt_tools::backup_restore(&env, backup_dir, generation, dest)
                .map(|r| bolt_tools::render_backup_report("restore", &r))
        }
        [verb, backup_dir] if verb.as_str() == "verify" => {
            bolt_tools::backup_verify(&env, backup_dir)
                .map(|r| bolt_tools::render_backup_report("verify", &r))
        }
        _ => return Err(usage()),
    };
    Ok(match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    })
}

/// `bolt-tool trace [--json] [--validate SCHEMA]` — run the canonical micro
/// workload on an in-memory filesystem and dump its event stream.
fn trace(args: &[String]) -> ExitCode {
    let mut json_lines = false;
    let mut schema_path: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_lines = true,
            "--validate" => match it.next() {
                Some(p) => schema_path = Some(p.into()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if schema_path.is_some() && !json_lines {
        eprintln!("error: --validate requires --json");
        return ExitCode::from(2);
    }
    let output = match bolt_tools::trace(json_lines) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{output}");
    if let Some(path) = schema_path {
        let schema = match std::fs::read_to_string(&path) {
            Ok(schema) => schema,
            Err(e) => {
                eprintln!("error: reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match bolt_tools::validate_trace_lines(&output, &schema) {
            Ok(n) => eprintln!("trace: {n} events validated against {}", path.display()),
            Err(e) => {
                eprintln!("error: schema validation failed:\n{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `bolt-tool lint [path] [--config FILE] [--json] [--validate SCHEMA]` —
/// alias of `bolt-lint check`; with `--validate`, the JSON findings stream
/// is additionally checked against the given schema (as `trace` does for
/// its event stream).
fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<std::path::PathBuf> = None;
    let mut config: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut schema_path: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => match it.next() {
                Some(p) => config = Some(p.into()),
                None => return usage(),
            },
            "--json" => json = true,
            "--validate" => match it.next() {
                Some(p) => schema_path = Some(p.into()),
                None => return usage(),
            },
            p if root.is_none() && !p.starts_with('-') => root = Some(p.into()),
            _ => return usage(),
        }
    }
    if schema_path.is_some() && !json {
        eprintln!("error: --validate requires --json");
        return ExitCode::from(2);
    }
    let root = root.unwrap_or_else(|| ".".into());
    let Some(schema_path) = schema_path else {
        return ExitCode::from(
            u8::try_from(bolt_lint::run_check(&root, config.as_deref(), json)).unwrap_or(2),
        );
    };
    let findings = match bolt_lint::check_root(&root, config.as_deref()) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("bolt-lint: error: {e}");
            return ExitCode::from(2);
        }
    };
    let output = bolt_lint::findings_json_lines(&findings);
    print!("{output}");
    let schema = match std::fs::read_to_string(&schema_path) {
        Ok(schema) => schema,
        Err(e) => {
            eprintln!("error: reading {}: {e}", schema_path.display());
            return ExitCode::FAILURE;
        }
    };
    match bolt_tools::validate_json_lines(&output, &schema) {
        Ok(n) => eprintln!(
            "lint: {n} finding(s) validated against {}",
            schema_path.display()
        ),
        Err(e) => {
            eprintln!("error: schema validation failed:\n{e}");
            return ExitCode::FAILURE;
        }
    }
    let errors = findings
        .iter()
        .any(|f| f.severity == bolt_lint::Severity::Error);
    if errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|usage_error| usage_error)
}

fn run() -> Outcome {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Extract --profile anywhere in the argument list.
    let mut profile_name = "bolt".to_string();
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        if pos + 1 >= args.len() {
            return Err(usage());
        }
        profile_name = args.remove(pos + 1);
        args.remove(pos);
    }

    if args.first().map(String::as_str) == Some("crash-sweep") {
        return crash_sweep(&args);
    }
    if args.first().map(String::as_str) == Some("backup") {
        return backup(&args[1..], &profile_name);
    }
    if args.first().map(String::as_str) == Some("lint") {
        return Ok(lint(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("trace") {
        return Ok(trace(&args[1..]));
    }

    // Databases pin their compaction policy in the MANIFEST, so opening
    // one built under a tiered policy needs the matching flag.
    let mut policy = None;
    let mut rest = Vec::new();
    for arg in args {
        match policy_flag(&arg) {
            Some(parsed) => policy = Some(parsed?),
            None => rest.push(arg),
        }
    }
    let args = rest;

    if args.len() < 2 {
        return Err(usage());
    }
    let command = args[0].clone();
    let db = args[1].clone();

    let mut opts = profile(&profile_name)?;
    if let Some(p) = policy {
        opts.compaction_policy = p;
    }
    // The db path's parent is the env root; the db directory name is the
    // final component.
    let env: Arc<dyn Env> = Arc::new(RealEnv::new("."));

    let result = match command.as_str() {
        "stat" | "stats" => {
            let mut format = bolt_tools::StatFormat::Text;
            let mut per_shard = false;
            for arg in &args[2..] {
                match arg.as_str() {
                    "--json" => format = bolt_tools::StatFormat::Json,
                    "--prometheus" => format = bolt_tools::StatFormat::Prometheus,
                    "--per-shard" => per_shard = true,
                    _ => return Err(usage()),
                }
            }
            if per_shard {
                bolt_tools::stat_per_shard(&env, &db, opts, format).map(Some)
            } else {
                bolt_tools::stat(&env, &db, opts, format).map(Some)
            }
        }
        "dump-manifest" => bolt_tools::dump_manifest(&env, &db).map(Some),
        "dump-tables" => bolt_tools::dump_tables(&env, &db, opts).map(Some),
        "scan" => {
            let start = args.get(2).cloned().unwrap_or_default();
            let limit = numeric("limit", args.get(3), 100usize)?;
            bolt_tools::scan(&env, &db, opts, start.as_bytes(), limit).map(Some)
        }
        "get" => match args.get(2) {
            Some(key) => bolt_tools::get(&env, &db, opts, key.as_bytes()).map(|v| {
                Some(match v {
                    Some(value) => format!("{}\n", String::from_utf8_lossy(&value)),
                    None => "(not found)\n".to_string(),
                })
            }),
            None => return Err(usage()),
        },
        "put" => match (args.get(2), args.get(3)) {
            (Some(k), Some(v)) => {
                bolt_tools::put(&env, &db, opts, k.as_bytes(), v.as_bytes()).map(|()| None)
            }
            _ => return Err(usage()),
        },
        "delete" => match args.get(2) {
            Some(k) => bolt_tools::delete_key(&env, &db, opts, k.as_bytes()).map(|()| None),
            None => return Err(usage()),
        },
        "load" => {
            let records = numeric("records", args.get(2), 10_000)?;
            let vlen = numeric("vlen", args.get(3), 256)?;
            bolt_tools::load(&env, &db, opts, records, vlen).map(Some)
        }
        "compact" => bolt_tools::compact(&env, &db, opts).map(Some),
        "verify" => bolt_tools::verify(&env, &db, opts).map(Some),
        _ => return Err(usage()),
    };

    Ok(match result {
        Ok(Some(output)) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    })
}
