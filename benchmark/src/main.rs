//! The pinned single-engine benchmark of the BoLT reproduction.
//!
//! ```text
//! bolt-benchmark run --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]
//!                    [--smoke] [--out runs.jsonl]
//! bolt-benchmark probe
//! bolt-benchmark summarize <runs.jsonl>
//! bolt-benchmark compare <base> <new> [--benchmark BENCHMARK.json]
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and how
//! to compare two commits.

mod compare;
mod config;
mod gen;
mod json;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use compare::Contract;
use config::Workload;
use report::Metric;
use trace::Recorder;
use workload::RunSpec;

/// `run_seconds` of `BENCHMARK.json`; `--smoke` checks that they agree.
const DEFAULT_SECONDS: f64 = 8.0;
/// A smoke run shrinks the preloads by this and measures this long.
const SMOKE_SHRINK: u64 = 20;
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage:
  bolt-benchmark run --workload <name|all> [--seed n] [--seconds s] [--trace 0|1] [--smoke] [--out runs.jsonl]
  bolt-benchmark probe
  bolt-benchmark summarize <runs.jsonl>
  bolt-benchmark compare <base> <new> [--benchmark BENCHMARK.json]
workloads: fill_random read_cold read_hot scan_cold scan_hot mixed_rw";

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn default_contract_path() -> PathBuf {
    crate_dir().join("..").join("BENCHMARK.json")
}

/// The arguments after the subcommand: `--key value` pairs, bare flags and
/// positional words.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], bare_flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut words = raw.iter();
        while let Some(word) = words.next() {
            match word.strip_prefix("--") {
                Some(flag) if bare_flags.contains(&flag) => args.flags.push(flag.to_string()),
                Some(key) => {
                    let value = words.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), value.clone()));
                }
                None => args.positional.push(word.clone()),
            }
        }
        Ok(args)
    }

    fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!("unknown option --{key}")),
            None => Ok(()),
        }
    }
}

/// What one workload's run produced, ready to print.
struct WorkloadResult {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The end-to-end metrics of the untraced run.
    end_to_end: Vec<Metric>,
    /// The per-layer metrics, when traced.
    per_layer: Option<Vec<Metric>>,
}

impl WorkloadResult {
    /// The metrics the driver asked for with `--trace`.
    fn reported(&self) -> &[Metric] {
        self.per_layer.as_deref().unwrap_or(&self.end_to_end)
    }
}

fn run_workload(
    spec: &RunSpec,
    trace: bool,
    probes: Option<&(Vec<Metric>, f64)>,
) -> bolt::Result<WorkloadResult> {
    eprint!("{}", report::header(spec, trace));
    // A traced invocation runs the workload twice (untraced for the tracing
    // overhead), so it sets up once each.
    let setups = if trace { 1 } else { spec.workload.setups() };
    let untraced = workload::run(spec, setups, None)?;
    let shape: Vec<_> = untraced
        .shape_after_setup
        .iter()
        .map(|l| (l.runs, l.tables, l.bytes))
        .collect();
    eprintln!("# tree after set-up (runs, tables, bytes per level): {shape:?}");
    let end_to_end = report::end_to_end(&untraced);
    let mut result = WorkloadResult {
        workload: spec.workload,
        correct: untraced.report.failed == 0,
        attempted: untraced.report.attempted,
        failed: untraced.report.failed,
        end_to_end,
        per_layer: None,
    };
    if let Some((probes, reads_per_open)) = probes {
        let recorder = Arc::new(Recorder::default());
        let traced = workload::run(spec, 1, Some(Arc::clone(&recorder)))?;
        let metrics = report::per_layer(&traced, &untraced, probes, *reads_per_open);
        let must_be_zero = [
            "env.barriers.unattributed",
            "trace.events_dropped",
            "trace.io_mismatches",
            "trace.self_time_mismatch_frac",
        ];
        for m in metrics
            .iter()
            .filter(|m| must_be_zero.contains(&m.name.as_str()))
        {
            if m.value != 0.0 {
                eprintln!("# trace check failed: {} = {}", m.name, m.value);
                result.correct = false;
            }
        }
        if traced.shape_after_setup != untraced.shape_after_setup {
            eprintln!("# trace check failed: the traced set-up built a different tree");
            result.correct = false;
        }
        result.correct &= traced.report.failed == 0;
        result.attempted += traced.report.attempted;
        result.failed += traced.report.failed;
        result.per_layer = Some(metrics);

        let out_dir = crate_dir().join("out");
        let path = out_dir.join(format!("{}.spans.jsonl", spec.workload.name()));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, recorder.raw_spans_jsonl()));
        match written {
            Ok(()) => eprintln!("# raw spans: {}", path.display()),
            Err(e) => eprintln!("# could not write {}: {e}", path.display()),
        }
    }
    Ok(result)
}

/// The line `run --out` appends: the result line plus what identifies it.
fn run_record(result: &WorkloadResult, seed: u64, trace: bool) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}}}\n",
        json::quote(result.workload.name()),
        u8::from(trace),
        result.correct,
        result.attempted,
        result.failed,
        report::metrics_json(result.reported())
    )
}

/// The names a smoke run must emit: exactly the lists of `BENCHMARK.json`.
fn check_names(contract: &Contract, result: &WorkloadResult) -> Result<(), String> {
    let emitted = |metrics: &[Metric]| metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let gated: Vec<_> = contract.end_to_end.iter().map(|g| g.name.clone()).collect();
    if emitted(&result.end_to_end) != gated {
        return Err(format!(
            "end-to-end names differ from BENCHMARK.json: {:?}",
            emitted(&result.end_to_end)
        ));
    }
    if let Some(per_layer) = &result.per_layer {
        let mut mine = emitted(per_layer);
        let mut theirs = contract.per_layer.clone();
        mine.sort();
        theirs.sort();
        if mine != theirs {
            let extra: Vec<_> = mine.iter().filter(|n| !theirs.contains(n)).collect();
            let missing: Vec<_> = theirs.iter().filter(|n| !mine.contains(n)).collect();
            return Err(format!(
                "per-layer names differ from BENCHMARK.json: not listed {extra:?}, not emitted {missing:?}"
            ));
        }
    }
    Ok(())
}

fn cmd_run(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["smoke"])?;
    args.reject_unknown(&["workload", "seed", "seconds", "trace", "out"])?;
    let smoke = args.flags.iter().any(|f| f == "smoke");
    let seed = match args.option("seed") {
        None => 1,
        Some(text) => text
            .parse::<u64>()
            .map_err(|_| format!("--seed {text}: not a whole number"))?,
    };
    let seconds = match args.option("seconds") {
        None if smoke => SMOKE_SECONDS,
        None => DEFAULT_SECONDS,
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 3600.0)
            .ok_or(format!("--seconds {text}: expected a number in (0, 3600]"))?,
    };
    let trace = match args.option("trace") {
        None => smoke,
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let workloads: Vec<Workload> = match args.option("workload") {
        None if smoke => Workload::ALL.to_vec(),
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => vec![Workload::from_name(name).ok_or(format!("unknown workload {name}"))?],
        None => return Err("--workload is required".to_string()),
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let contract = if smoke {
        let path = default_contract_path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let contract = Contract::parse(&text)?;
        if contract.run_seconds != DEFAULT_SECONDS {
            return Err(format!(
                "BENCHMARK.json run_seconds {} differs from the default {DEFAULT_SECONDS}",
                contract.run_seconds
            ));
        }
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        if contract.workloads != names {
            return Err(format!("BENCHMARK.json workloads differ from {names:?}"));
        }
        Some(contract)
    } else {
        None
    };

    let probes = if trace {
        Some(probe::run().map_err(|e| format!("probe: {e}"))?)
    } else {
        None
    };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for workload in workloads {
        let spec = RunSpec {
            workload,
            seed,
            seconds,
            shrink: if smoke { SMOKE_SHRINK } else { 1 },
            cores,
        };
        let result = run_workload(&spec, trace, probes.as_ref())
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        if let Some(contract) = &contract {
            check_names(contract, &result)?;
        }
        println!("## {} end-to-end (untraced run)", workload.name());
        print!("{}", report::text_table(&result.end_to_end));
        if let Some(per_layer) = &result.per_layer {
            println!(
                "## {} per layer (traced run, probes, ungated run.*)",
                workload.name()
            );
            print!("{}", report::text_table(per_layer));
        }
        if let Some(path) = args.option("out") {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| file.write_all(run_record(&result, seed, trace).as_bytes()))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        all_correct &= result.correct;
        lines.push(report::result_line(
            result.correct,
            result.attempted,
            result.failed,
            result.reported(),
        ));
    }
    // The result lines come last, one per workload, so that the last line
    // of the output is always a result.
    for line in lines {
        println!("{line}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_probe() -> Result<ExitCode, String> {
    let (metrics, reads_per_open) = probe::run().map_err(|e| format!("probe: {e}"))?;
    print!("{}", report::text_table(&metrics));
    println!(
        "{:<44} {:>16.4} count",
        "(env reads per Table::open)", reads_per_open
    );
    println!("{}", report::metrics_json(&metrics));
    Ok(ExitCode::SUCCESS)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_summarize(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&["note"])?;
    let [path] = args.positional.as_slice() else {
        return Err("summarize takes one runs file".to_string());
    };
    let set = compare::load(&read(path)?)?;
    print!(
        "{}",
        compare::summary_json(&set, args.option("note").unwrap_or(""))
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&["benchmark"])?;
    let [base, new] = args.positional.as_slice() else {
        return Err("compare takes two files".to_string());
    };
    let contract_path = args
        .option("benchmark")
        .map_or_else(default_contract_path, PathBuf::from);
    let contract = Contract::parse(&read(&contract_path.to_string_lossy())?)?;
    let (table, regressed) = compare::compare(
        &contract,
        &compare::load(&read(base)?)?,
        &compare::load(&read(new)?)?,
    );
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => cmd_run(rest),
            "probe" => cmd_probe(),
            "summarize" => cmd_summarize(rest),
            "compare" => cmd_compare(rest),
            _ => Err(USAGE.to_string()),
        },
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
