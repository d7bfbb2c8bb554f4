//! Perf-history regression report: diff the current benchmark snapshots
//! against the checked-in `BENCH_history.jsonl` trajectory.
//!
//! ```text
//! perf_report [--history <path>] [--check] [--append] [snapshot.json ...]
//! ```
//!
//! With no positional snapshots, the repo-root `BENCH_hotpath.json` and
//! `BENCH_obs.json` are read (missing files are skipped with a note).
//! Every snapshot is flattened into dotted numeric rows and diffed against
//! the history entries of the same schema family: per-row delta against
//! the history median, a MAD jitter bar, and a verdict — `ok`,
//! `REGRESSION` (a timing row more than 15% above its median), `new`
//! (no history yet), `info` (non-timing rows, never gated), or `retired`
//! (a history row the snapshot no longer has, never gated). This
//! generalizes `bench_baseline.sh --check` to the hotpath, obs, and any
//! future schema at once: a snapshot's kind derives from its `schema` tag,
//! so new benchmark families join the gate without code changes.
//!
//! `--check` exits 1 when any row regressed (`scripts/perf_history.sh`
//! wires this behind `BENCH_CHECK=1`). `--append` appends each snapshot to
//! the history file *after* diffing, growing the trajectory one measured
//! point per run.

use std::path::PathBuf;

use dphpo_bench::history::{self, Verdict};
use dphpo_dnnp::json::Json;

fn path_arg(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter().position(|a| a == flag).map(|i| {
        PathBuf::from(
            args.get(i + 1).unwrap_or_else(|| panic!("{flag} requires a path argument")),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let do_append = args.iter().any(|a| a == "--append");
    let history_path =
        path_arg(&args, "--history").unwrap_or_else(|| PathBuf::from("BENCH_history.jsonl"));

    // Positional snapshot paths: everything that is not a flag (or the
    // --history value).
    let mut snapshots: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" | "--append" => {}
            "--history" => i += 1,
            flag if flag.starts_with("--") => {
                eprintln!("perf_report: unknown flag `{flag}`");
                eprintln!("usage: perf_report [--history <path>] [--check] [--append] [snapshot.json ...]");
                std::process::exit(2);
            }
            path => snapshots.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if snapshots.is_empty() {
        snapshots = vec![PathBuf::from("BENCH_hotpath.json"), PathBuf::from("BENCH_obs.json")];
    }

    let history = match history::load(&history_path) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perf_report: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# Perf report ({} history entries from {})\n",
        history.len(),
        history_path.display()
    );

    let mut regressions = 0usize;
    for path in &snapshots {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("(skipping {}: not found)\n", path.display());
                continue;
            }
            Err(e) => {
                eprintln!("perf_report: read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perf_report: parse {}: {e:?}", path.display());
                std::process::exit(1);
            }
        };
        let fresh = match history::entry_from_snapshot(&doc) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("perf_report: {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let same_kind = history.iter().filter(|e| e.kind == fresh.kind).count();
        let rows = history::diff(&history, &fresh);
        regressions += rows.iter().filter(|r| r.verdict == Verdict::Regression).count();
        print!("{}", history::render_diff(&fresh, &rows, same_kind));
        println!();
        if do_append {
            if let Err(e) = history::append(&history_path, &fresh) {
                eprintln!("perf_report: {e}");
                std::process::exit(1);
            }
            println!("appended {} snapshot to {}\n", fresh.kind, history_path.display());
        }
    }

    if regressions > 0 {
        println!("perf report: {regressions} row(s) REGRESSED (>15% over history median)");
        if check {
            std::process::exit(1);
        }
    } else {
        println!("perf report: no regressions");
    }
}
