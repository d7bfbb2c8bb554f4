//! Self-test of the benchmark at smoke scale, through the same `run` entry
//! point the command line uses: every metric `BENCHMARK.json` names is
//! emitted with its unit, the result object has exactly its four keys,
//! and the traced ledger sums exactly to `n_workers x campaign_s`.

use std::path::PathBuf;

use dphpo_campaign_bench::workload::{Workload, N_WORKERS};
use dphpo_campaign_bench::{run, Args, Report};
use dphpo_dnnp::Json;

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(items)) = doc.get(list) else {
        panic!("no {list} list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(trace: bool, tag: &str) -> Report {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let args = Args {
        workload: Workload::Smoke,
        seed: 3,
        seconds: 0.0,
        trace,
        work_dir: work_dir.clone(),
    };
    let report = run(&args).expect("smoke run passes its checks");
    assert!(!work_dir.exists(), "the run removes its campaign files");
    report
}

/// The result object carries exactly its four keys, and every
/// declared metric with its declared unit.
fn assert_result(report: &Report, list: &str) {
    let doc = Json::parse(&report.json()).expect("result object parses");
    let Json::Object(keys) = &doc else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = doc.get("metrics").unwrap();
    let expected = declared(list);
    for (name, unit) in &expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{list} metric {name} not emitted"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "unit of {name}"
        );
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
    assert_eq!(
        report.metrics.len(),
        expected.len(),
        "no undeclared metrics"
    );
}

#[test]
fn untraced_run_emits_every_end_to_end_metric() {
    let report = smoke(false, "untraced");
    assert_result(&report, "end_to_end");
    for name in [
        "campaign_s",
        "trainings_per_s",
        "train_steps_per_s",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(report.metric(name).unwrap() > 0.0, "{name} is never 0");
    }
    let planned = Workload::Smoke.planned_trainings() as u64;
    assert_eq!(report.attempted % planned, 0, "whole campaigns are counted");
    assert!(report.attempted >= 2 * planned, "at least two repeats");
}

#[test]
fn traced_run_emits_every_layer_metric_and_an_exact_ledger() {
    let report = smoke(true, "traced");
    assert_result(&report, "per_layer");
    let ledger = report
        .ledger
        .as_ref()
        .expect("traced runs keep their ledger");
    assert_eq!(
        ledger.sum(),
        ledger.total_s,
        "lines plus unattributed fsum to the total"
    );
    assert_eq!(ledger.lines.last().unwrap().name, "unattributed");
    let campaign_s = ledger.total_s / N_WORKERS as f64;
    assert!(campaign_s > 0.0);
    let frac = report.metric("ledger.unattributed_frac").unwrap();
    assert_eq!(frac, ledger.line("unattributed") / ledger.total_s);
    assert!(report.metric("dnnp.steps").unwrap() > 0.0);
    let busy = report.metric("hpc.busy_frac").unwrap();
    assert!(busy > 0.0 && busy <= 1.0, "busy fraction {busy}");
}

#[test]
fn penalty_causes_are_told_apart() {
    use dphpo_campaign_bench::campaign::{diverged_cause, DivergedCause};
    let base = Workload::PaperShape.config(0).base_train_config;
    // Mutation clamped rcut and rcut_smth to the same 6 A bound: the
    // configuration is invalid and the workflow scores it MAXINT untrained.
    let clamped = [0.008, 6.5e-5, 6.0, 6.0, 1.8, 3.1, 3.4];
    assert_eq!(diverged_cause(&base, &clamped, None), DivergedCause::Rejected);
    let valid = [0.008, 6.5e-5, 9.0, 3.0, 1.8, 3.1, 3.4];
    assert_eq!(diverged_cause(&base, &valid, Some(7)), DivergedCause::Sentinel);
    assert_eq!(diverged_cause(&base, &valid, None), DivergedCause::Unexplained);
}
