//! Campaign wall-clock benchmark.
//!
//! One workload per invocation. Untraced, it times whole campaigns (driven
//! through the public `Campaign` builder with journal, status file and
//! profile directory on), checks their outputs, and reports the end-to-end
//! metrics. Traced, it runs the campaign once more with a wall-clock
//! `MemoryRecorder` attached, probes each layer's public functions with
//! inputs from the campaign's own journal, and reports the per-layer
//! metrics and the wall-clock ledger. See `README.md` in this directory.

pub mod campaign;
pub mod ledger;
pub mod probes;
pub mod stats;
pub mod workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dphpo_core::experiment::{build_dataset, ExperimentConfig};
use dphpo_md::Dataset;
use dphpo_obs::{names, MemoryRecorder, Recorder};

use campaign::{check_outcome, run_campaign, CampaignFiles, CampaignRun, Outcome};
use ledger::{gauge_max, hist_count, hist_sum_s, occupancy, Ledger, Line};
use probes::run_probes;
use stats::{mean, median, quantile};
use workload::{Workload, N_WORKERS};

/// Dataset builds timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Untraced campaigns per run at least: the repeat both steadies the
/// median and proves the journal bytes are reproducible.
pub const MIN_REPEATS: usize = 2;

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Untraced: keep repeating the campaign until this many seconds have
    /// passed (at least `MIN_REPEATS` times).
    pub seconds: f64,
    /// Run the traced, per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// Scratch directory for campaign files (removed afterwards).
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one invocation measured and checked.
#[derive(Clone, Debug)]
pub struct Report {
    /// Human-readable lines (metrics, checks, ledger).
    pub lines: Vec<String>,
    /// The metrics the invocation reports.
    pub metrics: Vec<Metric>,
    /// Trainings attempted by the measured campaigns.
    pub attempted: u64,
    /// Trainings among them that ended with the MAXINT penalty.
    pub failed: u64,
    /// The ledger (traced runs only).
    pub ledger: Option<Ledger>,
}

impl Report {
    /// The result object: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of a reported metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite number in JSON (non-finite values are a bug upstream).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// Reset this process's peak resident set size (`VmHWM`) to its current
/// resident set size, so the next read covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Build the shared dataset `SETUP_REPEATS` times; returns the median
/// wall time and the dataset.
fn timed_setup(config: &ExperimentConfig) -> (f64, (Arc<Dataset>, Arc<Dataset>)) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        data = Some(build_dataset(config));
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), data.expect("at least one build"))
}

/// Run one campaign in a fresh subdirectory and check its outputs.
fn checked_campaign(
    args: &Args,
    config: &ExperimentConfig,
    tag: &str,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<(CampaignRun, Outcome), String> {
    let files = CampaignFiles::fresh(args.work_dir.join(tag))?;
    let run = run_campaign(config, &files, recorder)?;
    let outcome = Outcome::of(config, &run);
    check_outcome(args.workload, run.journal.evals.len(), &outcome)
        .map_err(|e| format!("{tag}: {e}"))?;
    Ok((run, outcome))
}

/// Run the invocation `args` describes.
pub fn run(args: &Args) -> Result<Report, String> {
    let config = args.workload.config(args.seed);
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let result = if args.trace {
        traced(args, &config)
    } else {
        untraced(args, &config)
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    result
}

fn outcome_lines(lines: &mut Vec<String>, args: &Args, outcome: &Outcome) {
    lines.push(format!(
        "trainings: {} planned, {} completed, {} penalized by design ({} rejected configurations, {} diverged, {} timed out), {} failed ({} unexplained MAXINT, {} exhausted retries); {} worker deaths, {} tasks retried",
        args.workload.planned_trainings(),
        outcome.trainings,
        outcome.penalized(),
        outcome.rejected,
        outcome.diverged,
        outcome.timed_out,
        outcome.failed(),
        outcome.unexplained,
        outcome.exhausted,
        outcome.deaths,
        outcome.retries,
    ));
    lines.push(format!(
        "front: final hypervolume per run {:?}, best force RMSE {} eV/A",
        outcome.final_hv,
        outcome.best_rmse_f()
    ));
}

fn untraced(args: &Args, config: &ExperimentConfig) -> Result<Report, String> {
    let (setup_s, _) = timed_setup(config);
    let t0 = Instant::now();
    let mut runs: Vec<(CampaignRun, Outcome)> = Vec::new();
    // Peak memory of each repeat: which trainings overlap on the two
    // workers, and so the high-water mark, varies from repeat to repeat.
    let mut peaks = Vec::new();
    while runs.len() < MIN_REPEATS || t0.elapsed().as_secs_f64() < args.seconds {
        reset_peak_rss()?;
        let run = checked_campaign(args, config, &format!("campaign-{}", runs.len()), None)?;
        peaks.push(peak_rss_mb()?);
        runs.push(run);
    }
    let (first, outcome) = &runs[0];
    for (i, (run, other)) in runs.iter().enumerate().skip(1) {
        if run.journal_digest != first.journal_digest || other != outcome {
            return Err(format!(
                "repeat {i} of seed {} differs from repeat 0 (journal digest {:016x} vs {:016x})",
                args.seed, run.journal_digest, first.journal_digest
            ));
        }
    }
    let times: Vec<f64> = runs.iter().map(|(r, _)| r.campaign_s).collect();
    let campaign_s = median(&times);
    let metrics = vec![
        Metric {
            name: "campaign_s",
            unit: "s",
            value: campaign_s,
        },
        Metric {
            name: "trainings_per_s",
            unit: "1/s",
            value: outcome.trainings as f64 / campaign_s,
        },
        Metric {
            name: "train_steps_per_s",
            unit: "1/s",
            value: outcome.steps as f64 / campaign_s,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: median(&peaks),
        },
    ];
    let mut lines = vec![format!(
        "campaigns: {} repeats of seed {}, campaign_s each {:?}, peak_rss_mb each {:?}, journals byte-identical (digest {:016x}, {} bytes)",
        runs.len(),
        args.seed,
        times,
        peaks,
        first.journal_digest,
        first.journal_bytes
    )];
    outcome_lines(&mut lines, args, outcome);
    let repeats = runs.len() as u64;
    Ok(Report {
        lines,
        metrics,
        attempted: repeats * outcome.trainings as u64,
        failed: repeats * outcome.failed() as u64,
        ledger: None,
    })
}

fn traced(args: &Args, config: &ExperimentConfig) -> Result<Report, String> {
    let (dataset_s, (train, val)) = timed_setup(config);
    let (plain, outcome) = checked_campaign(args, config, "untraced", None)?;
    let created = Instant::now();
    let recorder = Arc::new(MemoryRecorder::with_wall_clock());
    let (run, traced_outcome) = checked_campaign(
        args,
        config,
        "traced",
        Some(recorder.clone() as Arc<dyn Recorder>),
    )?;
    // The recorder stamps microseconds since its creation; the campaign
    // clock starts at `Campaign::run`.
    let origin_us = run.started.duration_since(created).as_secs_f64() * 1e6;
    if run.journal_digest != plain.journal_digest || traced_outcome != outcome {
        return Err(format!(
            "the traced campaign's journal differs from the untraced one ({:016x} vs {:016x})",
            run.journal_digest, plain.journal_digest
        ));
    }
    let snap = recorder.snapshot();
    let steps = snap.counter(names::C_STEPS);
    if steps != outcome.steps {
        return Err(format!(
            "train.steps counter reads {steps}, the journal implies {}",
            outcome.steps
        ));
    }
    let probes = run_probes(
        config,
        &train,
        &val,
        &run,
        &args.work_dir,
        args.workload.probe_plan(),
    )?;

    // The side channel: per-step wall phases, summed over the campaign.
    let step_wall_s = hist_sum_s(&snap, names::H_STEP_WALL_NS);
    let graph_s = hist_sum_s(&snap, names::H_PHASE_GRAPH_WALL_NS);
    let backward_s = hist_sum_s(&snap, names::H_PHASE_BACKWARD_WALL_NS);
    let optimizer_s = hist_sum_s(&snap, names::H_PHASE_OPTIMIZER_WALL_NS);
    let val_s = hist_sum_s(&snap, names::H_PHASE_VAL_WALL_NS);
    let val_mean_s = val_s / hist_count(&snap, names::H_PHASE_VAL_WALL_NS).max(1) as f64;
    let step_mean_s = step_wall_s / steps.max(1) as f64;
    let in_step_unattributed_s = step_wall_s - graph_s - backward_s - optimizer_s;

    let occ = occupancy(
        &snap,
        N_WORKERS,
        run.campaign_s,
        origin_us,
        probes.head_s(),
        step_mean_s,
        val_mean_s,
    );
    let trained = occ.trainings as f64;
    let setup_line = trained * mean(&probes.run_setup_s);
    let workflow_line = trained * mean(&probes.eval_overhead_s).max(0.0);
    let ledger = Ledger::close(
        N_WORKERS as f64 * run.campaign_s,
        vec![
            Line {
                name: "dnnp.phase.graph",
                seconds: graph_s,
                source: "side.phase.graph_wall_ns",
            },
            Line {
                name: "dnnp.phase.backward",
                seconds: backward_s,
                source: "side.phase.backward_wall_ns",
            },
            Line {
                name: "dnnp.phase.optimizer",
                seconds: optimizer_s,
                source: "side.phase.optimizer_wall_ns",
            },
            Line {
                name: "dnnp.phase.val",
                seconds: val_s,
                source: "side.phase.val_wall_ns",
            },
            Line {
                name: "dnnp.phase.unattributed",
                seconds: in_step_unattributed_s,
                source: "side.step_wall_ns minus the phases",
            },
            Line {
                name: "dnnp.run_setup",
                seconds: setup_line,
                source: "trainings x mean TrainRun::new probe",
            },
            Line {
                name: "workflow.eval_overhead",
                seconds: workflow_line,
                source: "trainings x mean evaluate_individual overhead probe",
            },
            Line {
                name: "hpc.idle",
                seconds: occ.idle_s,
                source: "worker time with fewer trainings in flight than workers",
            },
        ],
    );

    let hits = snap.counter(names::C_TAPE_POOL_HITS) as f64;
    let leases = snap.counter(names::C_TAPE_LEASES) as f64;
    let rewrites: usize = run
        .result
        .status
        .runs
        .iter()
        .map(|r| r.generations.len())
        .sum();
    let append_us: Vec<f64> = probes.append_s.iter().map(|v| v * 1e6).collect();
    let step_us: Vec<f64> = probes.step_s.iter().map(|v| v * 1e6).collect();
    let metrics = vec![
        Metric {
            name: "md.dataset_s",
            unit: "s",
            value: dataset_s,
        },
        Metric {
            name: "dnnp.run_setup_ms_p50",
            unit: "ms",
            value: median(&probes.run_setup_s) * 1e3,
        },
        Metric {
            name: "dnnp.step_us_p50",
            unit: "us",
            value: median(&step_us),
        },
        Metric {
            name: "dnnp.step_us_p99",
            unit: "us",
            value: quantile(&step_us, 0.99),
        },
        Metric {
            name: "dnnp.steps",
            unit: "count",
            value: steps as f64,
        },
        Metric {
            name: "dnnp.phase.graph_s",
            unit: "s",
            value: graph_s,
        },
        Metric {
            name: "dnnp.phase.backward_s",
            unit: "s",
            value: backward_s,
        },
        Metric {
            name: "dnnp.phase.optimizer_s",
            unit: "s",
            value: optimizer_s,
        },
        Metric {
            name: "dnnp.phase.val_s",
            unit: "s",
            value: val_s,
        },
        Metric {
            name: "dnnp.phase.unattributed_s",
            unit: "s",
            value: in_step_unattributed_s,
        },
        Metric {
            name: "autograd.pool_hit_ratio",
            unit: "ratio",
            value: hits / leases.max(1.0),
        },
        Metric {
            name: "autograd.leased_bytes_hw",
            unit: "B",
            value: gauge_max(&snap, names::G_TAPE_LEASED_HW),
        },
        Metric {
            name: "workflow.eval_overhead_ms_p50",
            unit: "ms",
            value: median(&probes.eval_overhead_s) * 1e3,
        },
        Metric {
            name: "hpc.busy_frac",
            unit: "ratio",
            value: occ.busy_s / ledger.total_s,
        },
        Metric {
            name: "hpc.idle_s",
            unit: "s",
            value: occ.idle_s,
        },
        Metric {
            name: "hpc.deaths",
            unit: "count",
            value: outcome.deaths as f64,
        },
        Metric {
            name: "hpc.retries",
            unit: "count",
            value: outcome.retries as f64,
        },
        Metric {
            name: "evo.select_ms_p50",
            unit: "ms",
            value: median(&probes.select_s) * 1e3,
        },
        Metric {
            name: "evo.front_hv",
            unit: "eV2/atom/A",
            value: outcome.front_hv(),
        },
        Metric {
            name: "evo.best_rmse_f",
            unit: "eV/A",
            value: outcome.best_rmse_f(),
        },
        Metric {
            name: "journal.append_us_p50",
            unit: "us",
            value: median(&append_us),
        },
        Metric {
            name: "journal.append_us_p99",
            unit: "us",
            value: quantile(&append_us, 0.99),
        },
        Metric {
            name: "journal.appends",
            unit: "count",
            value: (run.journal.frames - 1) as f64,
        },
        Metric {
            name: "journal.bytes",
            unit: "B",
            value: run.journal_bytes as f64,
        },
        Metric {
            name: "report.status_rewrite_ms_p50",
            unit: "ms",
            value: median(&probes.status_rewrite_s) * 1e3,
        },
        Metric {
            name: "report.profile_rewrite_ms_p50",
            unit: "ms",
            value: median(&probes.profile_rewrite_s) * 1e3,
        },
        Metric {
            name: "report.rewrites",
            unit: "count",
            value: rewrites as f64,
        },
        Metric {
            name: "obs.trace_overhead_frac",
            unit: "ratio",
            value: run.campaign_s / plain.campaign_s - 1.0,
        },
        Metric {
            name: "ledger.unattributed_frac",
            unit: "ratio",
            value: ledger.unattributed_frac(),
        },
    ];

    let mut lines = vec![format!(
        "campaigns: untraced {:.3} s, traced {:.3} s, journals byte-identical (digest {:016x}, {} bytes)",
        plain.campaign_s, run.campaign_s, run.journal_digest, run.journal_bytes
    )];
    outcome_lines(&mut lines, args, &outcome);
    lines.push(format!(
        "probe samples: {} set-ups, {} steps, {} workflow evaluations, {} selections, {} appends, {} + {} rewrites",
        probes.run_setup_s.len(),
        probes.step_s.len(),
        probes.eval_overhead_s.len(),
        probes.select_s.len(),
        probes.append_s.len(),
        probes.status_rewrite_s.len(),
        probes.profile_rewrite_s.len(),
    ));
    lines.push(format!(
        "ledger: {} workers x {:.6} s = {:.6} worker-s ({} trainings traced)",
        N_WORKERS, run.campaign_s, ledger.total_s, occ.trainings
    ));
    for line in &ledger.lines {
        lines.push(format!(
            "ledger {:<26} {:>12.6} s {:>6.2}%  {}",
            line.name,
            line.seconds,
            100.0 * line.seconds / ledger.total_s,
            line.source
        ));
    }
    lines.push(format!(
        "ledger fsum of lines = {:.6} s (total {:.6} s)",
        ledger.sum(),
        ledger.total_s
    ));
    // Driver-thread work, for reading hpc.idle: workers wait on it at every
    // barrier. Estimates (count x mean probe), not ledger lines.
    for (name, seconds) in [
        (
            "evo.select (boundaries x mean)",
            rewrites as f64 * mean(&probes.select_s),
        ),
        (
            "journal.append (appends x mean)",
            (run.journal.frames - 1) as f64 * mean(&probes.append_s),
        ),
        (
            "report.rewrite (rewrites x mean)",
            rewrites as f64 * (mean(&probes.status_rewrite_s) + mean(&probes.profile_rewrite_s)),
        ),
        ("md.dataset (once per campaign)", dataset_s),
    ] {
        lines.push(format!("driver {name:<36} {seconds:>10.6} s"));
    }
    Ok(Report {
        lines,
        metrics,
        attempted: 2 * outcome.trainings as u64,
        failed: 2 * outcome.failed() as u64,
        ledger: Some(ledger),
    })
}
