//! One campaign, driven through the public `Campaign` builder with the
//! journal, status file and profile directory on (as `fig1` turns them
//! on), timed from the outside and checked.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dphpo_core::decode::decode;
use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentResult};
use dphpo_core::journal::{FaultKind, Journal};
use dphpo_dnnp::TrainConfig;
use dphpo_hpc::{paper_job, CostModel};
use dphpo_obs::Recorder;

use crate::workload::Workload;

/// Artifacts of one campaign run.
pub struct CampaignRun {
    /// Wall time of `Campaign::run`, seconds.
    pub campaign_s: f64,
    /// The campaign's result.
    pub result: ExperimentResult,
    /// FNV-1a digest of the journal bytes.
    pub journal_digest: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// The loaded journal.
    pub journal: Journal,
    /// When `Campaign::run` was called.
    pub started: Instant,
}

/// Where one campaign's files go.
pub struct CampaignFiles {
    /// The directory holding them.
    pub dir: PathBuf,
}

impl CampaignFiles {
    /// A fresh, empty directory `dir`.
    pub fn fresh(dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("profile"))
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(CampaignFiles { dir })
    }

    /// The write-ahead journal.
    pub fn journal(&self) -> PathBuf {
        self.dir.join("campaign.journal.jsonl")
    }

    /// The atomically rewritten status file.
    pub fn status(&self) -> PathBuf {
        self.dir.join("campaign_status.json")
    }

    /// The profile artifact directory.
    pub fn profile(&self) -> PathBuf {
        self.dir.join("profile")
    }
}

/// Run one campaign in `files`, optionally with a recorder attached.
pub fn run_campaign(
    config: &ExperimentConfig,
    files: &CampaignFiles,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<CampaignRun, String> {
    let mut campaign = Campaign::new(config)
        .journal(files.journal())
        .status_file(files.status())
        .profile_dir(files.profile());
    if let Some(rec) = recorder {
        campaign = campaign.recorder(rec);
    }
    let started = Instant::now();
    let result = campaign
        .run(None)
        .map_err(|e| format!("campaign failed: {e}"))?;
    let campaign_s = started.elapsed().as_secs_f64();
    let journal_path = files.journal();
    let bytes = std::fs::read(&journal_path)
        .map_err(|e| format!("cannot read {}: {e}", journal_path.display()))?;
    let journal = Journal::load(&journal_path).map_err(|e| format!("journal: {e}"))?;
    Ok(CampaignRun {
        campaign_s,
        result,
        journal_digest: fnv1a(&bytes),
        journal_bytes: bytes.len() as u64,
        journal,
        started,
    })
}

/// Steps a timed-out training completed: the supervised workflow charges
/// each step `estimated_minutes / num_steps` simulated minutes and stops
/// before the step that would cross the pool's timeout (all steps ran when
/// only the sampled runtime crossed it).
fn deadline_steps(config: &ExperimentConfig, genome: &[f64]) -> usize {
    let num_steps = config.base_train_config.num_steps.max(1);
    let Some(limit) = config.pool.timeout_minutes else {
        return num_steps;
    };
    let per_step =
        CostModel::default().gpu_minutes_mean(&paper_job(decode(genome).rcut)) / num_steps as f64;
    (0..num_steps)
        .find(|&s| (s + 1) as f64 * per_step > limit)
        .unwrap_or(num_steps)
}

/// FNV-1a, 64-bit: a digest for comparing journal bytes across repeats.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Why a journal entry of kind `FaultKind::Diverged` ended MAXINT. The
/// journal folds every non-timeout training failure into that kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergedCause {
    /// The divergence sentinel stopped the training at a journaled step.
    Sentinel,
    /// `TrainConfig::validate` rejects the decoded genome, so the workflow
    /// scored it MAXINT without training.
    Rejected,
    /// Neither: a valid configuration failed without a sentinel step.
    Unexplained,
}

/// The cause of a `FaultKind::Diverged` entry with `genome` and
/// `fault_step`, under the campaign's base training configuration.
pub fn diverged_cause(
    base: &TrainConfig,
    genome: &[f64],
    fault_step: Option<usize>,
) -> DivergedCause {
    if fault_step.is_some() {
        DivergedCause::Sentinel
    } else if decode(genome).apply_to(base).validate().is_err() {
        DivergedCause::Rejected
    } else {
        DivergedCause::Unexplained
    }
}

/// What a campaign delivered, read from its result and journal.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Trainings the campaign completed (`ExperimentResult::total_evaluations`).
    pub trainings: usize,
    /// Genomes whose decoded configuration `TrainConfig::validate`
    /// rejects (mutation can clamp `rcut_smth` and `rcut` to the same
    /// 6 Å bound): MAXINT penalty by design, no step runs.
    pub rejected: usize,
    /// Trainings the divergence sentinel stopped at a journaled step
    /// (MAXINT penalty by design).
    pub diverged: usize,
    /// Trainings killed at the simulated wall-clock limit (MAXINT penalty
    /// by design).
    pub timed_out: usize,
    /// Trainings with a valid configuration that ended MAXINT without a
    /// sentinel step: the program failed them.
    pub unexplained: usize,
    /// Trainings lost to exhausted retries or cancellation: no result was
    /// delivered.
    pub exhausted: usize,
    /// Training steps completed, derived from the journal: a finished
    /// training ran `num_steps`, a diverged one stopped at its fault step,
    /// a timed-out one at the step its simulated deadline fired.
    pub steps: u64,
    /// Final-boundary archive hypervolume of each run.
    pub final_hv: Vec<f64>,
    /// Best validation force RMSE in each run's final archive (eV/Å).
    pub best_rmse_f_per_run: Vec<f64>,
    /// Worker deaths across all batches.
    pub deaths: usize,
    /// Tasks retried at least once.
    pub retries: usize,
}

impl Outcome {
    /// Read the outcome of a finished campaign.
    pub fn of(config: &ExperimentConfig, run: &CampaignRun) -> Outcome {
        let (mut rejected, mut diverged, mut timed_out) = (0, 0, 0);
        let (mut unexplained, mut exhausted) = (0, 0);
        let base = &config.base_train_config;
        let num_steps = base.num_steps;
        let mut steps = 0u64;
        for entry in run.journal.evals.values() {
            steps += match entry.fault {
                FaultKind::None => num_steps,
                FaultKind::Diverged => {
                    match diverged_cause(base, &entry.genome, entry.fault_step) {
                        DivergedCause::Sentinel => diverged += 1,
                        DivergedCause::Rejected => rejected += 1,
                        DivergedCause::Unexplained => unexplained += 1,
                    }
                    entry.fault_step.unwrap_or(0)
                }
                FaultKind::Timeout => {
                    timed_out += 1;
                    deadline_steps(config, &entry.genome)
                }
                FaultKind::Worker | FaultKind::Cancelled => {
                    exhausted += 1;
                    0
                }
            } as u64;
        }
        let final_hv = run
            .result
            .status
            .runs
            .iter()
            .map(|r| r.generations.last().map_or(0.0, |g| g.hypervolume))
            .collect();
        let best_rmse_f_per_run = run
            .result
            .archives
            .iter()
            .map(|a| {
                a.members()
                    .iter()
                    .filter(|i| !i.fitness().is_penalty())
                    .map(|i| i.fitness().values()[1])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let reports = run.result.pool_reports.iter().flatten();
        let (deaths, retries) = reports.fold((0, 0), |(d, r), p| {
            (d + p.worker_deaths, r + p.retried_tasks)
        });
        Outcome {
            trainings: run.result.total_evaluations(),
            rejected,
            diverged,
            timed_out,
            unexplained,
            exhausted,
            steps,
            final_hv,
            best_rmse_f_per_run,
            deaths,
            retries,
        }
    }

    /// Trainings that ended with the MAXINT penalty for a cause the
    /// evaluation workflow assigns it to by design: a rejected
    /// configuration, a sentinel divergence or a simulated timeout. They
    /// are correct results of the objective, not failures.
    pub fn penalized(&self) -> usize {
        self.rejected + self.diverged + self.timed_out
    }

    /// Trainings the program failed: no result delivered (exhausted
    /// retries, cancellation) or a MAXINT the journal does not explain.
    pub fn failed(&self) -> usize {
        self.unexplained + self.exhausted
    }

    /// Best validation force RMSE over all runs (eV/Å).
    pub fn best_rmse_f(&self) -> f64 {
        self.best_rmse_f_per_run
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean final hypervolume over runs.
    pub fn front_hv(&self) -> f64 {
        self.final_hv.iter().sum::<f64>() / self.final_hv.len().max(1) as f64
    }
}

/// The output checks every campaign must pass; an `Err` names the first
/// one that failed.
///
/// Every workload must complete its plan, journal every training, and end
/// each run with an archive of finite, non-penalty solutions. On
/// `train-heavy`, whose trainings are the longest, the campaign's front must
/// also reach into `REFERENCE_POINT` (mean final hypervolume > 0). Single
/// runs can end outside it there (one of 60 runs over ten seeds did), and
/// the 50-step paper-shape trainings can leave every run outside it, so
/// per-run hypervolumes are reported, not checked.
pub fn check_outcome(
    workload: Workload,
    journal_entries: usize,
    outcome: &Outcome,
) -> Result<(), String> {
    let planned = workload.planned_trainings();
    if outcome.trainings != planned {
        return Err(format!(
            "completed {} trainings, plan is {planned}",
            outcome.trainings
        ));
    }
    if journal_entries != planned {
        return Err(format!(
            "journal holds {journal_entries} evaluations, plan is {planned}"
        ));
    }
    if let Some(run) = outcome
        .best_rmse_f_per_run
        .iter()
        .position(|f| !f.is_finite())
    {
        return Err(format!("run {run} ended without a non-penalty solution"));
    }
    let hv = outcome.front_hv();
    if workload == Workload::TrainHeavy && (hv.is_nan() || hv <= 0.0) {
        return Err(format!(
            "no run's front reaches into the reference box (hypervolumes {:?})",
            outcome.final_hv
        ));
    }
    Ok(())
}
