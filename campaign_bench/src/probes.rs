//! Outside-in layer probes: timed calls into each layer's public functions,
//! with inputs taken from the workload's own journal. Nothing here is
//! instrumented inside the crates.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dphpo_core::campaign_report::write_status_atomic;
use dphpo_core::decode::decode;
use dphpo_core::experiment::ExperimentConfig;
use dphpo_core::journal::{EvalEntry, JournalError, JournalWriter};
use dphpo_core::profile::{campaign_profile, write_profile_atomic};
use dphpo_core::template::{substitute, template_vars, INPUT_TEMPLATE};
use dphpo_core::workflow::{evaluate_individual, EvalContext};
use dphpo_dnnp::{step_budget, Json, Supervision, TrainConfig, TrainRun};
use dphpo_evo::mo::{crowding_distance, rank_ordinal_sort};
use dphpo_evo::Fitness;
use dphpo_hpc::CostModel;
use dphpo_md::Dataset;

use crate::campaign::CampaignRun;
use crate::stats::mean;

/// Every timing sample the probes took, in seconds unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct ProbeSamples {
    /// `TrainRun::new`, twice per probed genome.
    pub run_setup_s: Vec<f64>,
    /// One `TrainRun::step` call each (validation rows included).
    pub step_s: Vec<f64>,
    /// `evaluate_individual` minus `TrainRun::new` plus all steps, per
    /// probed genome (fastest of two each).
    pub eval_overhead_s: Vec<f64>,
    /// `rank_ordinal_sort` plus `crowding_distance` over a 2 x pop window.
    pub select_s: Vec<f64>,
    /// One journal append each, replaying the campaign's records.
    pub append_s: Vec<f64>,
    /// One atomic `campaign_status.json` rewrite each.
    pub status_rewrite_s: Vec<f64>,
    /// One atomic profile-artifact rewrite each.
    pub profile_rewrite_s: Vec<f64>,
}

/// How many calls each probe makes.
#[derive(Clone, Copy, Debug)]
pub struct ProbePlan {
    /// Genomes whose set-up, steps and evaluation are timed.
    pub genomes: usize,
    /// Atomic rewrites timed per artifact.
    pub rewrites: usize,
    /// Repeats of each selection window.
    pub select_repeats: usize,
    /// Journal appends to time at least (the campaign's records replayed).
    pub min_appends: usize,
}

/// The journaled evaluations in journal key order `(run, gen, slot)`.
pub fn evals_in_order(run: &CampaignRun) -> Vec<&EvalEntry> {
    let mut keys: Vec<_> = run.journal.evals.keys().copied().collect();
    keys.sort_unstable();
    keys.iter().map(|k| &run.journal.evals[k]).collect()
}

/// The training configuration the workflow derives for `genome`: decode,
/// `input.json` template, JSON parse, validate — the same round trip
/// `evaluate_individual` makes.
pub fn train_config(base: &TrainConfig, genome: &[f64], seed: u64) -> Result<TrainConfig, String> {
    let vars = template_vars(
        &decode(genome),
        &base.embedding_neurons,
        &base.fitting_neurons,
        base.num_steps,
        base.batch_per_worker,
        base.n_workers,
        base.disp_freq,
        base.val_max_frames,
        seed,
    );
    let text = substitute(INPUT_TEMPLATE, &vars)?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let config = TrainConfig::from_input_json(&doc)?;
    config.validate()?;
    Ok(config)
}

/// Time `TrainRun::new` and every `step` of one training; returns the
/// set-up time, the step times and the whole training's wall time.
fn time_training(
    config: &TrainConfig,
    train: &Dataset,
    val: &Dataset,
    seed: u64,
) -> Result<(f64, Vec<f64>, f64), String> {
    let sup = Supervision::none();
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let mut run = TrainRun::new(config, train, val, &mut rng, &sup)?;
    let setup = t0.elapsed().as_secs_f64();
    let mut steps = Vec::with_capacity(config.num_steps);
    loop {
        let t = Instant::now();
        let active = run.step();
        steps.push(t.elapsed().as_secs_f64());
        if !active {
            break;
        }
    }
    std::hint::black_box(run.finish());
    Ok((setup, steps, t0.elapsed().as_secs_f64()))
}

/// Time one journal append into `samples`.
fn timed_append(
    samples: &mut Vec<f64>,
    append: impl FnOnce() -> Result<u64, JournalError>,
) -> Result<(), String> {
    let t0 = Instant::now();
    append().map_err(|e| format!("journal append: {e}"))?;
    samples.push(t0.elapsed().as_secs_f64());
    Ok(())
}

/// Pick `n` entries spread evenly over the campaign (successful ones
/// only, so every probe trains to completion as the campaign did).
fn spread_pick<'a>(entries: &[&'a EvalEntry], n: usize) -> Vec<&'a EvalEntry> {
    let ok: Vec<&EvalEntry> = entries
        .iter()
        .copied()
        .filter(|e| e.objectives.is_some())
        .collect();
    let n = n.min(ok.len());
    (0..n).map(|i| ok[i * ok.len() / n]).collect()
}

/// Run every probe against a finished campaign.
pub fn run_probes(
    config: &ExperimentConfig,
    train: &Arc<Dataset>,
    val: &Arc<Dataset>,
    run: &CampaignRun,
    scratch: &Path,
    plan: ProbePlan,
) -> Result<ProbeSamples, String> {
    let mut out = ProbeSamples::default();
    let entries = evals_in_order(run);
    let base = &config.base_train_config;

    // dnnp + workflow: set-up, steps, and the workflow's own overhead on
    // the same genome and seed. Direct training and the workflow alternate
    // twice; the overhead is the difference of their minima, which keeps
    // warm-up and interference out of it.
    let ctx = EvalContext {
        base_config: base.clone(),
        train: Arc::clone(train),
        val: Arc::clone(val),
        cost_model: CostModel::default(),
        workdir: None,
    };
    for entry in spread_pick(&entries, plan.genomes) {
        let tc = train_config(base, &entry.genome, entry.seed)?;
        let (mut direct, mut workflow) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let (setup, steps, wall) = time_training(&tc, train, val, entry.seed)?;
            out.run_setup_s.push(setup);
            out.step_s.extend(steps);
            direct = direct.min(wall);
            let t0 = Instant::now();
            let record = evaluate_individual(&ctx, &entry.genome, entry.seed);
            workflow = workflow.min(t0.elapsed().as_secs_f64());
            if record.fitness.values() != entry.objectives.as_deref().unwrap_or_default() {
                return Err(format!(
                    "probe of run {} gen {} slot {} does not reproduce its journaled fitness",
                    entry.run, entry.gen, entry.slot
                ));
            }
        }
        out.eval_overhead_s.push(workflow - direct);
    }

    // evo: non-dominated sort plus crowding over journaled 2 x pop windows.
    let window = 2 * config.pop_size;
    for chunk in entries.chunks_exact(window) {
        let fits: Vec<Fitness> = chunk
            .iter()
            .map(|e| {
                e.objectives
                    .clone()
                    .map_or_else(|| Fitness::penalty(2), Fitness::new)
            })
            .collect();
        let refs: Vec<&Fitness> = fits.iter().collect();
        for _ in 0..plan.select_repeats {
            let t0 = Instant::now();
            let fronts = rank_ordinal_sort(&refs);
            for front in fronts.as_slice() {
                std::hint::black_box(crowding_distance(&refs, front));
            }
            out.select_s.push(t0.elapsed().as_secs_f64());
        }
    }

    // core::journal: replay the campaign's own records into a fresh v2
    // journal, timing each framed append; small journals are replayed
    // until there are enough samples for a p99.
    let replay_path = scratch.join("replay.journal.jsonl");
    while out.append_s.len() < plan.min_appends {
        let mut writer =
            JournalWriter::create(&replay_path, config).map_err(|e| format!("journal: {e}"))?;
        for entry in &entries {
            timed_append(&mut out.append_s, || writer.append_eval(entry))?;
        }
        for entry in run.journal.generations.values() {
            timed_append(&mut out.append_s, || writer.append_generation(entry))?;
        }
        for entry in run.journal.snapshots.values() {
            timed_append(&mut out.append_s, || writer.append_snapshot(entry))?;
        }
    }
    let _ = std::fs::remove_file(&replay_path);

    // core::campaign_report + core::profile: the atomic rewrites every
    // boundary makes, of the campaign's final status and profile.
    let status_path = scratch.join("status-probe.json");
    let profile_dir = scratch.join("profile-probe");
    let root = campaign_profile(&run.result);
    let budget = step_budget(base, train, val)?;
    for _ in 0..plan.rewrites {
        let t0 = Instant::now();
        write_status_atomic(&status_path, &run.result.status).map_err(|e| e.to_string())?;
        out.status_rewrite_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        write_profile_atomic(&profile_dir, &root, Some(&budget)).map_err(|e| e.to_string())?;
        out.profile_rewrite_s.push(t0.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(&status_path);
    let _ = std::fs::remove_dir_all(&profile_dir);
    Ok(out)
}

impl ProbeSamples {
    /// Mean per-training set-up plus workflow overhead, seconds: the work a
    /// worker does for a training outside its steps.
    pub fn head_s(&self) -> f64 {
        mean(&self.run_setup_s) + mean(&self.eval_overhead_s).max(0.0)
    }
}
