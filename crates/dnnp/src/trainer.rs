//! The training loop: Adam optimisation of the prefactor-weighted
//! energy+force loss with exponential LR decay and simulated 6-way
//! synchronous data parallelism (gradient averaging across worker shards,
//! exactly what Horovod does for DeePMD on one Summit node).

use rand::Rng;

use dphpo_autograd::{Shape, Tape, Tensor};
use dphpo_md::Dataset;

use std::collections::HashMap;
use std::rc::Rc;

use crate::config::TrainConfig;
use crate::descriptor::{merge_frame_caches, BatchCache, FrameCache};
use crate::lcurve::{Lcurve, LcurveRow};
use crate::loss::PrefactorSchedule;
use crate::lr::LrSchedule;
use crate::model::{forward_cached, DnnpModel, ModelParams};
use crate::supervise::{AbortReason, Supervision};
use dphpo_obs::{cats, names, Event, When};

/// Adam optimiser state (DeePMD's optimiser; β₁ 0.9, β₂ 0.999, ε 1e-8).
pub struct Adam {
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: usize,
    beta1: f64,
    beta2: f64,
    eps: f64,
}

impl Adam {
    /// Fresh state matching the given parameter shapes.
    pub fn new(shapes: &[Shape]) -> Self {
        Adam {
            m: shapes.iter().map(|&s| Tensor::zeros(s)).collect(),
            v: shapes.iter().map(|&s| Tensor::zeros(s)).collect(),
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Apply one update with the given learning rate.
    pub fn step(&mut self, params: &mut ModelParams, grads: &[Tensor], lr: f64) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((target, grad), (m, v)) in params
            .flat_mut()
            .into_iter()
            .zip(grads.iter())
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let td = target.data_mut();
            let md = m.data_mut();
            let vd = v.data_mut();
            let gd = grad.data();
            for i in 0..td.len() {
                md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * gd[i];
                vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * gd[i] * gd[i];
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                td[i] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Tile a one-frame one-hot matrix `[n, S]` into `[B·n, S]`.
fn tile_onehot(onehot: &Tensor, batch: usize) -> Tensor {
    let rows = onehot.shape().rows();
    let cols = onehot.shape().cols();
    let mut data = Vec::with_capacity(batch * rows * cols);
    for _ in 0..batch {
        data.extend_from_slice(onehot.data());
    }
    Tensor::matrix(batch * rows, cols, data)
}

/// A fixed set of frames assembled into one merged batch graph input, used
/// for the validation RMSE rows (one tape per evaluation instead of one
/// per frame).
pub(crate) struct PreparedBatch {
    merged: FrameCache,
    onehot: Tensor,
    frame_ids: Rc<[usize]>,
    energies: Vec<f64>,
    forces_flat: Vec<f64>,
    n_frames: usize,
    n_atoms: usize,
    /// Persistent evaluation tape — reset after each RMSE so repeated
    /// validation rows reuse the same arena.
    tape: Tape,
}

impl PreparedBatch {
    pub(crate) fn assemble(
        model: &DnnpModel,
        dataset: &Dataset,
        indices: &[usize],
        caches: Vec<FrameCache>,
    ) -> Self {
        let n_atoms = dataset.n_atoms();
        let refs: Vec<&FrameCache> = caches.iter().collect();
        let merged = merge_frame_caches(&refs);
        let frame_ids: Rc<[usize]> = indices
            .iter()
            .enumerate()
            .flat_map(|(b, _)| std::iter::repeat_n(b, n_atoms))
            .collect::<Vec<usize>>()
            .into();
        PreparedBatch {
            merged,
            onehot: tile_onehot(&model.onehot, indices.len()),
            frame_ids,
            energies: indices.iter().map(|&i| dataset.frames[i].energy).collect(),
            forces_flat: indices
                .iter()
                .flat_map(|&i| dataset.frames[i].forces.iter().flatten().copied())
                .collect(),
            n_frames: indices.len(),
            n_atoms,
            tape: Tape::new(),
        }
    }

    /// `(energy RMSE per atom, force RMSE)` of the model on this batch.
    pub(crate) fn rmse(&self, model: &DnnpModel) -> (f64, f64) {
        self.evaluate(model, |_| ()).0
    }

    /// Node count and per-kernel census of one validation RMSE pass. Node
    /// counts depend only on graph topology, never on weights, so the
    /// result is deterministic.
    pub(crate) fn budget_census(&self, model: &DnnpModel) -> (usize, Vec<(&'static str, usize)>) {
        self.evaluate(model, |tape| (tape.len(), tape.op_census(0..tape.len()))).1
    }

    /// Build the RMSE graph on the persistent tape, read the RMSEs, let
    /// `inspect` look at the finished tape, then reset it. The reset also
    /// releases the tape's handles on the model parameters, keeping the
    /// optimiser's in-place update copy-free.
    fn evaluate<T>(&self, model: &DnnpModel, inspect: impl FnOnce(&Tape) -> T) -> ((f64, f64), T) {
        let tape = &self.tape;
        let taped = model.params.register(tape);
        let graph = forward_cached(
            tape,
            &taped,
            &model.config,
            &model.stats,
            &self.merged,
            &self.onehot,
            true,
        );
        let energies =
            tape.scatter_add_rows(graph.atomic, Rc::clone(&self.frame_ids), self.n_frames);
        let n = self.n_atoms as f64;
        let e_sq: f64 = tape.with_value(energies, |e_pred| {
            e_pred
                .data()
                .iter()
                .zip(self.energies.iter())
                .map(|(p, r)| ((p - r) / n) * ((p - r) / n))
                .sum::<f64>()
        }) / self.n_frames as f64;
        let f_sq: f64 = tape.with_value(graph.forces.expect("forces requested"), |f_pred| {
            f_pred
                .data()
                .iter()
                .zip(self.forces_flat.iter())
                .map(|(p, r)| (p - r) * (p - r))
                .sum::<f64>()
        }) / self.forces_flat.len() as f64;
        let seen = inspect(tape);
        tape.reset();
        ((e_sq.sqrt(), f_sq.sqrt()), seen)
    }
}

/// One phase of the deterministic step budget: how many tape nodes the
/// phase records and a per-kernel census under it. Phases with zero nodes
/// (backward, optimizer) do real work — the value-level backward and the
/// in-place Adam update — without recording anything; their wall-clock cost
/// rides the `side.phase.*` histograms instead.
pub struct PhaseBudget {
    /// Phase name: `params`, `descriptor`, `forward`, `force`, `loss`,
    /// `backward`, `optimizer`, or `val`.
    pub phase: &'static str,
    /// Tape nodes recorded by the phase.
    pub nodes: usize,
    /// `(kernel, count)` pairs, name-sorted.
    pub kernels: Vec<(&'static str, usize)>,
}

/// Deterministic per-phase step-budget table: the tape-node census of one
/// training step plus one validation pass. A pure function of config and
/// dataset shapes (probed with a fixed seed), so it is byte-identical
/// across runs and resumes and belongs in the deterministic profile
/// artifacts.
pub struct StepBudget {
    /// Phases in execution order.
    pub phases: Vec<PhaseBudget>,
}

impl StepBudget {
    /// Total tape nodes across all phases.
    pub fn total_nodes(&self) -> usize {
        self.phases.iter().map(|p| p.nodes).sum()
    }

    /// Markdown rendering: one row per phase, kernel rows indented under it.
    pub fn markdown(&self) -> String {
        let mut out = String::from("| phase | kernel | nodes |\n|---|---|---:|\n");
        for p in &self.phases {
            out.push_str(&format!("| {} | — | {} |\n", p.phase, p.nodes));
            for (k, c) in &p.kernels {
                out.push_str(&format!("| | {k} | {c} |\n"));
            }
        }
        out.push_str(&format!("| total | | {} |\n", self.total_nodes()));
        out
    }
}

/// Probe the per-phase step budget for a training configuration on the
/// given datasets: model init and one step-0 graph build on a throwaway
/// run (fixed seed — node counts depend only on shapes), without touching
/// any weights or rng stream a campaign uses.
pub fn step_budget(
    config: &TrainConfig,
    train_ds: &Dataset,
    val_ds: &Dataset,
) -> Result<StepBudget, String> {
    use rand::SeedableRng;
    let sup = Supervision::none();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let run = TrainRun::new(config, train_ds, val_ds, &mut rng, &sup)?;
    Ok(StepBudget { phases: run.budget_phases() })
}

/// Result of a training run.
pub struct TrainReport {
    /// The trained model (whatever state it reached).
    pub model: DnnpModel,
    /// The learning curve (the paper's `lcurve.out`).
    pub lcurve: Lcurve,
    /// True if training diverged (non-finite loss/weights) — the paper's
    /// "training failed" case, penalised with MAXINT fitness upstream.
    pub diverged: bool,
    /// Steps actually completed.
    pub steps_completed: usize,
    /// Structured early-termination reason, when supervision aborted the
    /// run before `num_steps` (divergence sentinel, deadline budget, or
    /// external cancellation). `None` for a run that finished its steps.
    pub abort: Option<AbortReason>,
}

/// Loss values considered irrecoverable even when still finite (the
/// absolute ceiling of [`crate::supervise::Sentinel`]).
pub const DIVERGENCE_LOSS_LIMIT: f64 = 1e12;

/// Maximum number of distinct batch compositions whose merged caches are
/// kept. Small training sets repeat compositions constantly (the merge is
/// then free); large runs stay memory-bounded and just merge on the fly.
const MERGED_CACHE_CAP: usize = 256;

/// Train a model on `train`, validating against `val`.
pub fn train<R: Rng + ?Sized>(
    config: &TrainConfig,
    train_ds: &Dataset,
    val_ds: &Dataset,
    rng: &mut R,
) -> Result<TrainReport, String> {
    train_supervised(config, train_ds, val_ds, rng, &Supervision::none())
}

/// As [`train`], under supervision: cancellation, deadline, and sentinel
/// checks run at step boundaries (see [`crate::supervise`]). The checks
/// consume no randomness, so the weights of a completed run are
/// bit-identical with or without supervision.
pub fn train_supervised<R: Rng + ?Sized>(
    config: &TrainConfig,
    train_ds: &Dataset,
    val_ds: &Dataset,
    rng: &mut R,
    sup: &Supervision<'_>,
) -> Result<TrainReport, String> {
    let mut run = TrainRun::new(config, train_ds, val_ds, rng, sup)?;
    while run.step() {}
    Ok(run.finish())
}

/// Reference labels for a batch composition, as ready-made tensors; the
/// step loop hands the tape cheap Arc clones instead of re-collecting.
fn batch_labels(
    train_ds: &Dataset,
    indices: &[usize],
    batch_total: usize,
    n_atoms: usize,
) -> (Tensor, Tensor) {
    let e: Vec<f64> = indices.iter().map(|&i| train_ds.frames[i].energy).collect();
    let f: Vec<f64> = indices
        .iter()
        .flat_map(|&i| train_ds.frames[i].forces.iter().flatten().copied())
        .collect();
    (
        Tensor::matrix(batch_total, 1, e),
        Tensor::matrix(batch_total * n_atoms, 3, f),
    )
}

/// One training run, driven one step at a time.
///
/// [`train_supervised`] is `new` → `step` until inactive → `finish`; callers
/// that time or inspect individual steps drive the same calls themselves.
pub struct TrainRun<'a> {
    config: &'a TrainConfig,
    train_ds: &'a Dataset,
    sup: &'a Supervision<'a>,
    model: DnnpModel,
    schedule: LrSchedule,
    prefactors: PrefactorSchedule,
    n_atoms: usize,
    train_caches: Vec<FrameCache>,
    val_batch: PreparedBatch,
    adam: Adam,
    lcurve: Lcurve,
    diverged: bool,
    steps_completed: usize,
    abort: Option<AbortReason>,
    initial_loss: Option<f64>,
    check_every: usize,
    batch_total: usize,
    onehot_batch: Tensor,
    frame_ids: Rc<[usize]>,
    step_indices: Vec<Vec<usize>>,
    merged_memo: HashMap<Vec<usize>, (FrameCache, Tensor, Tensor)>,
    /// One persistent tape for the whole run: each step rebuilds the same
    /// graph topology, so `reset()` turns the tape into an arena and the
    /// steady state runs allocation-free.
    tape: Tape,
    /// Reusable merger for compositions past the memo cap: steady-state
    /// merges reclaim the previous step's buffers.
    batch_merger: BatchCache,
    step: usize,
}

impl<'a> TrainRun<'a> {
    /// Set up a run: model init, per-frame descriptor caches, the merged
    /// validation batch, and every step's batch indices (drawn up front in
    /// the same nested order as a per-step draw, so the rng stream is
    /// unchanged).
    pub fn new<R: Rng + ?Sized>(
        config: &'a TrainConfig,
        train_ds: &'a Dataset,
        val_ds: &Dataset,
        rng: &mut R,
        sup: &'a Supervision<'a>,
    ) -> Result<Self, String> {
        config.validate()?;
        if val_ds.frames.is_empty() {
            return Err("empty validation dataset".into());
        }
        let model = DnnpModel::new(config.clone(), train_ds, rng)?;
        // Descriptor values are weight-independent: cache them per frame
        // once (training and validation), which removes the geometry
        // subgraph from every step.
        let train_caches: Vec<FrameCache> =
            train_ds.frames.iter().map(|f| model.build_cache(&f.positions)).collect();
        let n_val = config.val_max_frames.max(1).min(val_ds.frames.len());
        let val_indices: Vec<usize> = (0..n_val).collect();
        let val_caches: Vec<FrameCache> =
            val_ds.frames[..n_val].iter().map(|f| model.build_cache(&f.positions)).collect();
        let val_batch = PreparedBatch::assemble(&model, val_ds, &val_indices, val_caches);
        let n_atoms = train_ds.n_atoms();
        let shapes: Vec<Shape> = model.params.flat().iter().map(|t| t.shape()).collect();
        let batch_total = config.n_workers * config.batch_per_worker;
        let onehot_batch = tile_onehot(&model.onehot, batch_total);
        let frame_ids: Rc<[usize]> = (0..batch_total)
            .flat_map(|b| std::iter::repeat_n(b, n_atoms))
            .collect::<Vec<usize>>()
            .into();
        // Draw every step's batch indices up front. This lets identical
        // batch compositions share one merged cache instead of re-merging
        // per step.
        let step_indices: Vec<Vec<usize>> = (0..config.num_steps)
            .map(|_| {
                (0..batch_total)
                    .map(|_| rng.random_range(0..train_ds.frames.len()))
                    .collect()
            })
            .collect();
        let mut merged_memo: HashMap<Vec<usize>, (FrameCache, Tensor, Tensor)> = HashMap::new();
        for indices in &step_indices {
            if !merged_memo.contains_key(indices.as_slice())
                && merged_memo.len() < MERGED_CACHE_CAP
            {
                let batch_caches: Vec<&FrameCache> =
                    indices.iter().map(|&i| &train_caches[i]).collect();
                let (e_ref, f_ref) = batch_labels(train_ds, indices, batch_total, n_atoms);
                merged_memo.insert(
                    indices.clone(),
                    (merge_frame_caches(&batch_caches), e_ref, f_ref),
                );
            }
        }
        Ok(TrainRun {
            config,
            train_ds,
            sup,
            model,
            schedule: LrSchedule::from_config(config),
            prefactors: PrefactorSchedule::from_config(config),
            n_atoms,
            train_caches,
            val_batch,
            adam: Adam::new(&shapes),
            lcurve: Lcurve::new(),
            diverged: false,
            steps_completed: 0,
            abort: None,
            initial_loss: None,
            check_every: sup.check_every.max(1),
            batch_total,
            onehot_batch,
            frame_ids,
            step_indices,
            merged_memo,
            tape: Tape::new(),
            batch_merger: BatchCache::new(),
            step: 0,
        })
    }

    /// True while the run has steps left and no abort or divergence fired.
    pub fn is_active(&self) -> bool {
        !self.diverged && self.abort.is_none() && self.step < self.config.num_steps
    }

    /// Build the step-0 training graph once, without evaluating the loss or
    /// touching weights, and read back the per-phase node census. Leaves
    /// the tape empty. See [`step_budget`].
    fn budget_phases(&self) -> Vec<PhaseBudget> {
        let tape = &self.tape;
        tape.reset();
        let Some(indices) = self.step_indices.first() else {
            return Vec::new();
        };
        // The first composition is always memoized: the memo starts empty.
        let (merged, e_ref_t, f_ref_t) = &self.merged_memo[indices];

        let taped = self.model.params.register(tape);
        let params_end = tape.len();
        let graph = forward_cached(
            tape,
            &taped,
            self.config,
            &self.model.stats,
            merged,
            &self.onehot_batch,
            true,
        );
        let force_end = tape.len();
        let forces = graph.forces.expect("training requests forces");
        // Loss section: the same kernels `step` records (values unused).
        let energies =
            tape.scatter_add_rows(graph.atomic, Rc::clone(&self.frame_ids), self.batch_total);
        let e_ref = tape.constant(e_ref_t.clone());
        let e_diff = tape.sub(energies, e_ref);
        let f_ref = tape.constant(f_ref_t.clone());
        let f_diff = tape.sub(forces, f_ref);
        let le = tape.scale(tape.sum_all(tape.square(e_diff)), 1.0);
        let lf = tape.scale(tape.sum_all(tape.square(f_diff)), 1.0);
        let _ = tape.add(le, lf);
        let loss_end = tape.len();

        let phase = |name: &'static str, range: std::ops::Range<usize>| PhaseBudget {
            phase: name,
            nodes: range.len(),
            kernels: tape.op_census(range),
        };
        let mut phases = vec![
            phase("params", 0..params_end),
            phase("descriptor", params_end..graph.descriptor_end),
            phase("forward", graph.descriptor_end..graph.forward_end),
            phase("force", graph.forward_end..force_end),
            phase("loss", force_end..loss_end),
            // The backward is value-level and Adam updates in place:
            // deliberately node-free (their wall twin is side.phase.*).
            PhaseBudget { phase: "backward", nodes: 0, kernels: Vec::new() },
            PhaseBudget { phase: "optimizer", nodes: 0, kernels: Vec::new() },
        ];
        tape.reset();
        let (val_nodes, val_census) = self.val_batch.budget_census(&self.model);
        phases.push(PhaseBudget { phase: "val", nodes: val_nodes, kernels: val_census });
        phases
    }

    /// The model being trained.
    pub fn model(&self) -> &DnnpModel {
        &self.model
    }

    /// Run one full step, including any due validation row. Returns `true`
    /// while the run remains active.
    pub fn step(&mut self) -> bool {
        if !self.is_active() {
            return false;
        }
        let step = self.step;
        self.step += 1;
        let sup = self.sup;
        // Resolved once per step: `None` when telemetry is off, so the hot
        // loop pays a single branch per instrumentation site. Everything
        // recorded below is computed from values the step already produced
        // — no extra rng draws, no reordered float ops — so weights are
        // bit-identical either way.
        let obs = sup.obs();
        // Step-boundary supervision: cancellation and the simulated-clock
        // deadline are polled *before* the step's work is paid for, so an
        // aborted run stops at the wall instead of crossing it. None of
        // these probes touch the rng stream.
        if step.is_multiple_of(self.check_every) {
            if sup.is_cancelled() {
                self.abort = Some(AbortReason::Cancelled { step });
                return false;
            }
            if sup.deadline_fires(step) {
                self.abort = Some(AbortReason::Deadline {
                    step,
                    sim_minutes: sup.sim_minutes(step),
                });
                return false;
            }
        }
        if sup.heartbeat_every > 0 && step.is_multiple_of(sup.heartbeat_every) {
            if let Some(beat) = sup.heartbeat {
                beat(sup.sim_minutes(step), sup.sim_minutes(self.config.num_steps));
            }
        }
        let step_t0 = obs.map(|_| std::time::Instant::now());
        let pref = self.prefactors.at(self.schedule.decay_ratio(step));
        let n = self.n_atoms as f64;
        let tape = &self.tape;
        // Pool hits/misses are pure functions of the lease sequence, so the
        // metered counts are reproducible; the unobserved path never meters.
        if obs.is_some() && !tape.alloc_metering() {
            tape.set_alloc_metering(true);
        }

        // One tape evaluates the whole data-parallel batch (the B frames a
        // Horovod step would process across its workers).
        let indices = &self.step_indices[step];
        let merged_fallback;
        let (merged, e_ref_t, f_ref_t) = match self.merged_memo.get(indices.as_slice()) {
            Some((m, e, f)) => (m, e, f),
            None => {
                let batch_caches: Vec<&FrameCache> =
                    indices.iter().map(|&i| &self.train_caches[i]).collect();
                let (e_ref, f_ref) =
                    batch_labels(self.train_ds, indices, self.batch_total, self.n_atoms);
                merged_fallback = (self.batch_merger.merge(&batch_caches), e_ref, f_ref);
                (&merged_fallback.0, &merged_fallback.1, &merged_fallback.2)
            }
        };
        let taped = self.model.params.register(tape);
        let graph = forward_cached(
            tape,
            &taped,
            self.config,
            &self.model.stats,
            merged,
            &self.onehot_batch,
            true,
        );
        let forces = graph.forces.expect("training requests forces");

        // Per-frame energies from the per-atom energies.
        let energies =
            tape.scatter_add_rows(graph.atomic, Rc::clone(&self.frame_ids), self.batch_total);
        let e_ref = tape.constant(e_ref_t.clone());
        let e_diff = tape.sub(energies, e_ref);
        let f_ref = tape.constant(f_ref_t.clone());
        let f_diff = tape.sub(forces, f_ref);

        // Batch-mean loss: (1/B)·Σ_b [pe·(ΔE_b/N)² + pf·Σ‖ΔF_b‖²/(3N)].
        let b = self.batch_total as f64;
        let le = tape.scale(tape.sum_all(tape.square(e_diff)), pref.pe / (n * n * b));
        let lf = tape.scale(tape.sum_all(tape.square(f_diff)), pref.pf / (3.0 * n * b));
        let loss = tape.add(le, lf);

        let loss_value = tape.item(loss);
        if sup.sentinel.fires(loss_value, self.initial_loss) {
            self.diverged = true;
            self.abort = Some(AbortReason::Diverged { step, loss: loss_value });
            return false;
        }
        if self.initial_loss.is_none() {
            self.initial_loss = Some(loss_value);
        }

        // Training-batch RMSE bookkeeping (free: values already live).
        let trn_e_sq = tape.with_value(e_diff, |t| {
            t.data().iter().map(|v| (v / n) * (v / n)).sum::<f64>()
        }) / b;
        let trn_f_sq = tape.with_value(f_diff, |t| {
            t.data().iter().map(|v| v * v).sum::<f64>() / t.len() as f64
        });

        // Wall twin of the graph phase (descriptor/forward/force/loss tape
        // construction): everything from the step start to this point.
        let graph_wall_ns = step_t0.map(|t0| t0.elapsed().as_nanos() as f64);
        // Value-level backward: the optimiser only needs gradient numbers,
        // so nothing new is recorded on the tape.
        let backward_t0 = obs.map(|_| std::time::Instant::now());
        let grad_values: Vec<Tensor> = tape.grad_values(loss, &taped.flat);
        let backward_wall_ns = backward_t0.map(|t0| t0.elapsed().as_nanos() as f64);
        // Arena high-water mark, read before the reset empties the node
        // list (only when telemetry is live).
        let tape_nodes = if obs.is_some() { tape.len() } else { 0 };
        // Reset BEFORE the optimiser update: recycling the graph releases
        // the tape's handles on the parameter tensors, so Adam's in-place
        // write doesn't trigger copy-on-write. The extracted gradients keep
        // their buffers alive independently.
        tape.reset();
        if grad_values.iter().any(|g| g.has_non_finite()) {
            self.diverged = true;
            self.abort = Some(AbortReason::Diverged { step, loss: loss_value });
            return false;
        }

        let optimizer_t0 = obs.map(|_| std::time::Instant::now());
        self.adam.step(&mut self.model.params, &grad_values, self.schedule.lr(step));
        let optimizer_wall_ns = optimizer_t0.map(|t0| t0.elapsed().as_nanos() as f64);
        if self.model.params.has_non_finite() {
            self.diverged = true;
            self.abort = Some(AbortReason::Diverged { step, loss: loss_value });
            return false;
        }
        self.steps_completed = step + 1;

        if let Some(rec) = obs {
            let lr = self.schedule.lr(step);
            let grad_norm = grad_values
                .iter()
                .map(|g| g.data().iter().map(|v| v * v).sum::<f64>())
                .sum::<f64>()
                .sqrt();
            rec.counter_add(names::C_STEPS, 1);
            rec.observe(names::H_LOSS, loss_value);
            rec.observe(names::H_LR, lr);
            rec.observe(names::H_GRAD_NORM, grad_norm);
            rec.gauge_set(names::G_TAPE_NODES, tape_nodes as f64);
            rec.gauge_set(names::G_TAPE_POOLED, tape.pooled_buffers() as f64);
            let alloc = tape.take_alloc_stats();
            rec.counter_add(names::C_TAPE_POOL_HITS, alloc.pool_hits);
            rec.counter_add(names::C_TAPE_POOL_MISSES, alloc.pool_misses);
            rec.counter_add(names::C_TAPE_LEASES, alloc.leases);
            rec.gauge_set(names::G_TAPE_LEASED_HW, alloc.leased_bytes_hw as f64);
            rec.gauge_set(names::G_TAPE_RETAINED, tape.retained_bytes() as f64);
            if let Some(t0) = step_t0 {
                rec.observe(names::H_STEP_WALL_NS, t0.elapsed().as_nanos() as f64);
            }
            if let (Some(g), Some(b), Some(o)) =
                (graph_wall_ns, backward_wall_ns, optimizer_wall_ns)
            {
                rec.observe(names::H_PHASE_GRAPH_WALL_NS, g);
                rec.observe(names::H_PHASE_BACKWARD_WALL_NS, b);
                rec.observe(names::H_PHASE_OPTIMIZER_WALL_NS, o);
            }
            rec.record(Event {
                name: names::TRAIN_STEP,
                cat: cats::TRAIN,
                ctx: sup.span,
                step: Some(step as u64),
                when: When::InTask(sup.sim_minutes(step)),
                dur_min: sup.minutes_per_step,
                worker: None,
                args: vec![("loss", loss_value), ("lr", lr), ("grad_norm", grad_norm)],
            });
        }

        if !step.is_multiple_of(self.config.disp_freq) {
            return self.is_active();
        }
        let val_t0 = obs.map(|_| std::time::Instant::now());
        let (rmse_e_val, rmse_f_val) = self.val_batch.rmse(&self.model);
        if let (Some(rec), Some(t0)) = (obs, val_t0) {
            rec.observe(names::H_PHASE_VAL_WALL_NS, t0.elapsed().as_nanos() as f64);
        }
        if !rmse_e_val.is_finite() || !rmse_f_val.is_finite() {
            self.diverged = true;
            self.abort = Some(AbortReason::Diverged { step, loss: loss_value });
            return false;
        }
        self.push_row(LcurveRow {
            step,
            rmse_e_val,
            rmse_e_trn: trn_e_sq.sqrt(),
            rmse_f_val,
            rmse_f_trn: trn_f_sq.sqrt(),
            lr: self.schedule.lr(step),
        });
        self.is_active()
    }

    /// Append a learning-curve row and stream it as an event: telemetry
    /// consumers see every interval, not just the journaled tail.
    fn push_row(&mut self, row: LcurveRow) {
        self.lcurve.push(row);
        if let Some(rec) = self.sup.obs() {
            rec.record(Event {
                name: names::LCURVE_ROW,
                cat: cats::LCURVE,
                ctx: self.sup.span,
                step: Some(row.step as u64),
                when: When::InTask(self.sup.sim_minutes(row.step)),
                dur_min: 0.0,
                worker: None,
                args: vec![
                    ("rmse_e_val", row.rmse_e_val),
                    ("rmse_e_trn", row.rmse_e_trn),
                    ("rmse_f_val", row.rmse_f_val),
                    ("rmse_f_trn", row.rmse_f_trn),
                    ("lr", row.lr),
                ],
            });
        }
    }

    /// Complete the run: final validation row (for a run that finished its
    /// steps) plus abort telemetry.
    pub fn finish(mut self) -> TrainReport {
        // Always attempt a final validation row for completed training
        // (skipped when supervision aborted the run early: the model is
        // half-trained and the caller only wants the structured reason).
        if !self.diverged && self.abort.is_none() {
            let (rmse_e_val, rmse_f_val) = self.val_batch.rmse(&self.model);
            if rmse_e_val.is_finite() && rmse_f_val.is_finite() {
                let last = self.lcurve.last().copied();
                self.push_row(LcurveRow {
                    step: self.config.num_steps,
                    rmse_e_val,
                    rmse_e_trn: last.map_or(rmse_e_val, |r| r.rmse_e_trn),
                    rmse_f_val,
                    rmse_f_trn: last.map_or(rmse_f_val, |r| r.rmse_f_trn),
                    lr: self.schedule.lr(self.config.num_steps),
                });
            } else {
                self.diverged = true;
            }
        }

        if let (Some(rec), Some(reason)) = (self.sup.obs(), &self.abort) {
            rec.counter_add(names::C_ABORTS, 1);
            // `kind`: 0 = diverged, 1 = deadline, 2 = cancelled.
            let (kind, at_step, loss) = match *reason {
                AbortReason::Diverged { step, loss } => (0.0, step, loss),
                AbortReason::Deadline { step, .. } => (1.0, step, f64::NAN),
                AbortReason::Cancelled { step } => (2.0, step, f64::NAN),
            };
            rec.record(Event {
                name: names::TRAIN_ABORT,
                cat: cats::TRAIN,
                ctx: self.sup.span,
                step: Some(at_step as u64),
                when: When::InTask(self.sup.sim_minutes(at_step)),
                dur_min: 0.0,
                worker: None,
                args: vec![("kind", kind), ("loss", loss)],
            });
        }

        TrainReport {
            model: self.model,
            lcurve: self.lcurve,
            diverged: self.diverged,
            steps_completed: self.steps_completed,
            abort: self.abort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::Sentinel;
    use dphpo_md::generate::{generate_dataset, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_data(seed: u64) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = GenConfig::tiny();
        gen.n_frames = 10;
        let ds = generate_dataset(&gen, &mut rng);
        ds.split(0.25, &mut rng)
    }

    fn tiny_config() -> TrainConfig {
        TrainConfig {
            start_lr: 0.005,
            stop_lr: 1e-4,
            rcut: 5.0,
            rcut_smth: 2.0,
            embedding_neurons: vec![6, 4],
            fitting_neurons: vec![8, 8],
            num_steps: 60,
            batch_per_worker: 1,
            n_workers: 2,
            disp_freq: 20,
            val_max_frames: 2,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_reduces_validation_loss() {
        let (train_ds, val_ds) = tiny_data(1);
        let mut rng = StdRng::seed_from_u64(2);
        let report = train(&tiny_config(), &train_ds, &val_ds, &mut rng).unwrap();
        assert!(!report.diverged);
        assert_eq!(report.steps_completed, 60);
        let rows = report.lcurve.rows();
        assert!(rows.len() >= 2);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.rmse_f_val < first.rmse_f_val,
            "force RMSE did not improve: {} -> {}",
            first.rmse_f_val,
            last.rmse_f_val
        );
        assert!(
            last.rmse_e_val < first.rmse_e_val,
            "energy RMSE did not improve: {} -> {}",
            first.rmse_e_val,
            last.rmse_e_val
        );
    }

    #[test]
    fn lcurve_final_row_is_at_num_steps() {
        let (train_ds, val_ds) = tiny_data(3);
        let mut rng = StdRng::seed_from_u64(4);
        let report = train(&tiny_config(), &train_ds, &val_ds, &mut rng).unwrap();
        assert_eq!(report.lcurve.last().unwrap().step, 60);
        assert!(report.lcurve.final_losses().is_some());
    }

    #[test]
    fn absurd_learning_rate_diverges() {
        let (train_ds, val_ds) = tiny_data(5);
        let mut rng = StdRng::seed_from_u64(6);
        let config = TrainConfig { start_lr: 1e100, stop_lr: 1e99, ..tiny_config() };
        let report = train(&config, &train_ds, &val_ds, &mut rng).unwrap();
        assert!(report.diverged, "1e100 learning rate should diverge");
        assert!(report.steps_completed < config.num_steps);
        assert!(
            matches!(report.abort, Some(AbortReason::Diverged { .. })),
            "divergence must carry a structured reason: {:?}",
            report.abort
        );
    }

    #[test]
    fn sentinel_aborts_diverging_run_within_one_interval() {
        // The acceptance check for the supervision layer: an absurd
        // learning rate must stop within one sentinel interval (the checks
        // run every step, so within a couple of steps of the blow-up) —
        // not run all `num_steps` and only then report failure.
        let (train_ds, val_ds) = tiny_data(5);
        let mut rng = StdRng::seed_from_u64(6);
        let config = TrainConfig {
            start_lr: 1e100,
            stop_lr: 1e99,
            num_steps: 400,
            ..tiny_config()
        };
        let sup = Supervision { sentinel: Sentinel::supervised(), ..Supervision::none() };
        let report = train_supervised(&config, &train_ds, &val_ds, &mut rng, &sup).unwrap();
        let Some(AbortReason::Diverged { step, loss }) = report.abort else {
            panic!("expected a divergence abort, got {:?}", report.abort);
        };
        assert!(step <= 2, "sentinel took {step} steps to fire");
        assert!(
            report.steps_completed <= 2,
            "executed {} of {} steps; the sentinel should abort almost immediately",
            report.steps_completed,
            config.num_steps
        );
        assert!(!loss.is_finite() || loss > 1e12, "reported loss {loss} is not divergent");
    }

    #[test]
    fn explosion_sentinel_fires_before_the_absolute_ceiling() {
        // A loss that explodes relative to its starting value but has not
        // yet crossed 1e12 is caught only by the supervised sentinel.
        let healthy = Sentinel::default();
        let strict = Sentinel::supervised();
        let initial = Some(1e-2);
        let exploded = 1e5; // 1e7x the initial loss, far below 1e12
        assert!(!healthy.fires(exploded, initial));
        assert!(strict.fires(exploded, initial));
    }

    #[test]
    fn cancellation_aborts_at_a_step_boundary() {
        let (train_ds, val_ds) = tiny_data(3);
        let mut rng = StdRng::seed_from_u64(4);
        let cancelled = || true;
        let sup = Supervision { cancelled: Some(&cancelled), ..Supervision::none() };
        let report =
            train_supervised(&tiny_config(), &train_ds, &val_ds, &mut rng, &sup).unwrap();
        assert_eq!(report.abort, Some(AbortReason::Cancelled { step: 0 }));
        assert_eq!(report.steps_completed, 0);
        assert!(!report.diverged, "cancellation is not divergence");
    }

    #[test]
    fn deadline_budget_stops_training_at_the_wall() {
        let (train_ds, val_ds) = tiny_data(3);
        let mut rng = StdRng::seed_from_u64(4);
        // 1 simulated minute per step, 10-minute budget, 60-step config:
        // exactly 10 steps fit inside the wall.
        let sup = Supervision {
            deadline_minutes: Some(10.0),
            minutes_per_step: 1.0,
            ..Supervision::none()
        };
        let report =
            train_supervised(&tiny_config(), &train_ds, &val_ds, &mut rng, &sup).unwrap();
        assert_eq!(
            report.abort,
            Some(AbortReason::Deadline { step: 10, sim_minutes: 10.0 })
        );
        assert_eq!(report.steps_completed, 10);
    }

    #[test]
    fn heartbeats_report_monotone_simulated_progress() {
        use std::cell::RefCell;
        let (train_ds, val_ds) = tiny_data(3);
        let mut rng = StdRng::seed_from_u64(4);
        let beats: RefCell<Vec<(f64, f64)>> = RefCell::new(Vec::new());
        let beat = |done: f64, projected: f64| beats.borrow_mut().push((done, projected));
        let sup = Supervision {
            heartbeat: Some(&beat),
            heartbeat_every: 20,
            minutes_per_step: 0.5,
            ..Supervision::none()
        };
        let report =
            train_supervised(&tiny_config(), &train_ds, &val_ds, &mut rng, &sup).unwrap();
        assert!(report.abort.is_none());
        let beats = beats.into_inner();
        // 60 steps / 20 = beats at steps 0, 20, 40.
        assert_eq!(beats.len(), 3);
        assert_eq!(beats[1], (10.0, 30.0));
        assert!(beats.windows(2).all(|w| w[0].0 < w[1].0), "progress must be monotone");
    }

    #[test]
    fn supervision_probes_do_not_change_trained_weights() {
        // The determinism cornerstone: attaching inert supervision must not
        // alter the rng stream or the resulting model.
        let (train_ds, val_ds) = tiny_data(9);
        let run = |supervised: bool| {
            let mut rng = StdRng::seed_from_u64(17);
            let mut config = tiny_config();
            config.num_steps = 20;
            let report = if supervised {
                let cancelled = || false;
                let beat = |_: f64, _: f64| {};
                let sup = Supervision {
                    cancelled: Some(&cancelled),
                    deadline_minutes: Some(1e9),
                    minutes_per_step: 0.001,
                    heartbeat: Some(&beat),
                    heartbeat_every: 5,
                    check_every: 1,
                    sentinel: Sentinel::supervised(),
                    ..Supervision::none()
                };
                train_supervised(&config, &train_ds, &val_ds, &mut rng, &sup).unwrap()
            } else {
                train(&config, &train_ds, &val_ds, &mut rng).unwrap()
            };
            report.lcurve.final_losses().unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn telemetry_recorder_does_not_change_trained_weights() {
        // The PR's acceptance bar at the trainer level: a live recorder
        // must not alter the rng stream, the float op order, or therefore a
        // single weight bit — telemetry reads values the step already made.
        use dphpo_obs::{MemoryRecorder, Recorder, SpanCtx};
        let (train_ds, val_ds) = tiny_data(9);
        let run = |rec: Option<&MemoryRecorder>| {
            let mut rng = StdRng::seed_from_u64(21);
            let mut config = tiny_config();
            config.num_steps = 20;
            let sup = Supervision {
                recorder: rec.map(|r| r as &dyn Recorder),
                span: SpanCtx::root(21, 0),
                minutes_per_step: 0.01,
                ..Supervision::none()
            };
            let report = train_supervised(&config, &train_ds, &val_ds, &mut rng, &sup).unwrap();
            let weight_bits: Vec<u64> = report
                .model
                .params
                .flat()
                .iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect();
            (weight_bits, report.lcurve.final_losses().unwrap())
        };
        let plain = run(None);
        let rec = MemoryRecorder::new();
        let observed = run(Some(&rec));
        assert_eq!(plain, observed, "telemetry changed the trained weights");
        let snap = rec.snapshot();
        assert_eq!(snap.counter(dphpo_obs::names::C_STEPS), 20);
        assert!(
            snap.events.iter().filter(|e| e.name == dphpo_obs::names::TRAIN_STEP).count() == 20
        );
        assert!(snap.events.iter().any(|e| e.name == dphpo_obs::names::LCURVE_ROW));
        assert!(snap.gauges.iter().any(|(n, g)| n == dphpo_obs::names::G_TAPE_NODES && g.max > 0.0));
    }

    #[test]
    fn empty_validation_is_rejected() {
        let (train_ds, _) = tiny_data(7);
        let empty = Dataset { cell: train_ds.cell, species: train_ds.species.clone(), frames: vec![] };
        let mut rng = StdRng::seed_from_u64(8);
        assert!(train(&tiny_config(), &train_ds, &empty, &mut rng).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (train_ds, val_ds) = tiny_data(9);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut config = tiny_config();
            config.num_steps = 20;
            let report = train(&config, &train_ds, &val_ds, &mut rng).unwrap();
            report.lcurve.final_losses().unwrap()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn adam_moves_parameters_toward_gradient_descent() {
        let mut params_holder = {
            let (train_ds, _) = tiny_data(13);
            let mut rng = StdRng::seed_from_u64(14);
            DnnpModel::new(tiny_config(), &train_ds, &mut rng).unwrap()
        };
        // Use the first parameter tensor as a stand-in container: check that
        // a positive gradient lowers the value.
        let before = params_holder.params.flat()[0].data()[0];
        let shapes: Vec<Shape> = params_holder.params.flat().iter().map(|t| t.shape()).collect();
        let mut full_adam = Adam::new(&shapes);
        let grads: Vec<Tensor> = shapes
            .iter()
            .map(|&s| {
                let mut t = Tensor::zeros(s);
                t.data_mut().iter_mut().for_each(|v| *v = 1.0);
                t
            })
            .collect();
        full_adam.step(&mut params_holder.params, &grads, 0.01);
        let after = params_holder.params.flat()[0].data()[0];
        assert!(after < before, "positive gradient must decrease weight");
    }
}
