//! The benchmark's workloads: fixed campaign shapes, each a function of the
//! master seed only.

use dphpo_core::experiment::{CampaignMode, ExperimentConfig};
use dphpo_dnnp::TrainConfig;

use crate::probes::ProbePlan;

/// Worker slots. Pinned (never read from `available_parallelism`) so a
/// campaign's schedule and its wall-clock ledger mean the same on every
/// host; 2 is `nproc` on the reference host.
pub const N_WORKERS: usize = 2;

/// Per-task worker-death probability, as in the paper's campaigns.
pub const FAULT_PROBABILITY: f64 = 0.002;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Generational, 12 runs x pop 12 x 2 generations of reduced-scale
    /// trainings cut to 250 steps: time goes to training steps. Many short
    /// independent runs average out the cutoff genes that set each
    /// training's cost, so the campaign's cost varies little by seed.
    TrainHeavy,
    /// Generational at the paper's campaign shape (5 x 100 x 7) with
    /// 50-step smoke-size trainings: time spreads over the driver layers.
    PaperShape,
    /// The paper-shape campaign in steady-state mode.
    PaperShapeSteady,
    /// A sub-second generational campaign of paper-shape trainings
    /// (2 x 8 x 3), for the benchmark's own tests.
    Smoke,
}

impl Workload {
    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainHeavy => "train-heavy",
            Workload::PaperShape => "paper-shape",
            Workload::PaperShapeSteady => "paper-shape-steady",
            Workload::Smoke => "smoke",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::TrainHeavy,
            Workload::PaperShape,
            Workload::PaperShapeSteady,
            Workload::Smoke,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The campaign configuration for master seed `seed`.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let reduced = ExperimentConfig::reduced();
        let smoke_train = TrainConfig {
            embedding_neurons: vec![4, 4],
            fitting_neurons: vec![6],
            num_steps: 50,
            batch_per_worker: 1,
            n_workers: 1,
            disp_freq: 50,
            val_max_frames: 2,
            ..TrainConfig::default()
        };
        let (n_runs, pop_size, generations, base_train_config, mode) = match self {
            Workload::TrainHeavy => {
                let train = TrainConfig {
                    num_steps: 250,
                    ..reduced.base_train_config.clone()
                };
                (12, 12, 1, train, CampaignMode::Generational)
            }
            Workload::PaperShape => (5, 100, 6, smoke_train, CampaignMode::Generational),
            Workload::PaperShapeSteady => (5, 100, 6, smoke_train, CampaignMode::SteadyState),
            Workload::Smoke => (2, 8, 2, smoke_train, CampaignMode::Generational),
        };
        let mut config = ExperimentConfig {
            n_runs,
            pop_size,
            generations,
            base_train_config,
            mode,
            master_seed: seed,
            fault_probability: FAULT_PROBABILITY,
            ..reduced
        };
        config.pool.n_workers = N_WORKERS;
        // Restart dead workers. The paper's 100-worker pool never runs dry,
        // but without nannies two deaths in one batch would idle a 2-worker
        // pool and fail the rest of the batch.
        config.pool.nanny = true;
        config
    }

    /// Trainings the campaign must complete: runs x pop x (generations + 1).
    pub fn planned_trainings(self) -> usize {
        let c = self.config(0);
        c.n_runs * c.pop_size * (c.generations + 1)
    }

    /// How much each probe measures on this workload.
    pub fn probe_plan(self) -> ProbePlan {
        match self {
            Workload::TrainHeavy => ProbePlan {
                genomes: 4,
                rewrites: 20,
                select_repeats: 40,
                min_appends: 1000,
            },
            Workload::PaperShape | Workload::PaperShapeSteady => ProbePlan {
                genomes: 40,
                rewrites: 20,
                select_repeats: 5,
                min_appends: 1000,
            },
            Workload::Smoke => ProbePlan {
                genomes: 4,
                rewrites: 3,
                select_repeats: 2,
                min_appends: 50,
            },
        }
    }
}
