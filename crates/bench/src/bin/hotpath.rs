//! Machine-readable baseline of the training hot path: steady-state
//! training step cost, the tensor/tape kernels it is built from (blocked
//! matmul, transposed-operand matmuls, bulk tanh, fused affine layer),
//! and the batched-vs-scalar descriptor pass.
//!
//! Writes `BENCH_hotpath.json` (schema `dphpo-hotpath-v3`) into the
//! current directory — run from the repo root (or via
//! `scripts/bench_baseline.sh`) to refresh the checked-in baseline.
//! `--quick` trades stability for runtime (CI-friendly).

use std::time::Instant;

use dphpo_autograd::{Tape, Tensor, Unary};
use dphpo_dnnp::json::Json;
use dphpo_dnnp::descriptor::merge_frame_caches;
use dphpo_dnnp::{forward_cached, train, DnnpModel, FrameCache, TrainConfig};
use dphpo_md::generate::{generate_dataset, GenConfig};
use dphpo_md::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Best-of-`samples` wall time of `f`, in seconds (one warm-up call first).
fn time_best(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::MAX;
    for _ in 0..samples {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Nanoseconds per call for a kernel, timed in batches of `reps`.
fn ns_per_op(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    time_best(samples, || {
        for _ in 0..reps {
            f();
        }
    }) * 1e9
        / reps as f64
}

fn data() -> (Dataset, Dataset) {
    // Same reference system as the criterion training bench.
    let mut rng = StdRng::seed_from_u64(6);
    let gen = GenConfig { n_frames: 24, ..GenConfig::reduced() };
    let mut ds = generate_dataset(&gen, &mut rng);
    ds.add_label_noise(0.0005, 0.03, &mut rng);
    ds.split(0.25, &mut rng)
}

/// Reference training config: `rcut = 11` gives ~17 pairs/atom on the
/// generated toy box, the closest match to the neighbor density of the
/// paper's production systems (water at 6 Å sees ~46 neighbors/atom).
/// The sparse `rcut = 6` variant (~3 pairs/atom) is also recorded — it is
/// dominated by per-node graph overhead rather than kernel throughput, so
/// tracking both catches regressions in either regime.
const REFERENCE_RCUT: f64 = 11.0;
const SPARSE_RCUT: f64 = 6.0;

fn config(rcut: f64, steps: usize) -> TrainConfig {
    TrainConfig {
        rcut,
        rcut_smth: 2.2,
        start_lr: 0.008,
        stop_lr: 1e-4,
        num_steps: steps,
        disp_freq: steps,
        val_max_frames: 2,
        ..TrainConfig::default()
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::matrix(rows, cols, (0..rows * cols).map(|_| rng.random_range(-1.0..1.0)).collect())
}

/// Tile a one-frame one-hot matrix `[n, S]` into `[B·n, S]`.
fn tile_onehot(onehot: &Tensor, batch: usize) -> Tensor {
    let rows = onehot.shape().rows();
    let cols = onehot.shape().cols();
    let mut out = Vec::with_capacity(batch * rows * cols);
    for _ in 0..batch {
        out.extend_from_slice(onehot.data());
    }
    Tensor::matrix(batch * rows, cols, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let (samples, k_steps, mm_reps, aff_reps, act_reps) =
        if quick { (3, 20, 300, 60, 100) } else { (3, 100, 3000, 400, 1000) };
    let (train_ds, val_ds) = data();

    // Steady-state step cost by subtraction: t(2K) − t(K) spans exactly K
    // steps of the warm loop, cancelling model setup and cache building.
    let mut training = Vec::new();
    for rcut in [REFERENCE_RCUT, SPARSE_RCUT] {
        println!("timing training at rcut {rcut} ({k_steps} vs {} steps)...", 2 * k_steps);
        let t_short = time_best(samples, || {
            let mut rng = StdRng::seed_from_u64(7);
            let _ = train(&config(rcut, k_steps), &train_ds, &val_ds, &mut rng).unwrap();
        });
        let t_long = time_best(samples, || {
            let mut rng = StdRng::seed_from_u64(7);
            let _ = train(&config(rcut, 2 * k_steps), &train_ds, &val_ds, &mut rng).unwrap();
        });
        let ns_per_step = ((t_long - t_short).max(0.0) / k_steps as f64) * 1e9;
        training.push((rcut, ns_per_step));
    }

    println!("timing kernels...");
    let mut rng = StdRng::seed_from_u64(5);
    let a = random_matrix(64, 64, &mut rng);
    let b = random_matrix(64, 64, &mut rng);
    let matmul_ns = ns_per_op(samples, mm_reps, || {
        let _ = std::hint::black_box(&a).matmul(std::hint::black_box(&b));
    });
    let matmul_nt_ns = ns_per_op(samples, mm_reps, || {
        let _ = std::hint::black_box(&a).matmul_nt(std::hint::black_box(&b));
    });
    let matmul_tn_ns = ns_per_op(samples, mm_reps, || {
        let _ = std::hint::black_box(&a).matmul_tn(std::hint::black_box(&b));
    });
    // Bulk tanh through the tape's vectorized unary kernel.
    let t0 = random_matrix(64, 64, &mut rng);
    let ttape = Tape::new();
    let tanh_ns = ns_per_op(samples, act_reps, || {
        ttape.reset();
        let x = ttape.constant(t0.clone());
        let _ = std::hint::black_box(ttape.item(ttape.sum_all(ttape.tanh(x))));
    });

    // Fused affine layer, forward + weight gradient, on an arena tape —
    // the per-layer unit of work inside every training step.
    let x0 = random_matrix(256, 32, &mut rng);
    let w0 = random_matrix(32, 32, &mut rng);
    let b0 = Tensor::vector(&(0..32).map(|_| rng.random_range(-0.5..0.5)).collect::<Vec<_>>());
    let tape = Tape::new();
    let affine_cycle = |fused: bool| {
        tape.reset();
        let x = tape.constant(x0.clone());
        let w = tape.constant(w0.clone());
        let b = tape.constant(b0.clone());
        let h = if fused {
            tape.affine(x, w, b, Some(Unary::Tanh))
        } else {
            tape.tanh(tape.add_bias(tape.matmul(x, w), b))
        };
        let g = tape.grad(tape.sum_all(h), &[w])[0];
        let _ = std::hint::black_box(tape.item(tape.sum_all(g)));
    };
    let affine_fused_ns = ns_per_op(samples, aff_reps, || affine_cycle(true));
    let affine_unfused_ns = ns_per_op(samples, aff_reps, || affine_cycle(false));

    // Batched descriptor pass: the forward+forces graph over B frames as
    // one merged SoA cache versus B per-frame graphs. This is exactly the
    // transformation the trainer applies to its data-parallel batch.
    println!("timing batched vs scalar descriptor pass...");
    let batch_frames = 8.min(train_ds.frames.len());
    let bcfg = config(REFERENCE_RCUT, 1);
    let mut mrng = StdRng::seed_from_u64(9);
    let model = DnnpModel::new(bcfg.clone(), &train_ds, &mut mrng).expect("bench model");
    let frame_caches: Vec<FrameCache> = train_ds.frames[..batch_frames]
        .iter()
        .map(|f| model.build_cache(&f.positions))
        .collect();
    let cache_refs: Vec<&FrameCache> = frame_caches.iter().collect();
    let merged = merge_frame_caches(&cache_refs);
    let onehot_batch = tile_onehot(&model.onehot, batch_frames);
    let btape = Tape::new();
    let batch_reps = if quick { 20 } else { 200 };
    let scalar_pass_ns = ns_per_op(samples, batch_reps, || {
        for cache in &frame_caches {
            btape.reset();
            let taped = model.params.register(&btape);
            let graph =
                forward_cached(&btape, &taped, &bcfg, &model.stats, cache, &model.onehot, true);
            let _ = std::hint::black_box(
                btape.item(btape.sum_all(graph.forces.expect("forces"))),
            );
        }
    });
    let batched_pass_ns = ns_per_op(samples, batch_reps, || {
        btape.reset();
        let taped = model.params.register(&btape);
        let graph =
            forward_cached(&btape, &taped, &bcfg, &model.stats, &merged, &onehot_batch, true);
        let _ =
            std::hint::black_box(btape.item(btape.sum_all(graph.forces.expect("forces"))));
    });

    let doc = Json::object(vec![
        ("schema", Json::String("dphpo-hotpath-v3".into())),
        ("quick", Json::Bool(quick)),
        ("reference_rcut", Json::Number(REFERENCE_RCUT)),
        (
            "training",
            Json::Array(
                training
                    .iter()
                    .map(|&(rcut, ns)| {
                        Json::object(vec![
                            ("rcut", Json::Number(rcut)),
                            ("steps_measured", Json::Number(k_steps as f64)),
                            ("ns_per_step", Json::Number(ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "kernels",
            Json::object(vec![
                ("matmul_64x64_ns", Json::Number(matmul_ns)),
                ("matmul_nt_64x64_ns", Json::Number(matmul_nt_ns)),
                ("matmul_tn_64x64_ns", Json::Number(matmul_tn_ns)),
                ("tanh_64x64_ns", Json::Number(tanh_ns)),
                ("affine_fused_fwd_grad_256x32_ns", Json::Number(affine_fused_ns)),
                ("affine_unfused_fwd_grad_256x32_ns", Json::Number(affine_unfused_ns)),
            ]),
        ),
        (
            "batched",
            Json::object(vec![
                ("frames", Json::Number(batch_frames as f64)),
                ("scalar_fwd_forces_ns", Json::Number(scalar_pass_ns)),
                ("batched_fwd_forces_ns", Json::Number(batched_pass_ns)),
                ("speedup", Json::Number(scalar_pass_ns / batched_pass_ns)),
            ]),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write baseline");
    println!("wrote {out_path}");
    for &(rcut, ns) in &training {
        println!("  training rcut {rcut}: {:.1} µs/step", ns / 1e3);
    }
    println!(
        "  matmul 64x64: {matmul_ns:.0} ns  (nt {matmul_nt_ns:.0} ns, tn {matmul_tn_ns:.0} ns, nt/mm {:.2})",
        matmul_nt_ns / matmul_ns
    );
    println!("  tanh 64x64: {tanh_ns:.0} ns");
    println!(
        "  affine 256x32 fwd+grad: fused {:.1} µs vs unfused {:.1} µs",
        affine_fused_ns / 1e3,
        affine_unfused_ns / 1e3
    );
    println!(
        "  batched descriptor pass ({batch_frames} frames): {:.1} µs vs scalar {:.1} µs ({:.2}x)",
        batched_pass_ns / 1e3,
        scalar_pass_ns / 1e3,
        scalar_pass_ns / batched_pass_ns
    );
}
