#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md) plus the documentation and lint gates:
#
#   1. cargo build --release       — the whole workspace compiles
#   2. cargo test -q               — every test passes
#   3. cargo clippy                — lints clean with warnings DENIED
#   4. cargo doc --no-deps         — rustdoc builds with warnings DENIED
#   5. doc-sync                    — every `--bin`/`--bench` named in
#                                    EXPERIMENTS.md exists in the workspace,
#                                    and every fig1 flag used in README.md /
#                                    EXPERIMENTS.md is one `fig1 --list-flags`
#                                    actually parses
#   6. chaos stress                — the journal crash/resume chaos suites
#                                    (generational and steady-state), looped
#                                    CHAOS_STRESS times (default 3) to shake
#                                    out racy supervision interleavings
#   7. telemetry identity          — a faulty campaign run with a live
#                                    recorder must produce byte-identical
#                                    artifacts to one run without, and
#                                    deterministic exports across re-runs;
#                                    plus the campaign observatory: the live
#                                    campaign_status.json, the end-of-run
#                                    report, and the Chrome counter tracks
#                                    must be byte-identical across re-runs
#                                    and across a chaos kill/resume
#   8. corruption & salvage matrix — flip/truncate a finished journal
#                                    across byte offsets in both campaign
#                                    modes, salvage, resume, and demand
#                                    byte-identity with the undamaged run;
#                                    frame-format property tests; v1-fixture
#                                    compatibility; plus a seeded fault-plan
#                                    sweep (CHAOS_SEEDS io-fault seeds per
#                                    mode, default 2; CORRUPT_STRIDE /
#                                    SALVAGE_STRIDE tighten the offset grid,
#                                    1 = exhaustive)
#   9. profile identity            — profiling on/off leaves every campaign
#                                    artifact byte-identical, and the
#                                    profile artifacts themselves are
#                                    byte-identical across kill+resume and
#                                    re-runs (both campaign modes); plus the
#                                    profiler property tests (aggregation
#                                    order-independence, the exact
#                                    self+children==inclusive invariant,
#                                    folded-format validity)
#  10. campaign benchmark self-test — the campaign_bench package builds
#                                    against the current crate APIs and its
#                                    smoke workload passes every output check
#
# Opt-in extras (timing-sensitive, off by default on shared hardware):
#
#   BENCH_CHECK=1                  — fresh quick hot-path measurement must be
#                                    within 15% of the checked-in
#                                    BENCH_hotpath.json (bench_baseline.sh
#                                    --check), and perf_report --check must
#                                    find no row regressed against
#                                    BENCH_history.jsonl (perf_history.sh)
#
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/10] cargo build --release"
cargo build --release --workspace

echo "==> [2/10] cargo test -q"
cargo test -q --workspace

echo "==> [3/10] cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> [4/10] cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> [5/10] doc-sync: EXPERIMENTS.md targets exist"
missing=0
for bin in $(grep -o -- '--bin [a-z0-9_]*' EXPERIMENTS.md | awk '{print $2}' | sort -u); do
    if [[ ! -f "crates/bench/src/bin/${bin}.rs" ]]; then
        echo "    MISSING: EXPERIMENTS.md references --bin ${bin}" >&2
        missing=1
    else
        echo "    ok: --bin ${bin}"
    fi
done
for bench in $(grep -o -- '--bench [a-z0-9_]*' EXPERIMENTS.md | awk '{print $2}' | sort -u); do
    if [[ ! -f "crates/bench/benches/${bench}.rs" ]]; then
        echo "    MISSING: EXPERIMENTS.md references --bench ${bench}" >&2
        missing=1
    else
        echo "    ok: --bench ${bench}"
    fi
done
# Every fig1 flag the docs mention must be one the binary parses. Flags are
# harvested from lines that invoke fig1 (command lines and `fig1 --flag`
# inline references), so prose mentioning other binaries' flags is ignored.
echo "    doc-sync: fig1 flags in README.md/EXPERIMENTS.md parse"
known_flags="$(target/release/fig1 --list-flags)"
doc_flags="$(grep -h -- 'fig1' README.md EXPERIMENTS.md \
    | grep -o -- '--[a-z][a-z-]*' \
    | sort -u || true)"
for flag in ${doc_flags}; do
    # cargo-level flags on the same command line are not fig1's to parse.
    case "${flag}" in
    --release|--bin|--bench|--example) continue ;;
    esac
    if ! grep -qx -- "${flag}" <<<"${known_flags}"; then
        echo "    UNKNOWN: docs reference fig1 flag ${flag}" >&2
        missing=1
    else
        echo "    ok: fig1 ${flag}"
    fi
done
if [[ ${missing} -ne 0 ]]; then
    echo "verify: FAILED (doc-sync)" >&2
    exit 1
fi

CHAOS_STRESS="${CHAOS_STRESS:-3}"
echo "==> [6/10] chaos stress: ${CHAOS_STRESS}x journal crash/resume suites"
for i in $(seq 1 "${CHAOS_STRESS}"); do
    echo "    chaos iteration ${i}/${CHAOS_STRESS} (generational)"
    cargo test -q -p dphpo-core --test journal_chaos
    echo "    chaos iteration ${i}/${CHAOS_STRESS} (steady-state)"
    cargo test -q -p dphpo-core --test steady_state_identity
done

echo "==> [7/10] telemetry bit-identity (observed == unobserved artifacts)"
cargo test -q -p dphpo-core --test telemetry_identity
echo "    campaign observatory identity (status/report/counters across kill+resume)"
cargo test -q -p dphpo-core --test campaign_report_identity

CHAOS_SEEDS="${CHAOS_SEEDS:-2}"
echo "==> [8/10] corruption & salvage matrix (CHAOS_SEEDS=${CHAOS_SEEDS})"
CHAOS_SEEDS="${CHAOS_SEEDS}" cargo test -q -p dphpo-core --test corruption_matrix
echo "    frame-format property tests"
cargo test -q -p dphpo-core --test journal_frames
echo "    v1 fixture compatibility"
cargo test -q -p dphpo-core --test journal_v1_compat

echo "==> [9/10] profile identity (profiling on/off, kill+resume, both modes)"
cargo test -q -p dphpo-core --test profile_identity
echo "    profiler property tests"
cargo test -q -p dphpo-core --test profile_props

echo "==> [10/10] campaign benchmark self-test"
cargo test --release --manifest-path campaign_bench/Cargo.toml

if [[ "${BENCH_CHECK:-0}" == "1" ]]; then
    echo "==> [opt-in] hot-path bench regression check (BENCH_CHECK=1)"
    scripts/bench_baseline.sh --check
    echo "==> [opt-in] perf-history regression check (BENCH_CHECK=1)"
    scripts/perf_history.sh
fi

echo "verify: OK"
