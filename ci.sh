#!/usr/bin/env bash
# Offline CI gate. Run from the repo root: ./ci.sh
#
# The build must succeed with no network and an empty cargo registry
# cache — the workspace has zero external dependencies by design, and
# `.cargo/config.toml` pins `net.offline = true` so a reintroduced
# dependency fails at resolution time rather than fetching silently.
#
# Flags:
#   --full-scale   additionally run the full scale sweep (several
#                  minutes) and gate it against the committed
#                  results/bench/BENCH_scale.json baseline. The default
#                  per-commit loop runs the scale suite in --smoke mode
#                  and gates its deterministic event counters only.
set -euo pipefail
cd "$(dirname "$0")"

FULL_SCALE=0
for arg in "$@"; do
    case "$arg" in
        --full-scale) FULL_SCALE=1 ;;
        *)
            echo "ci.sh: unknown argument '$arg' (supported: --full-scale)" >&2
            exit 2
            ;;
    esac
done

# Every build in this gate treats warnings as errors.
export RUSTFLAGS="-D warnings"

# --- per-step timing ---------------------------------------------------
# `step` closes the previous step and starts a new one; the EXIT trap
# prints the table (and appends it to $GITHUB_STEP_SUMMARY when set) even
# when a step fails.
STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_START=$SECONDS

close_step() {
    if [[ -n "$CURRENT_STEP" ]]; then
        STEP_NAMES+=("$CURRENT_STEP")
        STEP_SECS+=("$((SECONDS - STEP_START))")
    fi
}

step() {
    close_step
    CURRENT_STEP="$*"
    STEP_START=$SECONDS
    printf '\n== %s ==\n' "$*"
}

print_timings() {
    close_step
    CURRENT_STEP=""
    [[ ${#STEP_NAMES[@]} -eq 0 ]] && return 0
    printf '\n== step timings ==\n'
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '%6ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        {
            printf '\n### ci.sh step timings\n\n'
            printf '| step | seconds |\n| --- | ---: |\n'
            for i in "${!STEP_NAMES[@]}"; do
                printf '| %s | %s |\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
            done
        } >>"$GITHUB_STEP_SUMMARY"
    fi
}

# --- bench baseline stash/restore --------------------------------------
# Bench runs overwrite the committed results/bench/BENCH_*.json
# baselines in place. Stash them all up front and restore from the EXIT
# trap, so the tree is left clean even when a gate fails mid-run (the
# old per-step copies leaked the mktemp file and left measured numbers
# in the tree on failure). This run's measured outputs are preserved in
# results/bench/ci-run/ for debugging and artifact upload.
BASELINE_DIR="$(mktemp -d)"
cp results/bench/BENCH_*.json "$BASELINE_DIR"/
# The figure gate moves the committed fig6 record log here while it
# regenerates fig6 from scratch; the EXIT trap puts it back.
FIG6_STASH="$(mktemp -d)"

cleanup() {
    local status=$?
    mkdir -p results/bench/ci-run
    cp -f results/bench/BENCH_*.json results/bench/ci-run/ 2>/dev/null || true
    cp -f "$BASELINE_DIR"/BENCH_*.json results/bench/
    rm -rf "$BASELINE_DIR"
    if [[ -f "$FIG6_STASH/records.jsonl" ]]; then
        mv -f "$FIG6_STASH/records.jsonl" results/fig6/records.jsonl
    fi
    rm -rf "$FIG6_STASH"
    print_timings
    exit "$status"
}
trap cleanup EXIT

bench_diff() {
    cargo run --release --offline -q -p iosched-bench --bin bench_diff -- "$@"
}

step "format check"
cargo fmt --all --check

step "lints (clippy, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "rustdoc (warnings are errors)"
# Broken intra-doc links, links to private items and ambiguous names fail
# here instead of accumulating as warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "hermeticity: no external dependencies in any manifest"
if grep -En 'serde|rand|proptest|criterion|crossbeam' crates/*/Cargo.toml Cargo.toml; then
    echo "external dependency reference found in a manifest" >&2
    exit 1
fi

step "report: non-test production lines"
# Report only, never a gate: the lines before the first `#[cfg(test)]`
# of every `crates/*/src` file outside the test-only `reference` and
# `bench` crates, plus `examples/`. Simplicity changes quote this count.
prod_lines=0
while IFS= read -r f; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")
    prod_lines=$((prod_lines + n))
done < <(find crates/*/src examples -name '*.rs' | grep -v -e '^crates/reference/' -e '^crates/bench/' | sort)
echo "non-test production lines: $prod_lines"

step "release build (offline)"
cargo build --workspace --release --offline

step "figure gate: fig3, fig4, fig5 and fig6 regenerate byte-identical"
# The figures' CSVs and the fig6 record log are the determinism contract
# (EXPERIMENTS.md, "Regenerating results"): only a deliberate model
# change may move them. fig6 replays its committed record log unless
# the log is moved aside, so it is regenerated from scratch on one worker.
mv results/fig6/records.jsonl "$FIG6_STASH"/
cargo run --release --offline -q -p iosched-experiments --bin fig3 >/dev/null
cargo run --release --offline -q -p iosched-experiments --bin fig4 >/dev/null
cargo run --release --offline -q -p iosched-experiments --bin fig5 >/dev/null
CAMPAIGN_THREADS=1 cargo run --release --offline -q -p iosched-experiments --bin fig6 >/dev/null
git diff --exit-code --stat results/fig3 results/fig4 results/fig5 results/fig6

step "tests (offline)"
cargo test -q --workspace --offline

step "property suites in release"
# These suites run without overflow checks, so they check the release
# arithmetic too, and the release engine, which carries no oracle:
# - profile and policy properties (iosched-slurm, iosched-core) against
#   their test-code models under cfg(test): the two-group split and the
#   adaptive round's fused target pass against the comparison-sort split
#   and the separate target walk (twogroup.rs, adaptive.rs), bit for bit;
# - the joint-scan trackers (iosched-core's fixpoint_props): every
#   earliest start and whole backfill passes against the per-resource
#   fixpoint of Algorithms 4 and 7 (iosched_reference::fixpoint);
# - the backfill properties: the fits-now-pruned pass against the
#   unpruned full walk, iosched_reference::reference_pass with
#   prune = false, and each plan's peak, read by the reference
#   max_over helper (iosched_reference::max_over), against capacity;
# - the no-start certificate properties, against backfill passes;
# - the lustre-sim properties: the rate solve against the test-code
#   reference solver;
# - the SWF reader/writer properties (iosched-workloads) and the JSON
#   parser and property harness tests (iosched-simkit);
# - the ldms-sim property: the daemon's running integrals and load
#   window, bitwise, against a model that keeps every sample;
# - the cluster-sim property: the event calendar against a scan over the
#   running jobs;
# - the iosched-reference suite: random workloads through the engine and
#   the reference engine (every pass run, nothing elided or certified),
#   whose results must be identical.
cargo test --release -q --offline -p iosched-slurm -p iosched-core -p iosched-lustre \
    -p iosched-ldms -p iosched-analytics -p iosched-reference -p iosched-cluster \
    -p iosched-workloads -p iosched-simkit
# Metamorphic relations between runs (unbounded io-aware equals default
# backfill; cutting a trace at T moves no start before T; on I/O-free
# traces io-aware and adaptive equal default backfill). The cut
# relation's 72 runs are release-only: the debug tests step skips them.
cargo test --release -q --offline -p iosched-experiments --test relations
# Certified rounds (skipped by the no-start certificate) must reproduce
# fingerprints pinned with every pass executed, in release too.
cargo test --release -q --offline -p iosched-experiments --test certified_rounds
# Campaigns run the release build, so the campaign pool's tests (task
# claiming, index-ordered merge, panic abort) run in release too.
cargo test --release -q --offline -p iosched-experiments --lib pool
# The steady-state scheduling round and cluster advance must stay
# allocation-free in the release build the campaigns run, not only in
# the debug build of the tests step.
cargo test --release -q --offline --test alloc_steady_state

step "perfbench smoke test: the traced mirror reproduces the engine's fingerprints"
# perfbench is a package of its own (outside the workspace), so the
# workspace tests never reach it. Its smoke test runs every benchmark
# workload untraced and traced and fails when the mirror's fingerprints
# differ from the engine's.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "determinism gate: two full Workload 1 runs, bit-identical output"
cargo test --release --offline --test determinism -- --include-ignored

step "bench gate: micro suite within 2x of the committed baseline"
# Re-measure and gate on >2x min-ns regressions against the committed
# baseline (stashed above; the EXIT trap restores it). Refresh the
# baseline with 'cargo bench -p iosched-bench --bench micro' when a
# change is supposed to shift performance.
cargo bench --offline -p iosched-bench --bench micro
bench_diff --gate 2.0 "$BASELINE_DIR/BENCH_micro.json" results/bench/BENCH_micro.json

step "bench gate: fig6 campaign timings and event counts within 2x of baseline"
# Beyond timings, this file carries deterministic `events/<label>`
# counters (total event-loop iterations per campaign), so an event-count
# blowup fails the gate even when wall-clock noise hides it.
cargo bench --offline -p iosched-bench --bench fig6_campaign
bench_diff --gate 2.0 "$BASELINE_DIR/BENCH_fig6_campaign.json" results/bench/BENCH_fig6_campaign.json

step "bench smoke (emits results/bench/BENCH_*.json)"
for suite in fig6_campaign scale campaign sched; do
    cargo bench --offline -p iosched-bench --bench "$suite" -- --smoke
done
for suite in micro fig6_campaign scale campaign sched; do
    test -s "results/bench/BENCH_${suite}.json" || {
        echo "missing bench output BENCH_${suite}.json" >&2
        exit 1
    }
done

step "bench gate: scale smoke event counters match the committed baseline"
# The smoke replay's timings are single samples and never gate, but its
# event counters are deterministic; any change is algorithmic. Under
# --counters-only, bench_diff requires every counter to equal the
# committed smoke baseline exactly (refresh with 'cargo bench -p
# iosched-bench --bench scale -- --smoke' + cp to BENCH_scale_smoke.json
# when the trace or scheduler legitimately changes).
bench_diff --gate 2.0 --counters-only \
    "$BASELINE_DIR/BENCH_scale_smoke.json" results/bench/BENCH_scale.json

step "bench gate: sched smoke sweep/prune/elision counters match the committed baseline"
# The deep-queue round bench's counters are deterministic; drift means
# the profile scan, dominance pruning, or round elision changed
# behavior. Each policy runs one round at the default config.
# sweep_steps/* counts the profile entries the earliest-start probes
# scan; growing means probes walk further before they settle, even
# though results stay correct. index_ops/queue_prep_build_50k counts
# the inserts and removes of the one policy-keyed pending index (the
# Priority order; FIFO walks the pending set itself), and
# walk_steps/queue_prep_{priority,fifo} the entries one depth-500 walk
# examines.
# Refresh with 'cargo bench -p iosched-bench --bench sched -- --smoke'
# + cp to BENCH_sched_smoke.json when intended.
bench_diff --gate 2.0 --counters-only \
    "$BASELINE_DIR/BENCH_sched_smoke.json" results/bench/BENCH_sched.json

step "bench gate: campaign smoke task/event counters match the committed baseline"
# The campaign engine's smoke grid (4 tasks) proves merged records are
# bit-identical across worker counts and emits deterministic task/event
# totals; any drift is an engine or scheduler change. Refresh with
# 'cargo bench -p iosched-bench --bench campaign -- --smoke' + cp to
# BENCH_campaign_smoke.json when intended.
bench_diff --gate 2.0 --counters-only \
    "$BASELINE_DIR/BENCH_campaign_smoke.json" results/bench/BENCH_campaign.json

if [[ $FULL_SCALE -eq 1 ]]; then
    step "bench gate (--full-scale): full scale sweep within 2x of baseline"
    # The full sweep: strong-scaling trio (same trace, 1x/10x/100x
    # machine), the load-matched points (100k jobs on a 1 005-node
    # cluster, a 1 500-job x1 reference, and the 1M-job SWF-file
    # replay on the 10 005-node x667 machine — the long pole, ~25 min).
    # Gates both timings and event counters; the emitted meta includes
    # the headline events_per_sec_ratio/default_x1_over_x100, which
    # must stay within 3x. Refresh the baseline with 'cargo bench
    # -p iosched-bench --bench scale'.
    cargo bench --offline -p iosched-bench --bench scale
    bench_diff --gate 2.0 "$BASELINE_DIR/BENCH_scale.json" results/bench/BENCH_scale.json

    step "bench gate (--full-scale): deep-queue rounds within 2x of baseline"
    # Full sched suite adds the 50k-deep rounds, the breakpoint x depth
    # grid and calibrated timings. Refresh the baseline with
    # 'cargo bench -p iosched-bench --bench sched'.
    cargo bench --offline -p iosched-bench --bench sched
    bench_diff --gate 2.0 "$BASELINE_DIR/BENCH_sched.json" results/bench/BENCH_sched.json

    step "bench gate (--full-scale): campaign scaling sweep and 4-worker speedup"
    # Full campaign sweep at 1/2/4/8 workers. The binary itself asserts
    # >= 2.5x speedup at 4 workers under --gate-speedup (skipped loudly
    # on machines with < 4 cores); bench_diff then gates the
    # deterministic task/event counters against the committed baseline.
    # Refresh with 'cargo bench -p iosched-bench --bench campaign'.
    cargo bench --offline -p iosched-bench --bench campaign -- --gate-speedup
    bench_diff --gate 2.0 --counters-only \
        "$BASELINE_DIR/BENCH_campaign.json" results/bench/BENCH_campaign.json
fi

echo
echo "tip: compare against a stashed baseline with" \
    "'cargo run --release --offline -p iosched-bench --bin bench_diff --" \
    "<before.json> <after.json>' (report-only; --gate <factor> to fail on regressions)"

step "ci passed"
