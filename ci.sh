#!/usr/bin/env bash
# Tier-1 gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline

# Pin property-test case counts so the gate's coverage is the same on
# every machine (the vendored proptest reads PROPTEST_CASES).
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The bench crate drives every substrate through the parallel
# replication engine; its parity and panic-isolation guarantees must
# hold at any worker count, so run its tests single-threaded and at a
# fixed multi-thread count too (the workspace run above used the
# machine default).
echo "==> cargo test -q --offline -p sas-bench -p simkernel (SAS_THREADS=1)"
SAS_THREADS=1 cargo test -q --offline -p sas-bench -p simkernel

echo "==> cargo test -q --offline -p sas-bench -p simkernel (SAS_THREADS=4)"
SAS_THREADS=4 cargo test -q --offline -p sas-bench -p simkernel

# Release mode compiles the `#[cfg(not(debug_assertions))]` tests
# (e.g. the scheduler's same-tick shed path), which every debug-mode
# run above skips.
echo "==> cargo test --release -q --offline -p simkernel"
cargo test --release -q --offline -p simkernel

# The f10 --smoke table pin is release-only (several seconds in a
# debug build); f10 drives the city supervisor's rollback and fallback
# under every intervention mask.
echo "==> cargo test --release -q --offline --test experiment_digests"
cargo test --release -q --offline --test experiment_digests

# Experiment smokes: every experiment with a reduced CI size runs end
# to end under SAS_OBS=1, and its emitted run trace is
# schema-validated. f10, f11 and f12 exit non-zero when their gate
# fails; at smoke size f11 skips only its statistical CI-separation
# gates and f12 only its full-scale floors and wall-clock speedup gate,
# which need full-size runs. target/obs is cleaned on both sides so
# stale artifacts can't mask a regression.
for id in f5 f8 f9 f10 f11 f12; do
  echo "==> SAS_OBS=1 sas-bench run $id --smoke"
  rm -rf target/obs
  SAS_OBS=1 cargo run --release --offline --quiet -p sas-bench -- run "$id" --smoke

  echo "==> cargo run -p sas-bench --bin obs_validate ($id trace)"
  cargo run --offline -p sas-bench --bin obs_validate
  rm -rf target/obs
done

# Thread parity: the regenerated tables must be byte-identical at any
# worker count. These experiments each take at most about a second at
# full size; f2's static and periodic arms build their routing tables
# lazily inside parallel replicates.
PARITY_IDS="t3 t4 t5 t6 f1 f2 f3 f5 f6 f7 a1 a2 a3"
echo "==> sas-bench run $PARITY_IDS: SAS_THREADS=1 vs SAS_THREADS=4"
for threads in 1 4; do
  # shellcheck disable=SC2086
  SAS_THREADS=$threads cargo run --release --offline --quiet -p sas-bench -- \
    run $PARITY_IDS > "target/parity-$threads.out"
done
cmp target/parity-1.out target/parity-4.out

# Benchmark smoke: one-second traced runs of the repository
# benchmark's two simulation workloads. The runner checks its own
# outputs (allow_all factual == plain run_city, obs on/off digest
# parity, request conservation, dense == sparse) and reports any
# failure in the "failed" count of its last line, the JSON result.
for w in city-replay cloud-trace; do
  echo "==> benchmark --workload $w --seconds 1 --trace 1"
  last="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --seconds 1 --trace 1 | tail -n 1)"
  case "$last" in
    *'"failed":0,'*) ;;
    *)
      echo "benchmark $w: output checks failed: $last" >&2
      exit 1
      ;;
  esac
  # cloud-trace reports the work counters of its operation 0, whose
  # seeds are fixed, so they are exact. Pinning them makes a change
  # that adds scheduler wakes (e.g. one per churn transition) or alters
  # the simulated trace fail here.
  if [ "$w" = cloud-trace ]; then
    for pin in '"sched.wakes":{"value":1773449,' '"sched.visits":{"value":1765257,' \
      '"cloudsim.requests":{"value":1200164,'; do
      case "$last" in
        *"$pin"*) ;;
        *)
          echo "benchmark $w: expected $pin in: $last" >&2
          exit 1
          ;;
      esac
    done
  fi
done

# Rustdoc gate: every intra-doc link must resolve, so a rename or a
# deletion cannot leave a doc comment pointing at nothing.
echo "==> cargo doc --offline --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# No panic paths in shipped library code: every first-party lib carries
# #![warn(clippy::unwrap_used, clippy::panic)], promoted to errors here
# (tests are exempted via clippy.toml allow-*-in-tests).
FIRST_PARTY="-p simkernel -p selfaware -p workloads -p camnet -p cloudsim -p multicore -p cpn -p compose -p liveserve -p sas-bench"
echo "==> cargo clippy --offline \$FIRST_PARTY --lib -- -D warnings"
# shellcheck disable=SC2086
cargo clippy --offline $FIRST_PARTY --lib -- -D warnings

echo "==> ci.sh: all green"
