#!/usr/bin/env bash
# Tier-1 CI gate. Everything runs --offline: the workspace vendors its
# external dependencies under vendor/ (see Cargo.toml [patch.crates-io]).
set -euo pipefail
cd "$(dirname "$0")"

echo "== static analysis (rules D1-D9) =="
# Source-level enforcement of the determinism and robustness invariants
# (D1-D6: float partial_cmp sorts, hash-ordered collections, ambient
# clocks and entropy, bare RNG construction, partial_cmp unwraps,
# iteration-order leaks; D7: panic surface; D8: hot-path allocation;
# D9: RNG-domain provenance). Runs first: it needs only the tiny
# dependency-free lint crate, so a violation fails CI in seconds
# instead of after the full build. The fixture self-check proves every
# rule both fires and is suppressible before the workspace run is
# trusted, and the lint crate itself must build warning-free.
#
# One sweep over every tree, the benchmark workspace included: any
# unsuppressed finding fails CI (fix it or suppress it with a reasoned
# `lint:allow`). The policy it enforces is compiled in, in
# crates/lint/src/policy.rs. The machine-readable report is archived as
# LINT_report.json next to the benchmark's BENCH_<workload>.json records.
RUSTFLAGS="-D warnings" cargo build --offline -p wheels-lint
cargo run -q --offline -p wheels-lint -- --fixtures
lint_t0=$(date +%s%N)
cargo run -q --offline -p wheels-lint -- --json-out LINT_report.json \
  crates/ src/ examples/ tests/ benchmark/
lint_t1=$(date +%s%N)
echo "lint stage wall time: $(( (lint_t1 - lint_t0) / 1000000 )) ms"

echo "== rustfmt: crates held to the formatter =="
# A ratchet, one crate set at a time: the crates listed here are
# rustfmt-clean and must stay so. Add a crate once `cargo fmt -p` has been
# run over it in a change of its own.
cargo fmt --check -p wheels-radio -p wheels-ran -p wheels-lint -p wheels-fleet \
  -p wheels-geo -p wheels-xcal -p wheels-netsim

echo "== clippy: crates held to clippy, -D warnings =="
# A ratchet like the one above: the crates listed here are clippy-clean
# on every target. --no-deps keeps the vendored path dependencies out.
cargo clippy --offline -p wheels-radio -p wheels-ran -p wheels-xcal -p wheels-netsim \
  -p wheels-geo -p wheels-fleet -p wheels-apps --all-targets --no-deps -- -D warnings

echo "== warnings: every target of both workspaces, -D warnings =="
# Tests, examples and benches included, so an unused import or a dead
# helper fails here instead of piling up. A type check only (no codegen),
# in its own target directory so the release cache below is not rebuilt.
RUSTFLAGS="-D warnings" cargo check --all-targets --offline --workspace \
  --target-dir target/check
RUSTFLAGS="-D warnings" cargo check --all-targets --offline \
  --manifest-path benchmark/Cargo.toml --target-dir target/check

echo "== build (release) =="
# --workspace: the stages below run ./target/release/repro, which lives in
# wheels-bench, not in the root package a bare `cargo build` builds.
cargo build --release --offline --workspace

echo "== tests (root package) =="
cargo test -q --offline

echo "== tests (full workspace) =="
cargo test -q --offline --workspace

echo "== tests (benchmark crate) =="
# The benchmark is its own workspace, so --workspace above does not reach
# it; it builds on the same library crates and vendored serde.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== sequential vs parallel equivalence (2 seeds x jobs {1,2,4}) =="
cargo test -q --offline --test parallel_equivalence

echo "== fault-injection equivalence (harsh profile, jobs 1 vs 4, 2 seeds) =="
# Determinism must survive injected apparatus faults: the exported dataset
# AND the per-unit integrity report are byte-identical at every job count,
# and the harsh profile must actually degrade at least one unit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for seed in 11 42; do
  ./target/release/repro --scale smoke --seed "$seed" --fault-profile harsh \
    --jobs 1 --export "$tmp/j1-$seed.json" table1 > /dev/null
  ./target/release/repro --scale smoke --seed "$seed" --fault-profile harsh \
    --jobs 4 --export "$tmp/j4-$seed.json" table1 > /dev/null
  cmp "$tmp/j1-$seed.json" "$tmp/j4-$seed.json"
  cmp "$tmp/j1-$seed.json.integrity.json" "$tmp/j4-$seed.json.integrity.json"
  grep -q -e '"Degraded"' -e '"Lost"' "$tmp/j1-$seed.json.integrity.json" || {
    echo "seed $seed: harsh profile left every unit clean"; exit 1;
  }
done

echo "== scenario layer: paper spec byte-identity + non-paper smoke =="
# Without --scenario, repro runs ScenarioSpec::paper(): the default must
# be the paper spec byte for byte — same export, same report, same seed.
./target/release/repro --scale smoke --seed 42 \
  --export "$tmp/direct-42.json" all > "$tmp/direct-42.txt" 2> /dev/null
./target/release/repro --scale smoke --seed 42 --scenario paper \
  --export "$tmp/scenario-42.json" all > "$tmp/scenario-42.txt" 2> /dev/null
cmp "$tmp/direct-42.json" "$tmp/scenario-42.json"
cmp "$tmp/direct-42.txt" "$tmp/scenario-42.txt"
# A non-paper registry world must run the full pipeline without panics,
# and a dumped spec must load back through the JSON file path.
./target/release/repro --scale smoke --seed 7 --scenario rail-corridor all \
  > "$tmp/rail.txt" 2> /dev/null
grep -q "T-Mobile (T), AT&T (A)" "$tmp/rail.txt"
# The worker pool's dispatch order must not leak into the output of the
# 2- and 3-operator registry worlds either: export and integrity report
# byte-identical at --jobs 1 and --jobs 4.
for world in rail-corridor metro-loop; do
  for jobs in 1 4; do
    ./target/release/repro --scale smoke --seed 7 --scenario "$world" \
      --jobs "$jobs" --export "$tmp/$world-j$jobs.json" table1 > /dev/null 2> /dev/null
  done
  cmp "$tmp/$world-j1.json" "$tmp/$world-j4.json"
  cmp "$tmp/$world-j1.json.integrity.json" "$tmp/$world-j4.json.integrity.json"
done
./target/release/repro --scenario metro-loop --scenario-dump > "$tmp/metro.json"
./target/release/repro --scale smoke --seed 7 --scenario "$tmp/metro.json" table1 \
  > "$tmp/metro.txt" 2> /dev/null
grep -q "Operators" "$tmp/metro.txt"
# A spec whose cities all share one coordinate passes the per-field
# checks but has nothing to drive: validation must reject it (exit 2 with
# a message) before the world build would panic on it.
sed -e 's/"lat": [^,]*,/"lat": 40.0,/' -e 's/"lon": [^,]*,/"lon": -74.0,/' \
  "$tmp/metro.json" > "$tmp/zero-length.json"
zero_status=0
./target/release/repro --scale smoke --scenario "$tmp/zero-length.json" table1 \
  > /dev/null 2> "$tmp/zero-length.err" || zero_status=$?
if [ "$zero_status" -ne 2 ] || grep -q panicked "$tmp/zero-length.err"; then
  echo "zero-length route: exit $zero_status, want 2 without a panic"
  cat "$tmp/zero-length.err"
  exit 1
fi

echo "== dataset binary: one .drm per record, clean CLI failures =="
# The dataset exporter writes one .drm file per test record, each checked
# to decode back to its own bytes. A bad command line must exit 2 with
# the usage before any campaign runs, never with a panic.
./target/release/dataset --scale smoke --seed 11 --out "$tmp/ds" > /dev/null 2> /dev/null
n_records=$(grep -c '^      "id": ' "$tmp/ds/dataset.json")
n_drm=$(find "$tmp/ds/drm" -name '*.drm' | wc -l)
if [ "$n_records" -eq 0 ] || [ "$n_drm" -ne "$n_records" ]; then
  echo "dataset: $n_drm .drm files for $n_records records"
  exit 1
fi
./target/release/dataset --help | grep -q "usage: dataset"
for bad in "--scale bogus" "--bogus"; do
  bad_status=0
  # shellcheck disable=SC2086
  ./target/release/dataset $bad --out "$tmp/ds-bad" > /dev/null 2> "$tmp/ds-bad.err" \
    || bad_status=$?
  if [ "$bad_status" -ne 2 ] || grep -q -e panicked -e "running campaign" "$tmp/ds-bad.err"; then
    echo "dataset $bad: exit $bad_status, want 2 before any campaign and without a panic"
    cat "$tmp/ds-bad.err"
    exit 1
  fi
done

echo "== repro command line: usage errors exit 2 before any campaign =="
# The whole command line is parsed first: an unknown artifact id, an
# unknown flag or a missing value must exit 2 with the usage and never
# start a campaign; --help exits 0 without one (it used to run a
# full-scale campaign first).
for bad in "--scale smoke fig99" "--scale smoke --sede 3 table1" "--scale smoke table1 --seed"; do
  bad_status=0
  # shellcheck disable=SC2086
  ./target/release/repro $bad > /dev/null 2> "$tmp/repro-bad.err" || bad_status=$?
  if [ "$bad_status" -ne 2 ] || ! grep -q "usage: repro" "$tmp/repro-bad.err" \
      || grep -q -e panicked -e "running campaign" "$tmp/repro-bad.err"; then
    echo "repro $bad: exit $bad_status, want 2 with the usage before any campaign"
    cat "$tmp/repro-bad.err"
    exit 1
  fi
done
./target/release/repro --help > "$tmp/repro-help.out" 2> "$tmp/repro-help.err"
grep -q "usage: repro" "$tmp/repro-help.out"
if grep -q "running campaign" "$tmp/repro-help.err"; then
  echo "repro --help ran a campaign"
  exit 1
fi

echo "== report byte-equivalence (quarter scale, fig-jobs 1, 3 and 4) =="
# The figure fan-out must not change a single byte of `repro`'s stdout,
# and neither may the phase timers: --timings and --timings-json write
# to stderr and a side file only, never to stdout. The ids cover every
# paper artifact, the report (whose sections fan out again inside one
# artifact worker) and the MPTCP extension; 3 workers divide neither the
# 23 ids nor the report's 19 sections.
ids="all report ext-mptcp"
# shellcheck disable=SC2086
./target/release/repro --scale quarter --seed 11 --fig-jobs 1 $ids \
  > "$tmp/report-f1.txt" 2> /dev/null
for fj in 3 4; do
  # shellcheck disable=SC2086
  ./target/release/repro --scale quarter --seed 11 --fig-jobs "$fj" --timings \
    --timings-json "$tmp/report-timings.json" $ids \
    > "$tmp/report-f$fj.txt" 2> /dev/null
done
cmp "$tmp/report-f1.txt" "$tmp/report-f3.txt"
cmp "$tmp/report-f1.txt" "$tmp/report-f4.txt"

echo "== jobs/export-jobs byte gates (quarter scale) =="
# The campaign and export phases both fan out: prove they are still
# byte-pure — the export, integrity report, and table must not differ by
# one byte between {--jobs, --export-jobs} 1 and 4, nor at export-jobs 3,
# which divides neither 4 nor the export's fragment count. The jobs-1 run
# is the golden the crash-resume gate below compares against.
./target/release/repro --scale quarter --seed 11 --jobs 1 --export-jobs 1 \
  --export "$tmp/q-j1.json" table1 \
  > "$tmp/q-j1.txt" 2> /dev/null
./target/release/repro --scale quarter --seed 11 --jobs 4 --export-jobs 4 \
  --export "$tmp/q-j4.json" table1 > "$tmp/q-j4.txt" 2> /dev/null
# The jobs-1 export itself is pinned too: quarter scale reaches float
# values the smoke goldens never do, so a formatter slip shows here. The
# digests were recorded with the build before the float formatter
# rewrite; re-record them (sha256sum of both files) only for an intended
# change to the exported bytes.
(cd "$tmp" && sha256sum --check --quiet) < crates/campaign/tests/golden/quarter_export_seed11.sha256
cmp "$tmp/q-j1.json" "$tmp/q-j4.json"
cmp "$tmp/q-j1.json.integrity.json" "$tmp/q-j4.json.integrity.json"
cmp "$tmp/q-j1.txt" "$tmp/q-j4.txt"
./target/release/repro --scale quarter --seed 11 --jobs 4 --export-jobs 3 \
  --export "$tmp/q-e3.json" table1 > /dev/null 2> /dev/null
cmp "$tmp/q-j1.json" "$tmp/q-e3.json"
cmp "$tmp/q-j1.json.integrity.json" "$tmp/q-e3.json.integrity.json"

echo "== crash-resume byte gate (quarter scale, kill mid-run, jobs 1 and 4) =="
# The crash-safety contract end to end, against the real binary: kill a
# checkpointed run after 5 durable unit commits (exit 137), resume it,
# and demand an export, integrity report, and table byte-identical to
# the uninterrupted jobs-1 golden from the previous stage — at both
# worker counts. No torn export may exist after the kill, and the resume
# must restore exactly the 5 committed units.
for jobs in 1 4; do
  ck="$tmp/ck-j$jobs"
  set +e
  ./target/release/repro --scale quarter --seed 11 --jobs "$jobs" \
    --checkpoint-dir "$ck" --kill-after 5 \
    --export "$tmp/crash-j$jobs.json" table1 > /dev/null 2> "$tmp/kill-j$jobs.err"
  status=$?
  set -e
  [ "$status" -eq 137 ] || {
    echo "jobs $jobs: expected kill exit 137, got $status"; exit 1;
  }
  [ ! -e "$tmp/crash-j$jobs.json" ] || {
    echo "jobs $jobs: killed run left an export file"; exit 1;
  }
  ./target/release/repro --scale quarter --seed 11 --jobs "$jobs" \
    --checkpoint-dir "$ck" --resume \
    --export "$tmp/resume-j$jobs.json" table1 \
    > "$tmp/resume-j$jobs.txt" 2> "$tmp/resume-j$jobs.err"
  # The kill leaves exactly 5 durable records at any worker count, so
  # the resume restores exactly 5.
  grep -q "resume: 5 units restored" "$tmp/resume-j$jobs.err" || {
    echo "jobs $jobs: resume did not restore exactly 5 units"; exit 1;
  }
  cmp "$tmp/resume-j$jobs.json" "$tmp/q-j1.json"
  cmp "$tmp/resume-j$jobs.json.integrity.json" "$tmp/q-j1.json.integrity.json"
  cmp "$tmp/resume-j$jobs.txt" "$tmp/q-j1.txt"
done

echo "== smoke crash-resume gates: rail-corridor and a 10^4 fleet (jobs 4) =="
# The same kill -> resume -> cmp loop on paths the quarter gate above
# leaves cold: rail-corridor's scenario session lengths, and the fleet
# sketch each drive unit of a populated run commits. Both go through the
# checkpoint codec: the resume must restore the 5 committed units, not
# just recompute.
smoke_resume_gate() {
  local name=$1
  shift
  ./target/release/repro --scale smoke --seed 11 --jobs 4 "$@" \
    --export "$tmp/$name-cold.json" table1 > "$tmp/$name-cold.txt" 2> /dev/null
  set +e
  ./target/release/repro --scale smoke --seed 11 --jobs 4 "$@" \
    --checkpoint-dir "$tmp/ck-$name" --kill-after 5 \
    --export "$tmp/$name-crash.json" table1 > /dev/null 2> /dev/null
  local status=$?
  set -e
  [ "$status" -eq 137 ] || {
    echo "$name: expected kill exit 137, got $status"; exit 1;
  }
  ./target/release/repro --scale smoke --seed 11 --jobs 4 "$@" \
    --checkpoint-dir "$tmp/ck-$name" --resume \
    --export "$tmp/$name-resume.json" table1 \
    > "$tmp/$name-resume.txt" 2> "$tmp/$name-resume.err"
  grep -q "resume: 5 units restored" "$tmp/$name-resume.err" || {
    echo "$name: resume did not restore exactly the 5 committed units"; exit 1;
  }
  cmp "$tmp/$name-resume.json" "$tmp/$name-cold.json"
  cmp "$tmp/$name-resume.json.integrity.json" "$tmp/$name-cold.json.integrity.json"
  cmp "$tmp/$name-resume.txt" "$tmp/$name-cold.txt"
}
smoke_resume_gate rail --scenario rail-corridor
smoke_resume_gate fleet --population 10000

echo "== fleet gate: population-0 no-op + 10^4-subscriber byte gates =="
# The fleet axis must be a strict no-op when off: --population 0 is
# byte-identical — export and full report — to the same binary without
# the flag (the scenario stage's smoke golden).
./target/release/repro --scale smoke --seed 42 --population 0 \
  --export "$tmp/pop0-42.json" all > "$tmp/pop0-42.txt" 2> /dev/null
cmp "$tmp/direct-42.json" "$tmp/pop0-42.json"
cmp "$tmp/direct-42.txt" "$tmp/pop0-42.txt"
# A 10^4-subscriber quarter-scale fleet must be byte-identical at jobs
# 1 vs 4 — export, integrity report, and the fleet ground-truth section
# — and its timings record must carry the fleet fields (population and
# subscriber_hours_per_s).
./target/release/repro --scale quarter --seed 11 --jobs 1 --population 10000 \
  --export "$tmp/fleet-j1.json" --timings-json "$tmp/fleet-timings.json" \
  ext-fleet table1 > "$tmp/fleet-j1.txt" 2> /dev/null
./target/release/repro --scale quarter --seed 11 --jobs 4 --population 10000 \
  --export "$tmp/fleet-j4.json" ext-fleet table1 \
  > "$tmp/fleet-j4.txt" 2> /dev/null
cmp "$tmp/fleet-j1.json" "$tmp/fleet-j4.json"
cmp "$tmp/fleet-j1.json.integrity.json" "$tmp/fleet-j4.json.integrity.json"
cmp "$tmp/fleet-j1.txt" "$tmp/fleet-j4.txt"
grep -q "population 10000" "$tmp/fleet-j1.txt"
grep -q '"population": 10000' "$tmp/fleet-timings.json"
grep -q '"subscriber_hours_per_s"' "$tmp/fleet-timings.json"

echo "== benchmark: BENCH_<workload>.json (end-to-end, seed 11) =="
# The only timings the repo keeps come from the benchmark (benchmark/,
# declared by BENCHMARK.json): each of its workloads at its run_seconds,
# a warm-up plus repeated runs, with median, [q1, q3] and n per metric.
# Each run writes W.results.json here; the rename to BENCH_W.json stays
# in one directory, so it is atomic. A failed output check exits 1 and
# fails CI.
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
for w in paper-export checkpoint-resume sweep-smoke; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --seed 11 --seconds "$seconds" --trace 0 --out .
  mv "$w.results.json" "BENCH_$w.json"
done

echo "CI OK"
