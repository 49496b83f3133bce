#!/usr/bin/env bash
# Tier-1 gate: check docs links, then configure + build both CMake presets
# (default and ASan/UBSan) and run the tier1-labelled tests under each —
# which includes the obs tests (tests/obs_test.cc) in both builds — plus a
# fault-scenario smoke leg (hogbench scenario_storm under every committed
# scenario, the master crash/restart, partition, oversubscribed-storm and
# trace-replay ones audited; each leg exits 1 if any fault its scenario
# schedules reaches no target, since scenario_storm gates faults_skipped
# at 0),
# every experiment `hogbench --list` names, fast with fail-fast audits
# (the six gated ones exit 1 on a broken contract; the replication
# ablation runs once more on a ToR fabric), the scheduler
# policy-conformance harness, and the compare_bench legs, which check
# every committed BENCH_*.json baseline run by run, exactly: the fast
# sched, repl, scale, topo and soak outputs of that loop, a fast unaudited
# gray run, and bench_micro_core's event-queue sweep; and every example
# program, run from the repo root, each exit code checked. The default
# preset then reruns the 13 paper experiments (Tables I-III, Fig. 4,
# Fig. 5/Table IV, both §IV.D experiences and the six ablations) at full
# default seeds, unaudited, and compares each with its committed
# BENCH_<name>.json (~1 min on 4 cores). A preflight first
# fails the gate if any of those baselines is not tracked by git, and each
# preset fails if a tier-1 ctest name embeds raw parameter bytes wider
# than a scoped enum. This is what a PR must keep green; see ROADMAP.md
# ("tier-1 tests").
#
# Usage: scripts/check.sh [--fast]
#   --fast   default preset only (skip the sanitizer build)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 2)

# The paper's experiments, each pinned by a full-seed BENCH_<name>.json.
paper_experiments="table1 table2 table3 fig4 fig5_table4 exp_zombie_datanodes
  exp_disk_overflow ablation_delay_scheduling ablation_heartbeat
  ablation_multicopy ablation_replication ablation_security
  ablation_site_awareness"

echo "== tracked baselines =="
# Every baseline a compare_bench leg below diffs against must be committed:
# an untracked or ignored baseline passes locally and is missing from a
# fresh checkout.
for baseline in BENCH_sched.json BENCH_repl.json BENCH_scale.json \
                BENCH_topo.json BENCH_soak.json BENCH_gray.json \
                BENCH_core.json; do
  git ls-files --error-unmatch "$baseline" > /dev/null
done
for name in $paper_experiments; do
  git ls-files --error-unmatch "BENCH_$name.json" > /dev/null
done

echo "== docs links =="
scripts/check_docs.sh

run_preset() {
  local preset="$1" dir="$2"
  echo "== [$preset] configure =="
  cmake --preset "$preset"
  echo "== [$preset] build =="
  cmake --build --preset "$preset" -j "$jobs"
  echo "== [$preset] stable test names =="
  # gtest prints a parameter type without a PrintTo as raw bytes
  # ("N-byte object <...>"). Past four bytes such a dump can hold padding
  # or a pointer, which makes the ctest name differ from build to build;
  # a 4-byte dump (a scoped enum) is just its value.
  local names
  names=$(ctest --test-dir "$dir" -N -L tier1)
  if grep -E '([5-9]|[1-9][0-9]+)-byte object' <<< "$names"; then
    echo "tier-1 ctest names embed raw parameter bytes" >&2
    exit 1
  fi
  echo "== [$preset] tier-1 tests =="
  ctest --test-dir "$dir" -L tier1 --output-on-failure -j "$jobs"
  local hogbench="$dir/bench/hogbench"
  echo "== [$preset] scenario smoke =="
  # One fast chaos run through a committed scenario: the parser, the
  # injector, and every layer hook execute end to end, and every scheduled
  # fault must land (faults_skipped = 0).
  "$hogbench" scenario_storm --fast \
    --scenario=scenarios/site_storm.txt --out="$dir/BENCH_scenario_storm.json"
  # The rack-fault grammar end to end: the same fast chaos run through the
  # committed ToR-failure scenario on a multi-rack ToR fabric (fail-tor /
  # partition-rack / degrade-fabric all fire against live racks).
  "$hogbench" scenario_storm --fast --seeds=1 \
    --topology="tor:racks=4;oversub=4" \
    --scenario=scenarios/tor_failure.txt \
    --out="$dir/BENCH_scenario_tor.json"
  # The gray-fault grammar end to end: heartbeat jitter + a stalled disk
  # (nothing dies, the masters must not over-react), then the slow-node
  # storm palette (slow-node / slow-site with restores).
  "$hogbench" scenario_storm --fast --seeds=1 \
    --scenario=scenarios/heartbeat_jitter.txt \
    --out="$dir/BENCH_scenario_jitter.json"
  "$hogbench" scenario_storm --fast --seeds=1 \
    --scenario=scenarios/slow_node_storm.txt \
    --out="$dir/BENCH_scenario_slow.json"
  # The master-restart path end to end: the committed blackout scenario
  # crashes and restarts both masters, and the fail-fast auditor checks
  # each master's re-admission bookkeeping through the outage.
  "$hogbench" scenario_storm --fast --audit \
    --scenario=scenarios/namenode_blackout.txt \
    --out="$dir/BENCH_scenario_blackout.json"
  # The other committed scenarios, audited, so every file in scenarios/
  # runs end to end here rather than only parsing in the tier-1 tests:
  # rolling site partitions, a shuffle storm on an 8:1 oversubscribed
  # ToR fabric, and the OSG preemption-trace replay.
  "$hogbench" scenario_storm --fast --audit \
    --scenario=scenarios/rolling_partition.txt \
    --out="$dir/BENCH_scenario_partition.json"
  "$hogbench" scenario_storm --fast --audit --seeds=1 \
    --topology="tor:racks=4;oversub=8" \
    --scenario=scenarios/oversub_shuffle_storm.txt \
    --out="$dir/BENCH_scenario_oversub.json"
  "$hogbench" scenario_storm --fast --audit \
    --scenario=scenarios/osg_replay.trace \
    --out="$dir/BENCH_scenario_replay.json"
  echo "== [$preset] every experiment (fast, audited) =="
  # Every experiment in hogbench's table, so a new one cannot miss the
  # gate: fast, with the fail-fast auditor armed (any cross-layer
  # inconsistency aborts the run, and under the sanitize preset any memory
  # error surfaces here too). The six gated experiments (soak, sched,
  # scale, repl, topo, gray) exit 1 on a broken contract. The
  # compare_bench legs below check these outputs against the baselines.
  local experiments
  experiments=$("$hogbench" --list | cut -d' ' -f1)
  [ -n "$experiments" ] || { echo "hogbench --list is empty" >&2; exit 1; }
  mkdir -p "$dir/fast"
  for name in $experiments; do
    echo "-- hogbench $name"
    "$hogbench" "$name" --fast --audit \
      --out="$dir/fast/BENCH_$name.json" \
      || { echo "hogbench $name failed" >&2; exit 1; }
  done
  # The replication ablation once more on a multi-rack ToR fabric.
  "$hogbench" ablation_replication --fast --audit \
    --topology="tor:racks=4;oversub=4" \
    --out="$dir/BENCH_ablation_replication_tor.json"
  echo "== [$preset] sched conformance =="
  # The policy-conformance harness, one filtered pass per zoo policy so a
  # failure names the policy in the leg output, plus the FIFO extraction
  # golden and the registry grammar tests (under sanitize this is also
  # the memory-safety pass over every policy's queue bookkeeping).
  for policy in fifo fair capacity atlas; do
    "$dir/tests/hogsim_tests" --gtest_brief=1 \
      --gtest_filter="Policies/SchedConformance.*/$policy"
  done
  "$dir/tests/hogsim_tests" --gtest_brief=1 \
    --gtest_filter="SchedGolden.*:SchedRegistry.*:SchedFair.*:SchedCapacity.*:SchedAtlas.*:SchedBench.*"
  echo "== [$preset] compare_bench against the committed baselines =="
  # Each candidate run must equal the baseline run with the same (config,
  # seed) on every deterministic row; host.* rows are only reported. The
  # fast loop keeps the full runs' labels, specs and seeds, so its runs are
  # a subset of each baseline's, and the runs it skips are only counted.
  for name in sched repl scale topo soak; do
    "$dir/bench/compare_bench" "BENCH_$name.json" "$dir/fast/BENCH_$name.json"
  done
  # The committed gray baseline is unaudited, and the auditor's ticks are
  # executed events on the detection rows, so gray is checked from its own
  # unaudited fast run (noisy jitter palette plus both storm rows).
  "$hogbench" gray --fast --out="$dir/BENCH_gray_fast.json"
  "$dir/bench/compare_bench" BENCH_gray.json "$dir/BENCH_gray_fast.json"
  # The event-queue sweep alone (no benchmark matches '^$'): it writes
  # $dir/BENCH_core.json, whose executed/cancelled/compaction counts must
  # equal the baseline's.
  (cd "$dir" && bench/bench_micro_core --benchmark_filter='^$')
  "$dir/bench/compare_bench" BENCH_core.json "$dir/BENCH_core.json"
  echo "== [$preset] examples =="
  # Every example runs, from the repo root (chaos_drill reads
  # scenarios/site_storm.txt), and must exit 0: the Facebook workload on
  # the dedicated cluster and on a 100-node HOG deployment (the runs
  # hogbench fig4 measures), elastic scaling with the HDFS balancer, and
  # the zombie-datanode drill, which exits 1 when its verdict is NO.
  local example
  for example in quickstart "facebook_workload cluster" \
                 "facebook_workload hog" elastic_scaling chaos_drill \
                 zombie_datanodes; do
    echo "-- example_$example"
    # Unquoted on purpose: "facebook_workload hog" is binary + argument.
    "$dir/examples/example_"$example \
      || { echo "example_$example failed" >&2; exit 1; }
  done
}

run_preset default build
echo "== [default] paper experiments against their baselines =="
# Full default seeds and no auditor, as the baselines were made: every
# deterministic row of every run must equal the committed one.
mkdir -p build/paper
for name in $paper_experiments; do
  echo "-- hogbench $name"
  build/bench/hogbench "$name" --out="build/paper/BENCH_$name.json"
  build/bench/compare_bench "BENCH_$name.json" "build/paper/BENCH_$name.json"
done
if [ "$fast" -eq 0 ]; then
  run_preset sanitize build-sanitize
fi

echo "check.sh: all green"
