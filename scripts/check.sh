#!/usr/bin/env bash
# Tier-1 gate: check docs links, then configure + build both CMake presets
# (default and ASan/UBSan) and run the tier1-labelled tests under each —
# which includes the obs tests (tests/obs_test.cc) in both builds — plus a
# fault-scenario smoke leg (bench_scenario_storm under a committed
# scenario, which also proves the examples compiled), the six ablations
# and both §IV.D experiences fast with fail-fast audits (one also on a
# ToR fabric), the scheduler policy-conformance harness plus the audited
# fast scheduler head-to-head
# (bench_sched) diffed against BENCH_sched.json, the audited fast
# replication ladder (bench_repl) diffed against BENCH_repl.json, the
# audited fast scale grid (bench_scale) diffed against the committed
# BENCH_scale.json baseline via compare_bench, the fast topology zoo
# (bench_topo) diffed against BENCH_topo.json, and the fast gray-failure
# frontier + quarantine storm (bench_gray) diffed against
# BENCH_gray.json. A preflight first fails the gate if any of those
# baselines is not tracked by git, and each preset fails if a tier-1
# ctest name embeds raw parameter bytes wider than a scoped enum. This is
# what a PR must keep green; see ROADMAP.md ("tier-1 tests").
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

echo "== tracked baselines =="
# Every baseline a compare_bench leg below diffs against must be committed:
# an untracked or ignored baseline passes locally and is missing from a
# fresh checkout.
for baseline in BENCH_sched.json BENCH_repl.json BENCH_scale.json \
                BENCH_topo.json BENCH_gray.json; do
  git ls-files --error-unmatch "$baseline" > /dev/null
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
  echo "== [$preset] scenario smoke =="
  # One fast chaos run through a committed scenario: the parser, the
  # injector, and every layer hook execute end to end.
  "$dir/bench/bench_scenario_storm" --fast \
    --scenario=scenarios/site_storm.txt --out="$dir/BENCH_scenario_storm.json"
  # The rack-fault grammar end to end: the same fast chaos run through the
  # committed ToR-failure scenario on a multi-rack ToR fabric (fail-tor /
  # partition-rack / degrade-fabric all fire against live racks).
  "$dir/bench/bench_scenario_storm" --fast --seeds=1 \
    --topology="tor:racks=4;oversub=4" \
    --scenario=scenarios/tor_failure.txt \
    --out="$dir/BENCH_scenario_tor.json"
  # The gray-fault grammar end to end: heartbeat jitter + a stalled disk
  # (nothing dies, the masters must not over-react), then the slow-node
  # storm palette (slow-node / slow-site with restores).
  "$dir/bench/bench_scenario_storm" --fast --seeds=1 \
    --scenario=scenarios/heartbeat_jitter.txt \
    --out="$dir/BENCH_scenario_jitter.json"
  "$dir/bench/bench_scenario_storm" --fast --seeds=1 \
    --scenario=scenarios/slow_node_storm.txt \
    --out="$dir/BENCH_scenario_slow.json"
  echo "== [$preset] chaos soak (fail-fast audits) =="
  # Random-scenario soak with the invariant auditor armed in fail-fast
  # mode: any cross-layer inconsistency chaos shakes loose aborts the run
  # (and, under the sanitize preset, any memory error surfaces here too).
  "$dir/bench/bench_chaos_soak" --fast --audit \
    --out="$dir/BENCH_soak_fast.json"
  echo "== [$preset] ablations + experiences (fast, audited) =="
  # The six ablations and both §IV.D experiences run through exp::HogRun,
  # so the uniform flags reach them: each runs fast with the
  # fail-fast auditor armed, and the replication ablation runs once more
  # on a multi-rack ToR fabric.
  for bench in ablation_delay_scheduling ablation_heartbeat \
               ablation_multicopy ablation_replication ablation_security \
               ablation_site_awareness exp_disk_overflow \
               exp_zombie_datanodes; do
    "$dir/bench/bench_$bench" --fast --audit \
      --out="$dir/BENCH_${bench}_audit.json"
  done
  "$dir/bench/bench_ablation_replication" --fast --audit \
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
  echo "== [$preset] sched head-to-head (fast, audited) =="
  # FIFO / Fair / ATLAS under the fixed chaos palette with fail-fast
  # audits; rows are deterministic, so the next leg diffs them against
  # the committed baseline.
  "$dir/bench/bench_sched" --fast --audit \
    --out="$dir/BENCH_sched_fast.json"
  echo "== [$preset] compare_bench against BENCH_sched.json =="
  # The fast run keeps the full-run labels/specs/seeds for its three
  # policies; the baseline's capacity rows count as missing-in-candidate,
  # which is not a regression.
  "$dir/bench/compare_bench" BENCH_sched.json "$dir/BENCH_sched_fast.json" \
    --tol=0.01
  echo "== [$preset] replication ladder (fast, audited) =="
  # Flat RF=10 vs the availability-targeted controller under the soak
  # palette with fail-fast audits; the bench itself gates zero violations,
  # zero lost committed outputs, and adaptive storing fewer bytes than
  # rf10. Rows are deterministic, so the next leg diffs them against the
  # committed baseline (the full ladder's rf3/rf5/adaptive9999 rows count
  # as missing-in-candidate, which is not a regression).
  "$dir/bench/bench_repl" --fast --audit \
    --out="$dir/BENCH_repl_fast.json"
  echo "== [$preset] compare_bench against BENCH_repl.json =="
  "$dir/bench/compare_bench" BENCH_repl.json "$dir/BENCH_repl_fast.json" \
    --tol=0.01
  echo "== [$preset] scale grid (fast, audited) =="
  # The CI-sized nodes x jobs points with the fail-fast auditor armed.
  # --no-host-metrics keeps only the deterministic rows, so the next leg
  # can diff them against the committed baseline on any machine.
  "$dir/bench/bench_scale" --fast --no-host-metrics \
    --out="$dir/BENCH_scale_fast.json"
  echo "== [$preset] compare_bench against BENCH_scale.json =="
  # Byte-stable rows (executed_events, jobs_succeeded, audit_violations,
  # ...) must match the committed baseline; the baseline's host-only rows
  # (wall_s, peak_rss_mib, events_per_sec) count as missing-in-candidate,
  # which is not a regression. The tolerance only pads rounding in the
  # JSON serialization — the compared rows are deterministic.
  "$dir/bench/compare_bench" BENCH_scale.json "$dir/BENCH_scale_fast.json" \
    --tol=0.01
  echo "== [$preset] topology zoo (fast, audited) =="
  # Star vs the oversubscribed ToR tier on the shuffle and drain
  # workloads, cross-layer auditor armed; the bench itself gates zero
  # violations, zero lost outputs, and the fabric claims (tor16 strictly
  # slower than star per seed). Rows are deterministic and host-metric
  # free, so the next leg diffs them against the committed baseline (the
  # full zoo's sweep rows count as missing-in-candidate).
  "$dir/bench/bench_topo" --fast --no-host-metrics --audit \
    --out="$dir/BENCH_topo_fast.json"
  echo "== [$preset] compare_bench against BENCH_topo.json =="
  "$dir/bench/compare_bench" BENCH_topo.json "$dir/BENCH_topo_fast.json" \
    --tol=0.01
  echo "== [$preset] gray-failure frontier + quarantine storm (fast) =="
  # The detector frontier under the noisy jitter palette plus both storm
  # rows; the bench itself gates phi's frontier position (zero false
  # suspicions, not dominated by any fixed deadline, strictly dominating
  # at least one) and the quarantine goodput win. Rows are deterministic,
  # so the next leg diffs them against the committed baseline (the full
  # run's calm-palette rows count as missing-in-candidate).
  "$dir/bench/bench_gray" --fast \
    --out="$dir/BENCH_gray_fast.json"
  echo "== [$preset] compare_bench against BENCH_gray.json =="
  "$dir/bench/compare_bench" BENCH_gray.json "$dir/BENCH_gray_fast.json" \
    --tol=0.01
  echo "== [$preset] examples present =="
  # The example binaries are part of the build graph; a missing one means
  # a source file was dropped without updating the examples.
  for example in quickstart facebook_workload elastic_scaling chaos_drill \
                 zombie_datanodes; do
    test -x "$dir/examples/example_$example" \
      || { echo "missing example_$example" >&2; exit 1; }
  done
}

run_preset default build
if [ "$fast" -eq 0 ]; then
  run_preset sanitize build-sanitize
fi

echo "check.sh: all green"
