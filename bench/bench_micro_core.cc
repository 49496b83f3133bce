// Microbenchmarks (google-benchmark) for the simulation substrate: event
// queue throughput, heartbeat fan-in, flow-network churn, disk fair queue,
// and namenode placement. These bound how large a HOG experiment the
// simulator can run per wall-clock second.
//
// After the google-benchmark suite, an exp::Sweep of the core event-queue
// scenarios (schedule+fire, cancel-heavy, heartbeat cancel/re-arm) runs
// across seeds and writes BENCH_core.json, whose event counts check.sh
// holds equal to the committed baseline (--benchmark_filter='^$' runs the
// sweep alone).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/exp/sweep.h"
#include "src/hdfs/datanode.h"
#include "src/hdfs/namenode.h"
#include "src/hdfs/placement.h"
#include "src/hdfs/topology.h"
#include "src/health/liveness.h"
#include "src/net/flow_network.h"
#include "src/sim/simulation.h"
#include "src/storage/disk.h"
#include "src/util/rng.h"

namespace hogsim {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    Rng rng(1);
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAt(rng.UniformInt(0, 1'000'000), [] {});
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      handles.push_back(sim.ScheduleAt(i, [] {}));
    }
    for (int i = 0; i < n; i += 2) {
      sim.Cancel(handles[static_cast<std::size_t>(i)]);
    }
    sim.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(65536);

void BM_EventQueueCancelReArm(benchmark::State& state) {
  // Heartbeat-timeout pattern: cancel the pending expiry and re-arm it far
  // in the future, every 30 s of simulated time. Exercises slot reuse and
  // heap compaction; the old queue grew linearly with simulated time here.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::EventHandle timeout;
    for (int i = 0; i < n; ++i) {
      sim.Cancel(timeout);
      timeout = sim.ScheduleAfter(10 * kMinute, [] {});
      sim.RunUntil(sim.now() + 30 * kSecond);
    }
    benchmark::DoNotOptimize(sim.queued());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelReArm)->Arg(65536);

void BM_HeartbeatFanIn(benchmark::State& state) {
  // The event mix of a large spin-up: n daemons, started staggered across
  // one period, each heartbeat every 3 s through health::SendHeartbeat at
  // a fixed 40 ms latency, for 10 simulated minutes. Items are executed
  // events (ticks plus deliveries).
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr SimDuration kPeriod = 3 * kSecond;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t received = 0;
    std::vector<std::uint64_t> seqs(n, 0);
    std::vector<sim::PeriodicTimer> timers(n);
    for (std::size_t i = 0; i < n; ++i) {
      sim.RunUntil(static_cast<SimTime>(i) * kPeriod /
                   static_cast<SimTime>(n));
      timers[i].Start(sim, kPeriod, [&sim, &received, &seq = seqs[i], i] {
        health::SendHeartbeat(sim, 40 * kMillisecond, i, ++seq, 0,
                              [&received] { ++received; });
      });
    }
    sim.RunUntil(10 * kMinute);
    benchmark::DoNotOptimize(received);
    events += sim.executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_HeartbeatFanIn)->Arg(1000)->Arg(10000);

void RunFlowChurn(int sites, int nodes_per_site, int flows) {
  sim::Simulation sim;
  net::FlowNetwork net(sim);
  Rng rng(7);
  std::vector<net::NodeId> nodes;
  for (int s = 0; s < sites; ++s) {
    const net::SiteId site = net.AddSite(Gbps(2));
    for (int n = 0; n < nodes_per_site; ++n) {
      nodes.push_back(net.AddNode(site, Gbps(1)));
    }
  }
  for (int f = 0; f < flows; ++f) {
    const auto src = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1));
    }
    sim.ScheduleAt(rng.UniformInt(0, 10 * kSecond), [&, src, dst] {
      net.StartFlow(nodes[src], nodes[dst], 16 * kMiB, [](bool) {});
    });
  }
  sim.RunAll();
}

void BM_FlowNetworkEvenShare(benchmark::State& state) {
  for (auto _ : state) {
    RunFlowChurn(5, 40, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowNetworkEvenShare)->Arg(512)->Arg(4096);

// The glidein spin-up shape that the 200-node spread above never builds:
// n nodes arriving 10 ms apart each download the 75 MiB worker package
// from one 1 Gbps NIC, so up to n flows share that link and every arrival
// or finish re-rates all of them.
void BM_FlowNetworkHotLink(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    net::FlowNetwork net(sim);
    const net::SiteId site = net.AddSite(Gbps(10));
    const net::NodeId master = net.AddNode(site, Gbps(1));
    for (int i = 0; i < n; ++i) {
      const net::NodeId dst = net.AddNode(site, Gbps(1));
      sim.ScheduleAt(i * 10 * kMillisecond, [&net, master, dst] {
        net.StartFlow(master, dst, 75 * kMiB, [](bool) {});
      });
    }
    sim.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowNetworkHotLink)->Arg(1000)->Arg(4000);

void BM_DiskFairQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    storage::Disk disk(sim, kTiB, MiBps(100));
    Rng rng(3);
    for (int i = 0; i < state.range(0); ++i) {
      sim.ScheduleAt(rng.UniformInt(0, kSecond), [&] {
        disk.Read(4 * kMiB, [] {});
      });
    }
    sim.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiskFairQueue)->Arg(256)->Arg(2048)->Arg(16384);

struct PlacementFixture {
  sim::Simulation sim;
  net::FlowNetwork net{sim};
  std::unique_ptr<hdfs::Namenode> nn;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::vector<std::unique_ptr<hdfs::Datanode>> daemons;

  explicit PlacementFixture(int sites, int per_site, bool site_aware) {
    const net::NodeId master = net.AddNode(net.AddSite(Gbps(10)), Gbps(1));
    hdfs::HdfsConfig config;
    config.default_replication = 10;
    nn = std::make_unique<hdfs::Namenode>(
        sim, net, master, hdfs::SiteAwarenessScript(),
        site_aware ? hdfs::MakeSiteAwarePlacement()
                   : hdfs::MakeDefaultPlacement(),
        Rng(5), config);
    nn->Start();
    for (int s = 0; s < sites; ++s) {
      const net::SiteId site = net.AddSite(Gbps(2));
      for (int n = 0; n < per_site; ++n) {
        disks.push_back(
            std::make_unique<storage::Disk>(sim, kTiB, MiBps(60)));
        daemons.push_back(std::make_unique<hdfs::Datanode>(
            sim, net, *nn, "w" + std::to_string(n) + ".s" +
                              std::to_string(s) + ".edu",
            net.AddNode(site, Gbps(1)), *disks.back()));
        daemons.back()->Start();
      }
    }
  }
};

void BM_NamenodeSiteAwarePlacement(benchmark::State& state) {
  PlacementFixture fx(5, static_cast<int>(state.range(0)) / 5, true);
  int i = 0;
  for (auto _ : state) {
    fx.nn->ImportFile("f" + std::to_string(i++), 64 * kMiB);
  }
  state.SetItemsProcessed(state.iterations() * 10);  // replicas placed
}
BENCHMARK(BM_NamenodeSiteAwarePlacement)->Arg(100)->Arg(1000);

void BM_NamenodeBlockLocations(benchmark::State& state) {
  PlacementFixture fx(5, 40, true);
  const auto file = fx.nn->ImportFile("f", 64 * 64 * kMiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.nn->GetFileBlocks(file));
  }
}
BENCHMARK(BM_NamenodeBlockLocations);

// --- the event-queue sweep behind BENCH_core.json ---

exp::Metrics CoreSweepRun(std::size_t config, std::uint64_t seed) {
  constexpr int kEvents = 200'000;
  sim::Simulation sim;
  Rng rng(seed);
  std::size_t peak_queued = 0;
  const auto start = std::chrono::steady_clock::now();
  switch (config) {
    case 0:  // schedule + fire
      for (int i = 0; i < kEvents; ++i) {
        sim.ScheduleAt(rng.UniformInt(0, 1'000'000), [] {});
      }
      sim.RunAll();
      break;
    case 1: {  // schedule, cancel half, fire the rest
      std::vector<sim::EventHandle> handles;
      handles.reserve(kEvents);
      for (int i = 0; i < kEvents; ++i) {
        handles.push_back(sim.ScheduleAt(rng.UniformInt(0, 1'000'000), [] {}));
      }
      for (int i = 0; i < kEvents; i += 2) {
        sim.Cancel(handles[static_cast<std::size_t>(i)]);
      }
      sim.RunAll();
      break;
    }
    default: {  // heartbeat cancel/re-arm loop
      sim::EventHandle timeout;
      for (int i = 0; i < kEvents / 4; ++i) {
        sim.Cancel(timeout);
        timeout = sim.ScheduleAfter(10 * kMinute, [] {});
        sim.RunUntil(sim.now() + 30 * kSecond);
        peak_queued = std::max(peak_queued, sim.queued());
      }
      break;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double ops =
      static_cast<double>(sim.executed() + sim.cancelled()) +
      static_cast<double>(config == 2 ? kEvents / 4 : kEvents);
  return {{"host.wall_s", wall_s},
          {"host.ops_per_sec", wall_s > 0 ? ops / wall_s : 0.0},
          {"executed", static_cast<double>(sim.executed())},
          {"cancelled", static_cast<double>(sim.cancelled())},
          {"compactions", static_cast<double>(sim.compactions())},
          {"peak_queued", static_cast<double>(peak_queued)}};
}

/// Runs the sweep and writes BENCH_core.json; false when it cannot be
/// written.
bool WriteCoreBaseline() {
  exp::SweepSpec spec;
  spec.name = "core";
  spec.seeds = {1, 2, 3, 4, 5};
  spec.configs = 3;
  spec.config_labels = {"schedule_fire", "cancel_heavy", "cancel_rearm"};
  const exp::SweepResult result = exp::RunSweep(spec, CoreSweepRun);
  std::ofstream out("BENCH_core.json", std::ios::trunc);
  out << exp::ToBenchJson(spec, result);
  if (!out.flush()) {
    std::fprintf(stderr, "bench_micro_core: cannot write BENCH_core.json\n");
    return false;
  }
  std::printf("\nBENCH_core.json: %zu runs (%zu configs x %zu seeds)\n",
              result.runs.size(), spec.configs, spec.seeds.size());
  for (std::size_t c = 0; c < result.summaries.size(); ++c) {
    for (const exp::MetricSummary& m : result.summaries[c]) {
      if (m.name != "host.ops_per_sec") continue;
      std::printf("  %-13s ops/sec mean %.3g (min %.3g, max %.3g)\n",
                  spec.config_labels[c].c_str(), m.stats.mean(),
                  m.stats.min(), m.stats.max());
    }
  }
  return true;
}

}  // namespace
}  // namespace hogsim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return hogsim::WriteCoreBaseline() ? 0 : 1;
}
