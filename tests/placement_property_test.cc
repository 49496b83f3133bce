// Property sweeps over the block-placement policies: invariants that must
// hold for every (replication, topology, seed) combination.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "tests/test_cluster.h"

namespace hogsim::hdfs {
namespace {

struct PlacementCase {
  int sites;
  int per_site;
  int replication;
  bool site_aware;
  int seed;
};

// Without these, gtest names and prints the raw struct bytes — padding
// included, which made the test names differ between builds.
void PrintTo(const PlacementCase& c, std::ostream* os) {
  *os << c.sites << "x" << c.per_site << " rf" << c.replication
      << (c.site_aware ? " site-aware" : " default") << " seed" << c.seed;
}

std::string PlacementCaseName(
    const ::testing::TestParamInfo<PlacementCase>& info) {
  const PlacementCase& c = info.param;
  return "s" + std::to_string(c.sites) + "x" + std::to_string(c.per_site) +
         "_rf" + std::to_string(c.replication) +
         (c.site_aware ? "_aware" : "_default") + "_seed" +
         std::to_string(c.seed);
}

// `sites` sites of `per_site` datanodes under the site-awareness script,
// with site-aware or default placement.
TestCluster PlacementCluster(int sites, int per_site, int replication,
                             bool site_aware, int seed) {
  HdfsConfig config;
  config.default_replication = replication;
  return TestCluster(
      {.placement = site_aware ? MakeSiteAwarePlacement : MakeDefaultPlacement,
       .seed = static_cast<std::uint64_t>(seed),
       .hdfs = config,
       .disk = 10 * kGiB,
       .disk_rate = MiBps(60)},
      [&](TestCluster& c) {
        c.AddSites(sites, per_site, Gbps(2), GridHost("n", "s"));
      });
}

class PlacementProperty : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(PlacementProperty, Invariants) {
  const PlacementCase c = GetParam();
  TestCluster h = PlacementCluster(c.sites, c.per_site, c.replication,
                                   c.site_aware, c.seed);

  const int total_nodes = c.sites * c.per_site;
  for (int i = 0; i < 12; ++i) {
    const FileId file = h.nn().ImportFile("f" + std::to_string(i), 64 * kMiB);
    const BlockLocation loc = h.nn().GetFileBlocks(file)[0];

    // Invariant 1: replica count = min(replication, cluster size).
    EXPECT_EQ(static_cast<int>(loc.datanodes.size()),
              std::min(c.replication, total_nodes));

    // Invariant 2: replicas live on distinct nodes.
    const std::set<DatanodeId> unique(loc.datanodes.begin(),
                                      loc.datanodes.end());
    EXPECT_EQ(unique.size(), loc.datanodes.size());

    // Invariant 3: site-aware placement covers min(sites, replicas)
    // distinct failure domains — the multi-institution guarantee.
    std::set<std::string> racks(loc.racks.begin(), loc.racks.end());
    if (c.site_aware) {
      EXPECT_EQ(static_cast<int>(racks.size()),
                std::min(c.sites, static_cast<int>(loc.datanodes.size())));
    } else if (c.replication >= 2 && c.sites >= 2) {
      // Default policy: at least two racks once there are two replicas.
      EXPECT_GE(racks.size(), 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementProperty,
    ::testing::Values(PlacementCase{5, 4, 10, true, 1},
                      PlacementCase{5, 4, 10, true, 2},
                      PlacementCase{5, 4, 3, true, 3},
                      PlacementCase{3, 2, 10, true, 4},   // rep > per-site
                      PlacementCase{2, 1, 5, true, 5},    // rep > nodes
                      PlacementCase{5, 4, 3, false, 6},
                      PlacementCase{5, 4, 10, false, 7},
                      PlacementCase{4, 6, 2, true, 8},
                      PlacementCase{1, 8, 3, true, 9},    // single site
                      PlacementCase{6, 3, 6, true, 10}),
    PlacementCaseName);

// Writer-locality property: when the writing client is a datanode with
// room, the first replica lands on it (both policies).
class WriterLocality : public ::testing::TestWithParam<bool> {};

TEST_P(WriterLocality, FirstReplicaIsWriterLocal) {
  const bool site_aware = GetParam();
  TestCluster h = PlacementCluster(3, 3, 3, site_aware, 11);
  const FileId file = h.nn().CreateFile("f", 3);
  for (DatanodeId writer = 0; writer < 9; ++writer) {
    const BlockId block = h.nn().AllocateBlock(file, 64 * kMiB);
    const auto targets = h.nn().ChooseTargets(3, writer, {}, 64 * kMiB);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets.front(), writer);
    h.nn().AbandonBlock(block);
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, WriterLocality, ::testing::Bool());

}  // namespace
}  // namespace hogsim::hdfs
