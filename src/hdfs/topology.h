// Network-topology resolution: maps a datanode hostname to a failure-domain
// ("rack") string, mirroring Hadoop's topology.script.file.name hook.
//
// The dedicated cluster uses a fixed single rack ("/default-rack", as the
// paper configures its 30 nodes as one rack). HOG replaces the script with
// site awareness: the rack of a worker is derived from the last two labels
// of its DNS name (§III.B.1), so every OSG site forms one failure domain.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "src/util/strings.h"

namespace hogsim::hdfs {

/// Resolves a hostname to a rack path. Executed whenever a new node is
/// discovered by the namenode or the jobtracker.
using TopologyScript = std::function<std::string(std::string_view hostname)>;

/// Stock Hadoop with no script configured: everything on one rack.
inline TopologyScript FlatTopology() {
  return [](std::string_view) { return std::string("/default-rack"); };
}

/// HOG's site-awareness script: rack = "/" + last-two-DNS-labels.
inline TopologyScript SiteAwarenessScript() {
  return [](std::string_view hostname) {
    return "/" + SiteFromHostname(hostname);
  };
}

/// Site component of a rack string: the first path component. Under the
/// star topology a rack string IS the site ("/fnal.gov"); multi-rack
/// topologies append a rack suffix ("/fnal.gov/r3") that this strips.
/// Rack strings refine sites, never cross them — the inverse contract of
/// the rack-suffixing script in HogCluster.
inline std::string_view SiteOfRack(std::string_view rack) {
  if (rack.size() <= 1) return rack;
  const std::size_t slash = rack.find('/', 1);
  return slash == std::string_view::npos ? rack : rack.substr(0, slash);
}

}  // namespace hogsim::hdfs
