// The one spec grammar of hogsim's plug-in registries: the scheduler
// (sched::CreatePolicy), the intra-site topology (net::topo::CreateTopology)
// and the failure detector (health::CreateDetector) all name an
// implementation and its parameters as
//
//   NAME[:SEG;SEG;...]   SEG is KEY=VALUE, or a bare VALUE that extends
//                        the previous key's list
//
// so "capacity:queues=prod:0.7:1;adhoc:0.3:1" gives `queues` two values.
// A key appears once. An empty name, empty params after ':', an empty
// segment, a segment without a key and a bare value before any key are
// rejected. Typed reads consume keys and Finish() rejects any key nothing
// read, so a malformed or misspelt parameter fails up front instead of
// running with a default. Every error is a std::invalid_argument that
// quotes the spec and names the offending key or segment.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hogsim {

/// `text` as a number if it is one whole finite decimal token, as
/// std::from_chars reads it: no leading blank or '+', nothing trailing,
/// no hex, inf or nan.
std::optional<double> ParseNumber(std::string_view text);

/// `text` as an integer if it is one whole base-10 token, under the same
/// rule ("2.9", "5abc" and out-of-range values are not).
std::optional<std::int64_t> ParseInteger(std::string_view text);

class Spec {
 public:
  /// Parses `text`; throws std::invalid_argument on a grammar error.
  explicit Spec(std::string_view text);

  const std::string& name() const { return name_; }

  /// Reads and consumes a one-value key; `def` when the key is absent.
  /// Throws when the key holds a list, its value is not a number (Int:
  /// not a base-10 integer), or the value is outside [min, max].
  double Number(std::string_view key, double def,
                double min = std::numeric_limits<double>::lowest(),
                double max = std::numeric_limits<double>::max());
  int Int(std::string_view key, int def,
          int min = std::numeric_limits<int>::min(),
          int max = std::numeric_limits<int>::max());
  /// Reads and consumes a key's values in spec order; empty when absent.
  std::vector<std::string> List(std::string_view key);

  /// Throws naming the first key, in spec order, that no read consumed.
  void Finish() const;

  /// Throws std::invalid_argument: "spec '<text>': " followed by `parts`.
  [[noreturn]] void Fail(std::initializer_list<std::string_view> parts) const;
  /// Throws "unknown <kind> '<name>' (have: ...)", listing `names`.
  [[noreturn]] void FailUnknownName(
      std::string_view kind, const std::vector<std::string>& names) const;

 private:
  struct Param {
    std::string key;
    std::vector<std::string> values;
    bool read = false;
  };

  /// Consumes `key` and returns its one value; nullopt when absent.
  std::optional<std::string> Scalar(std::string_view key);
  [[noreturn]] void FailRange(std::string_view key, const std::string& value,
                              double min, double max) const;

  std::string text_;
  std::string name_;
  std::vector<Param> params_;
};

}  // namespace hogsim
