#include "src/exp/bench_compare.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/util/spec.h"
#include "src/util/stats.h"

namespace hogsim::exp {

namespace {

// Minimal recursive-descent reader behind ParseJson. Values are doubles
// (numbers / null), strings, arrays, or objects; that is everything our
// writers (ToBenchJson, obs snapshots/traces) ever emit, and enough to
// stay robust against formatting/field-order changes.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void Fail(const char* what) const {
    throw std::runtime_error("BENCH json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail("unexpected character");
    ++pos_;
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = ParseString();
      return v;
    }
    if (Consume("null")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kNumber;
      v.number = std::numeric_limits<double>::quiet_NaN();
      return v;
    }
    if (Consume("true") || Consume("false")) Fail("unexpected boolean");
    return ParseNumber();
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            unsigned code = 0;
            const char* hex = text_.data() + pos_;
            const char* end = text_.data() + std::min(pos_ + 4, text_.size());
            if (end - hex != 4 ||
                std::from_chars(hex, end, code, 16).ptr != end) {
              Fail("\\u escape is not four hex digits");
            }
            pos_ += 4;
            // Control characters only (that is all the writer escapes).
            out += static_cast<char>(code & 0x7f);
            break;
          }
          default: Fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    Expect('"');
    return out;
  }

  JsonValue ParseNumber() {
    SkipSpace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a number");
    const std::optional<double> number =
        hogsim::ParseNumber(text_.substr(start, pos_ - start));
    if (!number) Fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = *number;
    return v;
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') Fail("expected ',' or ']'");
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = ParseString();
      Expect(':');
      v.object.emplace_back(std::move(key), ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

double NumberField(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error("BENCH json: missing numeric field '" +
                             std::string(key) + "'");
  }
  return v->number;
}

std::string StringField(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error("BENCH json: missing string field '" +
                             std::string(key) + "'");
  }
  return v->string;
}

/// The value of `name` in `metrics`; nullopt when absent.
std::optional<double> Find(const Metrics& metrics, std::string_view name) {
  for (const auto& [metric, value] : metrics) {
    if (metric == name) return value;
  }
  return std::nullopt;
}

}  // namespace

JsonValue ParseJson(std::string_view json) { return JsonParser(json).Parse(); }

BenchFile ParseBenchJson(std::string_view json) {
  const JsonValue root = JsonParser(json).Parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("BENCH json: top level is not an object");
  }
  BenchFile file;
  file.name = StringField(root, "name");
  const JsonValue* runs = root.Find("runs");
  if (runs == nullptr || runs->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("BENCH json: missing 'runs' array");
  }
  for (const JsonValue& entry : runs->array) {
    // Runs are keyed by seed, and a double holds integers exactly only up
    // to kMaxSeed.
    const double seed = NumberField(entry, "seed");
    if (!(seed >= 0 && seed <= static_cast<double>(kMaxSeed)) ||
        seed != std::floor(seed)) {
      throw std::runtime_error("BENCH json: a seed is not an integer in "
                               "[0, 2^53]");
    }
    BenchRun run{StringField(entry, "config"),
                 static_cast<std::uint64_t>(seed),
                 {}};
    const JsonValue* metrics = entry.Find("metrics");
    if (metrics == nullptr || metrics->kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("BENCH json: a run has no 'metrics' object");
    }
    for (const auto& [name, value] : metrics->object) {
      if (value.kind != JsonValue::Kind::kNumber) {
        throw std::runtime_error("BENCH json: metric '" + name +
                                 "' is not a number");
      }
      run.metrics.emplace_back(name, value.number);
    }
    file.runs.push_back(std::move(run));
  }
  return file;
}

BenchFile LoadBenchJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseBenchJson(buf.str());
}

BenchComparison CompareBench(const BenchFile& baseline,
                             const BenchFile& candidate) {
  BenchComparison out;
  std::map<std::pair<std::string, std::uint64_t>, const Metrics*> untaken;
  for (const BenchRun& run : baseline.runs) {
    untaken.emplace(std::pair(run.config, run.seed), &run.metrics);
  }
  for (const BenchRun& run : candidate.runs) {
    ++out.candidate_runs;
    const auto it = untaken.find({run.config, run.seed});
    if (it == untaken.end()) {
      out.differences.push_back({run.config, run.seed, "", {}, {}});
      continue;
    }
    const Metrics& base = *it->second;
    untaken.erase(it);
    for (const auto& [metric, value] : base) {
      if (IsHostMetric(metric)) continue;
      ++out.compared_values;
      const std::optional<double> next = Find(run.metrics, metric);
      const bool same =
          next && (value == *next || (std::isnan(value) && std::isnan(*next)));
      if (!same) {
        out.differences.push_back({run.config, run.seed, metric, value, next});
      }
    }
    for (const auto& [metric, value] : run.metrics) {
      if (!IsHostMetric(metric) && !Find(base, metric)) {
        out.differences.push_back(
            {run.config, run.seed, metric, std::nullopt, value});
      }
    }
  }
  out.untaken_runs = untaken.size();
  std::map<std::pair<std::string, std::string>, std::array<RunningStats, 2>>
      host;
  for (const std::size_t side : {0, 1}) {
    for (const BenchRun& run : (side == 0 ? baseline : candidate).runs) {
      for (const auto& [metric, value] : run.metrics) {
        if (!IsHostMetric(metric)) continue;
        RunningStats& stats = host[{run.config, metric}][side];
        if (std::isfinite(value)) stats.Add(value);
      }
    }
  }
  const auto mean = [](const RunningStats& stats) {
    return stats.count() > 0 ? stats.mean()
                             : std::numeric_limits<double>::quiet_NaN();
  };
  for (const auto& [key, stats] : host) {
    out.host.push_back({key.first, key.second, mean(stats[0]), mean(stats[1])});
  }
  return out;
}

}  // namespace hogsim::exp
