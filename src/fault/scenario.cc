#include "src/fault/scenario.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/spec.h"
#include "src/util/strings.h"

namespace hogsim::fault {

namespace {

/// One whitespace-delimited token with its 1-based source column.
struct Token {
  std::string_view text;
  int column = 0;
};

/// Splits a line into tokens, dropping everything from `#` on.
std::vector<Token> Tokenize(std::string_view line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '#') {
      ++i;
    }
    out.push_back({line.substr(start, i - start),
                   static_cast<int>(start) + 1});
  }
  return out;
}

struct Cursor {
  std::string_view source;
  int line = 0;
  const std::vector<Token>* tokens = nullptr;
  std::size_t next = 0;

  [[noreturn]] void Fail(int column, const std::string& message) const {
    throw ScenarioError(source, line, column, message);
  }

  /// Column just past the last token — where a missing operand would go.
  int EndColumn() const {
    if (tokens->empty()) return 1;
    const Token& last = tokens->back();
    return last.column + static_cast<int>(last.text.size());
  }

  const Token& Take(std::string_view what) {
    if (next >= tokens->size()) {
      Fail(EndColumn(), "missing " + std::string(what));
    }
    return (*tokens)[next++];
  }

  bool Done() const { return next >= tokens->size(); }

  void ExpectDone() const {
    if (!Done()) {
      const Token& extra = (*tokens)[next];
      Fail(extra.column,
           "unexpected trailing operand '" + std::string(extra.text) + "'");
    }
  }
};

double ParseNumber(Cursor& cur, const Token& tok, std::string_view what) {
  const std::optional<double> value = hogsim::ParseNumber(tok.text);
  if (!value) {
    cur.Fail(tok.column, "bad " + std::string(what) + " '" +
                             std::string(tok.text) + "'");
  }
  return *value;
}

/// `<number><unit>` with unit us/ms/s/m/h; bare numbers are seconds.
SimDuration ParseTicks(Cursor& cur, const Token& tok, std::string_view what) {
  std::string_view text = tok.text;
  SimDuration unit = kSecond;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    unit = kMicrosecond;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    unit = kMillisecond;
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    text.remove_suffix(1);
  } else if (!text.empty() && text.back() == 'm') {
    unit = kMinute;
    text.remove_suffix(1);
  } else if (!text.empty() && text.back() == 'h') {
    unit = kHour;
    text.remove_suffix(1);
  }
  const std::optional<double> value = hogsim::ParseNumber(text);
  if (!value || *value < 0) {
    cur.Fail(tok.column, "bad " + std::string(what) + " '" +
                             std::string(tok.text) + "' (want <number>[" +
                             "us|ms|s|m|h])");
  }
  return static_cast<SimDuration>(
      std::llround(*value * static_cast<double>(unit)));
}

int ParseSite(Cursor& cur, const Token& tok, bool allow_all) {
  if (allow_all && tok.text == "all") return kAllSites;
  double value = ParseNumber(cur, tok, "site index");
  if (value < 0 || value != std::floor(value) || value > 1e6) {
    cur.Fail(tok.column,
             "bad site index '" + std::string(tok.text) + "'" +
                 (allow_all ? " (want a non-negative integer or 'all')"
                            : " (want a non-negative integer)"));
  }
  return static_cast<int>(value);
}

double ParseCount(Cursor& cur, const Token& tok) {
  const double value = ParseNumber(cur, tok, "node count");
  if (value < 1 || value != std::floor(value)) {
    cur.Fail(tok.column, "bad node count '" + std::string(tok.text) +
                             "' (want an integer >= 1)");
  }
  return value;
}

double ParseFraction(Cursor& cur, const Token& tok) {
  const double value = ParseNumber(cur, tok, "fraction");
  if (value < 0 || value > 1) {
    cur.Fail(tok.column, "bad fraction '" + std::string(tok.text) +
                             "' (want a value in [0, 1])");
  }
  return value;
}

double ParseFactor(Cursor& cur, const Token& tok) {
  const double value = ParseNumber(cur, tok, "factor");
  if (value <= 0) {
    cur.Fail(tok.column,
             "bad factor '" + std::string(tok.text) + "' (want > 0)");
  }
  return value;
}

int ParseRack(Cursor& cur, const Token& tok) {
  const double value = ParseNumber(cur, tok, "rack index");
  if (value < 0 || value != std::floor(value) || value > 1e6) {
    cur.Fail(tok.column, "bad rack index '" + std::string(tok.text) +
                             "' (want a non-negative integer)");
  }
  return static_cast<int>(value);
}

int ParseNode(Cursor& cur, const Token& tok) {
  const double value = ParseNumber(cur, tok, "node index");
  if (value < 0 || value != std::floor(value) || value > 1e9) {
    cur.Fail(tok.column, "bad node index '" + std::string(tok.text) +
                             "' (want a non-negative integer)");
  }
  return static_cast<int>(value);
}

SimDuration ParsePositiveTicks(Cursor& cur, const Token& tok,
                               std::string_view what) {
  const SimDuration d = ParseTicks(cur, tok, what);
  if (d <= 0) {
    cur.Fail(tok.column,
             std::string(what) + " must be > 0: '" + std::string(tok.text) +
                 "'");
  }
  return d;
}

/// Parses `<action> <args...>` — everything after the schedule prefix.
Action ParseAction(Cursor& cur) {
  const Token& name = cur.Take("action");
  Action action;
  if (name.text == "preempt-nodes" || name.text == "zombify") {
    action.kind = name.text == "zombify" ? ActionKind::kZombify
                                         : ActionKind::kPreemptNodes;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseCount(cur, cur.Take("node count"));
  } else if (name.text == "preempt-site") {
    action.kind = ActionKind::kPreemptSite;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseFraction(cur, cur.Take("fraction"));
  } else if (name.text == "freeze-acquisition") {
    action.kind = ActionKind::kFreezeAcquisition;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                         "duration");
  } else if (name.text == "throttle-acquisition") {
    action.kind = ActionKind::kThrottleAcquisition;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseFactor(cur, cur.Take("factor"));
  } else if (name.text == "degrade-uplink") {
    action.kind = ActionKind::kDegradeUplink;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseFactor(cur, cur.Take("factor"));
    if (!cur.Done()) {
      action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                           "duration");
    }
  } else if (name.text == "partition") {
    action.kind = ActionKind::kPartition;
    const Token& a = cur.Take("site");
    action.site = ParseSite(cur, a, /*allow_all=*/false);
    const Token& b = cur.Take("peer site");
    action.site_b = ParseSite(cur, b, /*allow_all=*/false);
    if (action.site_b == action.site) {
      cur.Fail(b.column, "partition needs two distinct sites");
    }
    action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                         "duration");
  } else if (name.text == "shrink-disks") {
    action.kind = ActionKind::kShrinkDisks;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseFactor(cur, cur.Take("factor"));
  } else if (name.text == "fill-disks") {
    action.kind = ActionKind::kFillDisks;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    const Token& frac = cur.Take("fraction");
    action.value = ParseFraction(cur, frac);
    if (action.value <= 0) {
      cur.Fail(frac.column, "fill-disks fraction must be > 0");
    }
  } else if (name.text == "fail-tor" || name.text == "partition-rack") {
    action.kind = name.text == "fail-tor" ? ActionKind::kFailTor
                                          : ActionKind::kPartitionRack;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.rack = ParseRack(cur, cur.Take("rack"));
    action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                         "duration");
  } else if (name.text == "degrade-fabric") {
    action.kind = ActionKind::kDegradeFabric;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseFactor(cur, cur.Take("factor"));
    if (!cur.Done()) {
      action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                           "duration");
    }
  } else if (name.text == "slow-node") {
    action.kind = ActionKind::kSlowNode;
    action.node = ParseNode(cur, cur.Take("node"));
    action.value = ParseFactor(cur, cur.Take("factor"));
    if (!cur.Done()) {
      action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                           "duration");
    }
  } else if (name.text == "slow-site") {
    action.kind = ActionKind::kSlowSite;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.value = ParseFactor(cur, cur.Take("factor"));
    if (!cur.Done()) {
      action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                           "duration");
    }
  } else if (name.text == "delay-heartbeats") {
    action.kind = ActionKind::kDelayHeartbeats;
    action.site = ParseSite(cur, cur.Take("site"), /*allow_all=*/true);
    action.jitter = ParsePositiveTicks(cur, cur.Take("jitter"), "jitter");
    if (!cur.Done()) {
      action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                           "duration");
    }
  } else if (name.text == "stall-disk") {
    action.kind = ActionKind::kStallDisk;
    action.node = ParseNode(cur, cur.Take("node"));
    action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                         "duration");
  } else if (name.text == "namenode-blackout" ||
             name.text == "jobtracker-blackout") {
    action.kind = name.text == "namenode-blackout"
                      ? ActionKind::kNamenodeBlackout
                      : ActionKind::kJobtrackerBlackout;
    action.duration = ParsePositiveTicks(cur, cur.Take("duration"),
                                         "duration");
  } else {
    cur.Fail(name.column,
             "unknown action '" + std::string(name.text) + "'");
  }
  cur.ExpectDone();
  return action;
}

/// Canonical rendering of a tick count: the largest of s/ms/us that
/// divides it exactly (so ParseTicks reads it back bit-identically).
std::string FormatTicks(SimDuration t) {
  const char* unit = "us";
  SimDuration div = kMicrosecond;
  if (t % kSecond == 0) {
    unit = "s";
    div = kSecond;
  } else if (t % kMillisecond == 0) {
    unit = "ms";
    div = kMillisecond;
  }
  return std::to_string(t / div) + unit;
}

/// Shortest round-trip rendering of a fraction/factor operand.
std::string FormatValue(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::to_string(v);
}

std::string FormatSite(int site) {
  return site == kAllSites ? "all" : std::to_string(site);
}

}  // namespace

std::string_view ActionName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kPreemptNodes: return "preempt-nodes";
    case ActionKind::kPreemptSite: return "preempt-site";
    case ActionKind::kZombify: return "zombify";
    case ActionKind::kFreezeAcquisition: return "freeze-acquisition";
    case ActionKind::kThrottleAcquisition: return "throttle-acquisition";
    case ActionKind::kDegradeUplink: return "degrade-uplink";
    case ActionKind::kPartition: return "partition";
    case ActionKind::kShrinkDisks: return "shrink-disks";
    case ActionKind::kFillDisks: return "fill-disks";
    case ActionKind::kNamenodeBlackout: return "namenode-blackout";
    case ActionKind::kJobtrackerBlackout: return "jobtracker-blackout";
    case ActionKind::kFailTor: return "fail-tor";
    case ActionKind::kPartitionRack: return "partition-rack";
    case ActionKind::kDegradeFabric: return "degrade-fabric";
    case ActionKind::kSlowNode: return "slow-node";
    case ActionKind::kSlowSite: return "slow-site";
    case ActionKind::kDelayHeartbeats: return "delay-heartbeats";
    case ActionKind::kStallDisk: return "stall-disk";
  }
  return "?";
}

ScenarioError::ScenarioError(std::string_view source, int line, int column,
                             const std::string& message)
    : std::runtime_error(std::string(source) + ":" + std::to_string(line) +
                         ":" + std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

Scenario ParseScenario(std::string_view text, std::string_view source) {
  Scenario scenario;
  scenario.name = std::string(source);
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    const std::vector<Token> tokens = Tokenize(raw);
    if (tokens.empty()) continue;
    Cursor cur{source, line_no, &tokens, 0};

    TimedAction timed;
    timed.line = line_no;
    const Token& head = cur.Take("directive");
    if (head.text == "at") {
      timed.at = ParseTicks(cur, cur.Take("time"), "time");
    } else if (head.text == "every") {
      timed.period = ParsePositiveTicks(cur, cur.Take("period"), "period");
      timed.at = timed.period;  // first firing after one full period
      if (cur.next < tokens.size() && tokens[cur.next].text == "until") {
        ++cur.next;
        const Token& until = cur.Take("until time");
        timed.until = ParseTicks(cur, until, "until time");
        if (timed.until < timed.at) {
          cur.Fail(until.column, "'until' precedes the first firing");
        }
      }
    } else {
      cur.Fail(head.column, "expected 'at' or 'every', got '" +
                                std::string(head.text) + "'");
    }
    timed.action = ParseAction(cur);
    scenario.actions.push_back(timed);
  }
  return scenario;
}

std::string FormatScenario(const Scenario& scenario) {
  std::ostringstream out;
  for (const TimedAction& timed : scenario.actions) {
    if (timed.period > 0) {
      out << "every " << FormatTicks(timed.period);
      if (timed.until > 0) out << " until " << FormatTicks(timed.until);
    } else {
      out << "at " << FormatTicks(timed.at);
    }
    const Action& a = timed.action;
    out << ' ' << ActionName(a.kind);
    switch (a.kind) {
      case ActionKind::kPreemptNodes:
      case ActionKind::kZombify:
        out << ' ' << FormatSite(a.site) << ' '
            << static_cast<long long>(a.value);
        break;
      case ActionKind::kPreemptSite:
      case ActionKind::kThrottleAcquisition:
      case ActionKind::kShrinkDisks:
      case ActionKind::kFillDisks:
        out << ' ' << FormatSite(a.site) << ' ' << FormatValue(a.value);
        break;
      case ActionKind::kFreezeAcquisition:
        out << ' ' << FormatSite(a.site) << ' ' << FormatTicks(a.duration);
        break;
      case ActionKind::kDegradeUplink:
      case ActionKind::kDegradeFabric:
      case ActionKind::kSlowSite:
        out << ' ' << FormatSite(a.site) << ' ' << FormatValue(a.value);
        if (a.duration > 0) out << ' ' << FormatTicks(a.duration);
        break;
      case ActionKind::kSlowNode:
        out << ' ' << a.node << ' ' << FormatValue(a.value);
        if (a.duration > 0) out << ' ' << FormatTicks(a.duration);
        break;
      case ActionKind::kDelayHeartbeats:
        out << ' ' << FormatSite(a.site) << ' ' << FormatTicks(a.jitter);
        if (a.duration > 0) out << ' ' << FormatTicks(a.duration);
        break;
      case ActionKind::kStallDisk:
        out << ' ' << a.node << ' ' << FormatTicks(a.duration);
        break;
      case ActionKind::kFailTor:
      case ActionKind::kPartitionRack:
        out << ' ' << FormatSite(a.site) << ' ' << a.rack << ' '
            << FormatTicks(a.duration);
        break;
      case ActionKind::kPartition:
        out << ' ' << a.site << ' ' << a.site_b << ' '
            << FormatTicks(a.duration);
        break;
      case ActionKind::kNamenodeBlackout:
      case ActionKind::kJobtrackerBlackout:
        out << ' ' << FormatTicks(a.duration);
        break;
    }
    out << '\n';
  }
  return out.str();
}

Scenario ParsePreemptionTrace(std::string_view text,
                              std::string_view source) {
  Scenario scenario;
  scenario.name = std::string(source);
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    const std::vector<Token> tokens = Tokenize(raw);
    if (tokens.empty()) continue;
    Cursor cur{source, line_no, &tokens, 0};

    TimedAction timed;
    timed.line = line_no;
    timed.at = ParseTicks(cur, cur.Take("timestamp"), "timestamp");
    timed.action.kind = ActionKind::kPreemptNodes;
    timed.action.site =
        ParseSite(cur, cur.Take("site"), /*allow_all=*/false);
    timed.action.value = ParseCount(cur, cur.Take("node count"));
    cur.ExpectDone();
    scenario.actions.push_back(timed);
  }
  return scenario;
}

Scenario LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read scenario file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const bool is_trace =
      path.size() >= 6 && path.substr(path.size() - 6) == ".trace";
  return is_trace ? ParsePreemptionTrace(buf.str(), path)
                  : ParseScenario(buf.str(), path);
}

}  // namespace hogsim::fault
