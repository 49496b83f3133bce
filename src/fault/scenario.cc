#include "src/fault/scenario.h"

#include <algorithm>
#include <array>
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

/// A non-negative integer index of at most `max`: a site (or `all` =
/// kAllSites where `allow_all`), a rack or a lease.
int ParseIndex(Cursor& cur, const Token& tok, std::string_view what,
               double max, bool allow_all = false) {
  if (allow_all && tok.text == "all") return kAllSites;
  const double value = ParseNumber(cur, tok, what);
  if (value < 0 || value != std::floor(value) || value > max) {
    cur.Fail(tok.column,
             "bad " + std::string(what) + " '" + std::string(tok.text) + "'" +
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

/// How one operand token reads, and the Action field it fills.
enum class Operand {
  kEnd,               ///< past the row's last operand
  kSite,              ///< site index or `all` -> site
  kSiteOnly,          ///< site index -> site
  kPeerSite,          ///< site index other than `site` -> site_b
  kCount,             ///< integer >= 1 -> value
  kFraction,          ///< in [0, 1] -> value
  kPositiveFraction,  ///< in (0, 1] -> value
  kFactor,            ///< > 0 -> value
  kRack,              ///< rack index -> rack
  kNode,              ///< running-lease index -> node
  kDuration,          ///< > 0 -> duration
  kOptionalDuration,  ///< trailing, > 0 when present -> duration
  kJitter,            ///< > 0 -> jitter
};
using enum Operand;

using Operands = std::array<Operand, 3>;

/// One action kind's grammar: its directive name and operand list.
struct Grammar {
  ActionKind kind;
  std::string_view name;  // a literal: tracers keep ActionName(kind).data()
  Operands operands;
};

/// Every kind's grammar, in ActionKind order: the parser, the formatter,
/// ActionName and (through ActionName) the injector's counter names all
/// read this table, so a directive is written here and nowhere else.
constexpr Grammar kGrammar[] = {
    {ActionKind::kPreemptNodes, "preempt-nodes", {kSite, kCount}},
    {ActionKind::kPreemptSite, "preempt-site", {kSite, kFraction}},
    {ActionKind::kZombify, "zombify", {kSite, kCount}},
    {ActionKind::kFreezeAcquisition, "freeze-acquisition", {kSite, kDuration}},
    {ActionKind::kThrottleAcquisition, "throttle-acquisition",
     {kSite, kFactor}},
    {ActionKind::kDegradeUplink, "degrade-uplink",
     {kSite, kFactor, kOptionalDuration}},
    {ActionKind::kPartition, "partition", {kSiteOnly, kPeerSite, kDuration}},
    {ActionKind::kShrinkDisks, "shrink-disks", {kSite, kFactor}},
    {ActionKind::kFillDisks, "fill-disks", {kSite, kPositiveFraction}},
    {ActionKind::kNamenodeBlackout, "namenode-blackout", {kDuration}},
    {ActionKind::kJobtrackerBlackout, "jobtracker-blackout", {kDuration}},
    {ActionKind::kFailTor, "fail-tor", {kSite, kRack, kDuration}},
    {ActionKind::kPartitionRack, "partition-rack", {kSite, kRack, kDuration}},
    {ActionKind::kDegradeFabric, "degrade-fabric",
     {kSite, kFactor, kOptionalDuration}},
    {ActionKind::kSlowNode, "slow-node", {kNode, kFactor, kOptionalDuration}},
    {ActionKind::kSlowSite, "slow-site", {kSite, kFactor, kOptionalDuration}},
    {ActionKind::kDelayHeartbeats, "delay-heartbeats",
     {kSite, kJitter, kOptionalDuration}},
    {ActionKind::kStallDisk, "stall-disk", {kNode, kDuration}},
};

constexpr bool RowsFollowKindOrder() {
  for (std::size_t i = 0; i < std::size(kGrammar); ++i) {
    if (kGrammar[i].kind != static_cast<ActionKind>(i)) return false;
  }
  return std::size(kGrammar) == kActionKinds;
}
static_assert(RowsFollowKindOrder(), "one kGrammar row per ActionKind");

/// A preemption-trace record after its timestamp: a kPreemptNodes action
/// at one site.
constexpr Operands kTraceRecord = {kSiteOnly, kCount};

/// Reads `operands` in order into `action` (whose kind is set), then
/// requires the line to end.
void ParseOperands(Cursor& cur, const Operands& operands, Action& action) {
  for (const Operand operand : operands) {
    switch (operand) {
      case kEnd:
        break;
      case kSite:
      case kSiteOnly:
        action.site = ParseIndex(cur, cur.Take("site"), "site index", 1e6,
                                 /*allow_all=*/operand == kSite);
        break;
      case kPeerSite: {
        const Token& tok = cur.Take("peer site");
        action.site_b = ParseIndex(cur, tok, "site index", 1e6);
        if (action.site_b == action.site) {
          cur.Fail(tok.column, std::string(ActionName(action.kind)) +
                                   " needs two distinct sites");
        }
        break;
      }
      case kCount:
        action.value = ParseCount(cur, cur.Take("node count"));
        break;
      case kFraction:
        action.value = ParseFraction(cur, cur.Take("fraction"));
        break;
      case kPositiveFraction: {
        const Token& tok = cur.Take("fraction");
        action.value = ParseFraction(cur, tok);
        if (action.value <= 0) {
          cur.Fail(tok.column, std::string(ActionName(action.kind)) +
                                   " fraction must be > 0");
        }
        break;
      }
      case kFactor:
        action.value = ParseFactor(cur, cur.Take("factor"));
        break;
      case kRack:
        action.rack = ParseIndex(cur, cur.Take("rack"), "rack index", 1e6);
        break;
      case kNode:
        action.node = ParseIndex(cur, cur.Take("node"), "node index", 1e9);
        break;
      case kOptionalDuration:
        if (cur.Done()) break;
        [[fallthrough]];
      case kDuration:
        action.duration =
            ParsePositiveTicks(cur, cur.Take("duration"), "duration");
        break;
      case kJitter:
        action.jitter = ParsePositiveTicks(cur, cur.Take("jitter"), "jitter");
        break;
    }
  }
  cur.ExpectDone();
}

/// Parses `<action> <args...>` — everything after the schedule prefix.
Action ParseAction(Cursor& cur) {
  const Token& name = cur.Take("action");
  const Grammar* row = std::find_if(
      std::begin(kGrammar), std::end(kGrammar),
      [&](const Grammar& g) { return g.name == name.text; });
  if (row == std::end(kGrammar)) {
    cur.Fail(name.column,
             "unknown action '" + std::string(name.text) + "'");
  }
  Action action;
  action.kind = row->kind;
  ParseOperands(cur, row->operands, action);
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

/// Writes `operands` of `a`, each after a space, as ParseOperands reads them.
void FormatOperands(std::ostream& out, const Operands& operands,
                    const Action& a) {
  for (const Operand operand : operands) {
    switch (operand) {
      case kEnd:
        break;
      case kSite:
      case kSiteOnly:
        out << ' ' << FormatSite(a.site);
        break;
      case kPeerSite:
        out << ' ' << a.site_b;
        break;
      case kCount:
        out << ' ' << static_cast<long long>(a.value);
        break;
      case kFraction:
      case kPositiveFraction:
      case kFactor:
        out << ' ' << FormatValue(a.value);
        break;
      case kRack:
        out << ' ' << a.rack;
        break;
      case kNode:
        out << ' ' << a.node;
        break;
      case kOptionalDuration:
        if (a.duration <= 0) break;
        [[fallthrough]];
      case kDuration:
        out << ' ' << FormatTicks(a.duration);
        break;
      case kJitter:
        out << ' ' << FormatTicks(a.jitter);
        break;
    }
  }
}

}  // namespace

std::string_view ActionName(ActionKind kind) {
  const auto row = static_cast<std::size_t>(kind);
  return row < std::size(kGrammar) ? kGrammar[row].name : "?";
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
    FormatOperands(out, kGrammar[static_cast<std::size_t>(a.kind)].operands,
                   a);
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
    ParseOperands(cur, kTraceRecord, timed.action);
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
