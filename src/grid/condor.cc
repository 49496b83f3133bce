#include "src/grid/condor.h"

#include <cctype>
#include <climits>
#include <stdexcept>

#include "src/util/spec.h"
#include "src/util/strings.h"

namespace hogsim::grid {
namespace {

// Extracts every quoted string following a `GLIDEIN_ResourceName =?=`
// comparison in a requirements expression.
std::vector<std::string> ParseRequirements(std::string_view expr) {
  static constexpr std::string_view kAttr = "GLIDEIN_ResourceName";
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = expr.find(kAttr, pos)) != std::string_view::npos) {
    pos += kAttr.size();
    const std::size_t open = expr.find('"', pos);
    if (open == std::string_view::npos) {
      throw std::invalid_argument(
          "requirements: GLIDEIN_ResourceName without quoted value");
    }
    const std::size_t close = expr.find('"', open + 1);
    if (close == std::string_view::npos) {
      throw std::invalid_argument("requirements: unterminated string");
    }
    out.emplace_back(Trim(expr.substr(open + 1, close - open - 1)));
    pos = close + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument(
        "requirements: no GLIDEIN_ResourceName clauses found");
  }
  return out;
}

bool ParseBool(std::string_view v) {
  return EqualsIgnoreCase(v, "yes") || EqualsIgnoreCase(v, "true");
}

}  // namespace

CondorSubmit ParseCondorSubmit(std::string_view text) {
  CondorSubmit submit;
  bool saw_queue = false;

  // Re-join continuation lines first: the paper's listing wraps the
  // requirements expression mid-token, so a line whose trimmed form ends
  // with "||" or "=?=" or an unterminated quote continues onto the next.
  std::vector<std::string> lines;
  for (const auto& raw : Split(text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    auto unterminated_quote = [](std::string_view s) {
      int quotes = 0;
      for (char c : s) quotes += (c == '"');
      return quotes % 2 == 1;
    };
    const bool continues_prev =
        !lines.empty() &&
        (StartsWith(lines.back(), "requirements") &&
         (lines.back().ends_with("||") || lines.back().ends_with("=?=") ||
          unterminated_quote(lines.back())));
    if (continues_prev) {
      lines.back().append(" ").append(line);
    } else {
      lines.emplace_back(line);
    }
  }

  for (const auto& line : lines) {
    if (StartsWith(line, "queue")) {
      const std::string_view rest = Trim(std::string_view(line).substr(5));
      const std::optional<std::int64_t> count =
          rest.empty() ? 1 : ParseInteger(rest);
      if (!count || *count <= 0 || *count > INT_MAX) {
        throw std::invalid_argument("bad queue count in '" + line +
                                    "' (want a positive integer)");
      }
      submit.queue_count = static_cast<int>(*count);
      saw_queue = true;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("malformed line (no '='): " + line);
    }
    const std::string key{Trim(std::string_view(line).substr(0, eq))};
    const std::string value{Trim(std::string_view(line).substr(eq + 1))};
    if (key == "universe") {
      submit.universe = value;
    } else if (key == "requirements") {
      submit.resources = ParseRequirements(value);
    } else if (key == "executable") {
      submit.executable = value;
    } else if (key == "output") {
      submit.output = value;
    } else if (key == "error") {
      submit.error = value;
    } else if (key == "log") {
      submit.log = value;
    } else if (key == "should_transfer_files") {
      submit.should_transfer_files = ParseBool(value);
    } else if (key == "OnExitRemove") {
      submit.on_exit_remove = ParseBool(value);
    } else if (key == "x509userproxy") {
      submit.x509userproxy = value;
    }
    // Unknown keys (when_to_transfer_output, PeriodicHold, ...) are
    // accepted and ignored, as Condor itself tolerates extra attributes.
  }
  if (!saw_queue) throw std::invalid_argument("missing queue statement");
  return submit;
}

std::string RenderCondorSubmit(const CondorSubmit& submit) {
  std::string out;
  out += "universe = " + submit.universe + "\n";
  if (!submit.resources.empty()) {
    out += "requirements = ";
    for (std::size_t i = 0; i < submit.resources.size(); ++i) {
      if (i) out += " || ";
      out += "GLIDEIN_ResourceName =?= \"" + submit.resources[i] + "\"";
    }
    out += "\n";
  }
  out += "executable = " + submit.executable + "\n";
  if (!submit.output.empty()) out += "output = " + submit.output + "\n";
  if (!submit.error.empty()) out += "error = " + submit.error + "\n";
  if (!submit.log.empty()) out += "log = " + submit.log + "\n";
  out += "should_transfer_files = ";
  out += submit.should_transfer_files ? "YES\n" : "NO\n";
  out += "when_to_transfer_output = ON_EXIT_OR_EVICT\n";
  out += "OnExitRemove = ";
  out += submit.on_exit_remove ? "TRUE\n" : "FALSE\n";
  if (!submit.x509userproxy.empty()) {
    out += "x509userproxy = " + submit.x509userproxy + "\n";
  }
  out += "queue " + std::to_string(submit.queue_count) + "\n";
  return out;
}

}  // namespace hogsim::grid
