#include "src/util/spec.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/util/strings.h"

namespace hogsim {

namespace {

template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::string ShowBound(double bound) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", bound);
  return buf;
}

}  // namespace

std::optional<double> ParseNumber(std::string_view text) {
  const std::optional<double> value = ParseWhole<double>(text);
  if (value && !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::optional<std::int64_t> ParseInteger(std::string_view text) {
  return ParseWhole<std::int64_t>(text);
}

Spec::Spec(std::string_view text) : text_(text) {
  const std::size_t colon = text.find(':');
  name_ = text.substr(0, colon);
  if (name_.empty()) Fail({"empty name"});
  if (colon == std::string_view::npos) return;
  if (colon + 1 == text.size()) Fail({"empty parameters after ':'"});
  for (std::string& segment : Split(text.substr(colon + 1), ';')) {
    if (segment.empty()) Fail({"empty ';' segment"});
    const std::size_t eq = segment.find('=');
    if (eq == std::string::npos) {  // a bare value extends the last list
      if (params_.empty()) Fail({"'", segment, "' is not key=value"});
      params_.back().values.push_back(std::move(segment));
      continue;
    }
    if (eq == 0) Fail({"'", segment, "' has no key"});
    std::string key = segment.substr(0, eq);
    for (const Param& param : params_) {
      if (param.key == key) Fail({"duplicate key '", key, "'"});
    }
    params_.push_back({std::move(key), {segment.substr(eq + 1)}});
  }
}

double Spec::Number(std::string_view key, double def, double min,
                    double max) {
  const std::optional<std::string> text = Scalar(key);
  if (!text) return def;
  const std::optional<double> value = ParseNumber(*text);
  if (!value) Fail({key, "='", *text, "' is not a number"});
  if (*value < min || *value > max) FailRange(key, *text, min, max);
  return *value;
}

int Spec::Int(std::string_view key, int def, int min, int max) {
  const std::optional<std::string> text = Scalar(key);
  if (!text) return def;
  const std::optional<std::int64_t> value = ParseInteger(*text);
  if (!value) Fail({key, "='", *text, "' is not an integer"});
  if (*value < min || *value > max) FailRange(key, *text, min, max);
  return static_cast<int>(*value);
}

std::vector<std::string> Spec::List(std::string_view key) {
  for (Param& param : params_) {
    if (param.key != key) continue;
    param.read = true;
    return param.values;
  }
  return {};
}

void Spec::Finish() const {
  for (const Param& param : params_) {
    if (!param.read) Fail({name_, " has no parameter '", param.key, "'"});
  }
}

void Spec::Fail(std::initializer_list<std::string_view> parts) const {
  std::string message = "spec '";
  message.append(text_).append("': ");
  for (std::string_view part : parts) message.append(part);
  throw std::invalid_argument(message);
}

void Spec::FailUnknownName(std::string_view kind,
                           const std::vector<std::string>& names) const {
  std::string have;
  for (const std::string& name : names) {
    if (!have.empty()) have.append(", ");
    have.append(name);
  }
  Fail({"unknown ", kind, " '", name_, "' (have: ", have, ")"});
}

std::optional<std::string> Spec::Scalar(std::string_view key) {
  std::vector<std::string> values = List(key);
  if (values.size() > 1) {
    Fail({key, " takes one value, got ", std::to_string(values.size())});
  }
  if (values.empty()) return std::nullopt;
  return std::move(values.front());
}

void Spec::FailRange(std::string_view key, const std::string& value,
                     double min, double max) const {
  Fail({key, "=", value, " is outside [", ShowBound(min), ", ",
        ShowBound(max), "]"});
}

}  // namespace hogsim
