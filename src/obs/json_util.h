// Tiny JSON emission helpers shared by the obs serializers and the
// BENCH_*.json writer (exp::ToBenchJson): numbers at full double precision
// via "%.17g", non-finite values as null, strings quoted and escaped per
// RFC 8259. Emission only — parsing lives in src/exp/bench_compare.h.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace hogsim::obs {

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace hogsim::obs
