#include "src/obs/trace.h"

#include <map>
#include <sstream>
#include <string_view>

#include "src/obs/json_util.h"

namespace hogsim::obs {

void Tracer::Reserve(std::size_t capacity) {
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void Tracer::set_enabled(bool enabled) {
  if (enabled && ring_.empty()) Reserve(kDefaultCapacity);
  enabled_ = enabled;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // head_ is the next write position; when the ring has wrapped it is also
  // the oldest record.
  const std::size_t start = size_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t idx = start + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    out.push_back(ring_[idx]);
  }
  return out;
}

std::string Tracer::ExportChromeJson() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& row) {
    os << (first ? "\n" : ",\n") << row;
    first = false;
  };
  // pid = dense category index, in first-appearance order; process_name
  // metadata rows make chrome://tracing label each track by category.
  std::map<std::string_view, int> pids;
  auto pid_of = [&](const char* category) {
    auto it = pids.find(category);
    if (it == pids.end()) {
      const int pid = static_cast<int>(pids.size()) + 1;
      it = pids.emplace(category, pid).first;
      emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
           JsonEscape(category) + "}}");
    }
    return it->second;
  };
  for (const TraceEvent& ev : Events()) {
    const int pid = pid_of(ev.category);
    std::ostringstream row;
    row << "{\"pid\":" << pid << ",\"tid\":" << ev.entity
        << ",\"ts\":" << ev.start << ",\"name\":" << JsonEscape(ev.name)
        << ",\"cat\":" << JsonEscape(ev.category);
    switch (ev.kind) {
      case TraceEvent::Kind::kSpan:
        row << ",\"ph\":\"X\",\"dur\":" << ev.duration;
        break;
      case TraceEvent::Kind::kInstant:
        row << ",\"ph\":\"i\",\"s\":\"t\"";  // thread-scoped instant
        break;
      case TraceEvent::Kind::kCounter:
        row << ",\"ph\":\"C\",\"args\":{\"value\":" << JsonNumber(ev.value)
            << "}";
        break;
    }
    row << "}";
    emit(row.str());
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

}  // namespace hogsim::obs
