#include "obs/events.hpp"

#include <cstddef>
#include <sstream>

#include "obs/json.hpp"

namespace dyncon::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kPermitGranted: return "PermitGranted";
    case EventKind::kRequestRejected: return "RequestRejected";
    case EventKind::kRequestMoot: return "RequestMoot";
    case EventKind::kRequestExhausted: return "RequestExhausted";
    case EventKind::kPackageCreated: return "PackageCreated";
    case EventKind::kPackageSplit: return "PackageSplit";
    case EventKind::kPackageStatic: return "PackageStatic";
    case EventKind::kWaveStart: return "WaveStart";
    case EventKind::kWaveEnd: return "WaveEnd";
    case EventKind::kLinkAdded: return "LinkAdded";
    case EventKind::kLinkRemoved: return "LinkRemoved";
    case EventKind::kAgentHop: return "AgentHop";
    case EventKind::kLockWait: return "LockWait";
    case EventKind::kIterationStart: return "IterationStart";
    case EventKind::kIterationRotate: return "IterationRotate";
    case EventKind::kKindCount__: break;
  }
  return "invalid";
}

std::string format_event(const TraceEvent& ev) {
  std::string out = "[t=" + std::to_string(ev.time) + "] ";
  out += event_kind_name(ev.kind);
  if (ev.node != kNoNode) out += " node=" + std::to_string(ev.node);
  out += " a=" + std::to_string(ev.a) + " b=" + std::to_string(ev.b);
  return out;
}

std::string event_json(const TraceEvent& ev) {
  std::ostringstream os;
  os << "{\"kind\":";
  json::write_escaped(os, event_kind_name(ev.kind));
  os << ",\"t\":" << ev.time;
  if (ev.node != kNoNode) os << ",\"node\":" << ev.node;
  os << ",\"a\":" << ev.a << ",\"b\":" << ev.b << "}";
  return os.str();
}

void EventTrace::record(const TraceEvent& event) {
  if (!enabled_) return;
  ++recorded_;
  ring_.push_back(event);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++overwritten_;
  }
}

std::vector<TraceEvent> EventTrace::tail_events(std::size_t n) const {
  const std::size_t start = ring_.size() > n ? ring_.size() - n : 0;
  return {ring_.begin() + static_cast<std::ptrdiff_t>(start), ring_.end()};
}

std::vector<std::string> EventTrace::tail(std::size_t n) const {
  std::vector<std::string> out;
  const std::size_t start = ring_.size() > n ? ring_.size() - n : 0;
  out.reserve(ring_.size() - start);
  for (std::size_t i = start; i < ring_.size(); ++i) {
    out.push_back(format_event(ring_[i]));
  }
  return out;
}

void EventTrace::dump_jsonl(std::ostream& os, std::size_t n) const {
  const std::size_t start = ring_.size() > n ? ring_.size() - n : 0;
  for (std::size_t i = start; i < ring_.size(); ++i) {
    os << event_json(ring_[i]) << '\n';
  }
}

void EventTrace::clear() {
  ring_.clear();
  recorded_ = 0;
  overwritten_ = 0;
}

}  // namespace dyncon::obs
