#include "obs/span.hpp"

namespace dyncon::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kOp: return "op";
  }
  return "invalid";
}

void SpanSink::emit(const Span& span) {
  ++recorded_;
  ring_.push_back(span);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++overwritten_;
  }
}

std::uint32_t SpanSink::open(TraceId trace) {
  // Child ids start at 1; kRootSpanId (0) is reserved for the request span
  // the mux emits, whether or not it ever materializes in this sink.
  std::uint32_t& next = next_id_[trace];
  if (next == 0) next = 1;
  return next++;
}

void SpanSink::clear() {
  ring_.clear();
  next_id_.clear();
  recorded_ = 0;
  overwritten_ = 0;
}

json::Value SpanSink::to_json() const {
  json::Value doc = json::Value::object();
  doc["capacity"] = static_cast<std::uint64_t>(capacity_);
  doc["recorded"] = recorded_;
  doc["overwritten"] = overwritten_;
  json::Array events;
  events.reserve(ring_.size());
  for (const Span& s : ring_) {
    json::Value ev = json::Value::object();
    ev["trace"] = s.trace;
    ev["id"] = static_cast<std::uint64_t>(s.id);
    if (s.parent != kNoSpan) {
      ev["parent"] = static_cast<std::uint64_t>(s.parent);
    }
    ev["kind"] = span_kind_name(s.kind);
    ev["op"] = static_cast<std::uint64_t>(s.op);
    if (s.label != nullptr) ev["label"] = s.label;
    if (s.node != kNoNode) ev["node"] = s.node;
    ev["begin"] = s.begin;
    ev["end"] = s.end;
    events.push_back(std::move(ev));
  }
  doc["events"] = json::Value(std::move(events));
  return doc;
}

}  // namespace dyncon::obs
