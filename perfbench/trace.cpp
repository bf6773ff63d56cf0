#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t SpanRecorder::open(std::string_view layer, std::string_view name) {
  Span s;
  s.id = next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.op = op_;
  s.layer = layer;
  s.name = name;
  s.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id) {
  const std::int64_t t = now_ns();
  // Scopes nest, so the span to close is the innermost open one.
  if (!open_.empty() && spans_[open_.back()].id == id) {
    spans_[open_.back()].end_ns = t;
    open_.pop_back();
  }
}

bool write_spans_json(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"layer\":\"%s\","
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.layer.c_str(),
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

}  // namespace perfbench
