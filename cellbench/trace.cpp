#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace cellbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = tracer_.spans_.size();
  Span span;
  span.name = std::string(name);
  span.id = static_cast<std::uint32_t>(index_ + 1);
  span.parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
  span.start_s = now_s();
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(static_cast<std::uint32_t>(index_ + 1));
}

Tracer::Scope::~Scope() {
  if (index_ == kNone) return;
  tracer_.spans_[index_].end_s = now_s();
  tracer_.open_.pop_back();
}

void Tracer::add(std::string_view name, std::uint32_t parent, double start_s,
                 double end_s) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
}

double Tracer::covered_s(std::size_t index) const {
  const Span& self = spans_[index];
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans_) {
    if (s.parent != self.id) continue;
    const double lo = std::max(s.start_s, self.start_s);
    const double hi = std::min(s.end_s, self.end_s);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = self.start_s;
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

double Tracer::child_coverage(std::uint32_t id) const {
  if (id == 0 || id > spans_.size()) return 0.0;
  const Span& s = spans_[id - 1];
  const double dur = s.end_s - s.start_s;
  return dur > 0.0 ? covered_s(id - 1) / dur : 0.0;
}

std::vector<SpanTotals> Tracer::totals() const {
  std::vector<SpanTotals> out;
  std::map<std::string, std::size_t, std::less<>> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back(SpanTotals{s.name, 0, 0.0, 0.0});
    SpanTotals& t = out[it->second];
    const double dur = s.end_s - s.start_s;
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - covered_s(i);
  }
  return out;
}

void Tracer::write_json(const std::filesystem::path& file) const {
  std::ofstream out(file, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + file.string());
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_us\": "
        << static_cast<long long>(s.start_s * 1e6)
        << ", \"dur_us\": " << static_cast<long long>((s.end_s - s.start_s) * 1e6) << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed: " + file.string());
}

}  // namespace cellbench
