// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a cellrel layer's public API; nothing inside src/ is
// instrumented. Every span has a name, a start, an end and the span that
// was open when it started (its parent). Spans stay in memory until the
// run ends and are then written out in one file.
//
// A disabled tracer records nothing, so untraced runs pay one branch per
// span site.

#ifndef CELLBENCH_TRACE_H
#define CELLBENCH_TRACE_H

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace cellbench {

/// Seconds on the monotonic clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Aggregate over every span of one name.
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // total minus the part its child spans cover
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes the span on destruction; nests under whatever span was open.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Id of this span (0 when the tracer is disabled).
    std::uint32_t id() const { return index_ == kNone ? 0 : index_ + 1; }

   private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    Tracer& tracer_;
    std::size_t index_ = kNone;
  };

  bool enabled() const { return enabled_; }
  /// Spans already open keep recording their end; new sites follow `on`.
  void set_enabled(bool on) { enabled_ = on; }

  /// Records an already-finished span under `parent`. Used for the
  /// campaign's phases, whose durations come from the program's own
  /// phase.* wall timers rather than from a span site here.
  void add(std::string_view name, std::uint32_t parent, double start_s, double end_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals and self time, in first-seen order.
  std::vector<SpanTotals> totals() const;

  /// Share of span `id`'s duration covered by its direct children.
  double child_coverage(std::uint32_t id) const;

  /// Writes every span as JSON: {"spans": [{"id","parent","name",
  /// "start_us","dur_us"}, ...]}. Throws std::runtime_error on I/O failure.
  void write_json(const std::filesystem::path& file) const;

 private:
  /// Seconds of [span.start, span.end] covered by the union of its
  /// direct children's intervals.
  double covered_s(std::size_t index) const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

}  // namespace cellbench

#endif  // CELLBENCH_TRACE_H
