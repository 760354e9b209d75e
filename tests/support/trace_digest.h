// FNV-1a digest of a merged trace, shared by the bit-identity batteries and
// the stored campaign fingerprints.

#ifndef CELLREL_TESTS_SUPPORT_TRACE_DIGEST_H
#define CELLREL_TESTS_SUPPORT_TRACE_DIGEST_H

#include <cstdint>

#include "analysis/dataset.h"

namespace cellrel::test_support {

/// FNV-1a fold over every deterministic field of the merged trace — a cheap
/// exact-equality proxy so a battery does not hold N full datasets alive.
inline std::uint64_t trace_digest(const TraceDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const TraceRecord& r : ds.records) {
    mix(r.device);
    mix(static_cast<std::uint64_t>(r.model_id));
    mix(static_cast<std::uint64_t>(index_of(r.isp)));
    mix(static_cast<std::uint64_t>(index_of(r.type)));
    mix(static_cast<std::uint64_t>(r.at.since_origin().count_us()));
    mix(static_cast<std::uint64_t>(r.duration.count_us()));
    mix(static_cast<std::uint64_t>(index_of(r.rat)));
    mix(static_cast<std::uint64_t>(index_of(r.level)));
    mix(static_cast<std::uint64_t>(r.bs));
    mix(static_cast<std::uint64_t>(r.cause));
    mix(r.filtered_false_positive ? 1u : 0u);
    mix(r.probe_rounds);
  }
  for (const TransitionRecord& t : ds.transitions) {
    mix(t.device);
    mix(static_cast<std::uint64_t>(index_of(t.from_rat)));
    mix(static_cast<std::uint64_t>(index_of(t.from_level)));
    mix(static_cast<std::uint64_t>(index_of(t.to_rat)));
    mix(static_cast<std::uint64_t>(index_of(t.to_level)));
    mix(t.failure_within_window ? 1u : 0u);
  }
  return h;
}

}  // namespace cellrel::test_support

#endif  // CELLREL_TESTS_SUPPORT_TRACE_DIGEST_H
