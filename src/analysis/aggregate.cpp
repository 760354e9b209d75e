#include "analysis/aggregate.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace cellrel {

// ---------------------------------------------------------------------------
// TransitionDwellCounts
// ---------------------------------------------------------------------------

void TransitionDwellCounts::add(const DwellRecord& d) {
  ++dwell_total[index_of(d.rat)][index_of(d.level)];
  if (d.failure_within_window) ++dwell_fail[index_of(d.rat)][index_of(d.level)];
}

void TransitionDwellCounts::add(const TransitionRecord& t) {
  auto& total = transition_total[index_of(t.from_rat)][index_of(t.to_rat)];
  ++total[index_of(t.from_level)][index_of(t.to_level)];
  if (t.failure_within_window) {
    auto& fail = transition_fail[index_of(t.from_rat)][index_of(t.to_rat)];
    ++fail[index_of(t.from_level)][index_of(t.to_level)];
  }
}

void TransitionDwellCounts::merge(const TransitionDwellCounts& other) {
  for (std::size_t r = 0; r < kRatCount; ++r) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
      dwell_total[r][l] += other.dwell_total[r][l];
      dwell_fail[r][l] += other.dwell_fail[r][l];
    }
  }
  for (std::size_t fr = 0; fr < kRatCount; ++fr) {
    for (std::size_t tr = 0; tr < kRatCount; ++tr) {
      for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
        for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
          transition_total[fr][tr][i][j] += other.transition_total[fr][tr][i][j];
          transition_fail[fr][tr][i][j] += other.transition_fail[fr][tr][i][j];
        }
      }
    }
  }
}

TransitionMatrix TransitionDwellCounts::increase(Rat from_rat, Rat to_rat) const {
  const auto& d_total = dwell_total[index_of(from_rat)];
  const auto& d_fail = dwell_fail[index_of(from_rat)];
  const auto& t_total = transition_total[index_of(from_rat)][index_of(to_rat)];
  const auto& t_fail = transition_fail[index_of(from_rat)][index_of(to_rat)];
  TransitionMatrix m{};
  for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
    // Baseline failure rate while dwelling at (from_rat, level i).
    const double baseline =
        d_total[i] ? static_cast<double>(d_fail[i]) / static_cast<double>(d_total[i]) : 0.0;
    for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
      if (t_total[i][j] == 0) continue;
      const double rate = static_cast<double>(t_fail[i][j]) / static_cast<double>(t_total[i][j]);
      m[i][j] = rate - baseline;
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Aggregator: ingestion
// ---------------------------------------------------------------------------

Aggregator::Aggregator(const TraceDataset& dataset) {
  add_devices(dataset.devices);
  for (const TraceRecord& r : dataset.records) fold(RecordBatch::row_of(r));
  add_connected_time(dataset.connected_time);
  for (const DwellRecord& d : dataset.dwells) td_.add(d);
  for (const TransitionRecord& t : dataset.transitions) td_.add(t);
  set_base_stations(dataset.base_stations);
}

void Aggregator::add_devices(std::span<const DeviceMeta> devices) {
  devices_.insert(devices_.end(), devices.begin(), devices.end());
}

void Aggregator::consume(const RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) fold(batch.row(i));
}

void Aggregator::fold(const RecordBatch::RowView& r) {
  ++total_records_;
  const bool truly_fp = is_false_positive(r.ground_truth_fp);
  if (truly_fp) has_ground_truth_ = true;
  if (truly_fp && r.filtered_false_positive) ++fscore_.true_positives;
  if (truly_fp && !r.filtered_false_positive) ++fscore_.false_negatives;
  if (!truly_fp && r.filtered_false_positive) ++fscore_.false_positives;
  if (!truly_fp && !r.filtered_false_positive) ++fscore_.true_negatives;
  if (r.filtered_false_positive) {
    ++filtered_records_;
    return;  // the analysis view only sees kept records
  }
  DeviceFailures& dev = counts_[r.device];
  ++dev.by_type[index_of(r.type)];
  dev.levels |= static_cast<std::uint8_t>(1u << index_of(r.level));
  dev.rat_levels |= 1u << (index_of(r.rat) * kSignalLevelCount + index_of(r.level));
  const double d = SimDuration::microseconds(r.duration_us).to_seconds();
  durations_all_.add(d);
  durations_by_type_[index_of(r.type)].add(d);
  duration_sums_[index_of(r.type)] += d;
  duration_total_ += d;
  if (r.type == FailureType::kDataSetupError) {
    ++setup_error_codes_[static_cast<std::int32_t>(r.cause)];
    ++setup_error_total_;
  }
}

void Aggregator::add_connected_time(const ConnectedTimeTable& table) {
  connected_time_.merge(table);
}

void Aggregator::add_counts(const TransitionDwellCounts& counts) { td_.merge(counts); }

void Aggregator::set_base_stations(std::vector<BsMeta> base_stations) {
  base_stations_ = std::move(base_stations);
}

// ---------------------------------------------------------------------------
// Aggregator: queries
// ---------------------------------------------------------------------------

namespace {

using DeviceCounts = std::array<std::uint64_t, kFailureTypeCount>;

std::uint64_t total_of(const DeviceCounts& per_type) {
  std::uint64_t total = 0;
  for (auto c : per_type) total += c;
  return total;
}

}  // namespace

template <typename Classify, typename Out>
void Aggregator::slice_devices(Classify classify, Out& out) const {
  std::unordered_map<DeviceId, int> bucket_of;
  bucket_of.reserve(devices_.size());
  for (const auto& d : devices_) {
    const int b = classify(d);
    if (b < 0) continue;
    bucket_of[d.id] = b;
    ++out[b].devices;
  }
  for (const auto& [id, dev] : counts_) {
    const auto it = bucket_of.find(id);
    if (it == bucket_of.end()) continue;
    auto& pf = out[it->second];
    ++pf.failing_devices;
    pf.failures += total_of(dev.by_type);
  }
}

PrevalenceFrequency Aggregator::overall() const {
  PrevalenceFrequency pf;
  pf.devices = devices_.size();
  for (const auto& [id, dev] : counts_) {
    ++pf.failing_devices;
    pf.failures += total_of(dev.by_type);
  }
  return pf;
}

std::map<int, PrevalenceFrequency> Aggregator::by_model() const {
  std::map<int, PrevalenceFrequency> out;
  slice_devices([](const DeviceMeta& d) { return d.model_id; }, out);
  return out;
}

std::array<PrevalenceFrequency, 2> Aggregator::by_5g_capability(bool android10_only) const {
  std::array<PrevalenceFrequency, 2> out{};
  slice_devices(
      [android10_only](const DeviceMeta& d) {
        if (android10_only && d.android != AndroidVersion::kAndroid10) return -1;
        return d.has_5g ? 1 : 0;
      },
      out);
  return out;
}

std::array<PrevalenceFrequency, 2> Aggregator::by_android_version(bool exclude_5g) const {
  std::array<PrevalenceFrequency, 2> out{};
  slice_devices(
      [exclude_5g](const DeviceMeta& d) {
        if (exclude_5g && d.has_5g) return -1;
        return d.android == AndroidVersion::kAndroid10 ? 1 : 0;
      },
      out);
  return out;
}

std::array<PrevalenceFrequency, kIspCount> Aggregator::by_isp() const {
  std::array<PrevalenceFrequency, kIspCount> out{};
  slice_devices([](const DeviceMeta& d) { return static_cast<int>(index_of(d.isp)); }, out);
  return out;
}

std::array<double, kFailureTypeCount> Aggregator::mean_failures_per_device_by_type() const {
  std::array<double, kFailureTypeCount> out{};
  if (devices_.empty()) return out;
  // Integer counts converted once: exact below 2^53, so this equals a
  // per-record `+= 1.0` accumulation bit for bit.
  DeviceCounts totals{};
  for (const auto& [id, dev] : counts_) {
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) totals[t] += dev.by_type[t];
  }
  for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
    out[t] = static_cast<double>(totals[t]) / static_cast<double>(devices_.size());
  }
  return out;
}

Aggregator::PerDeviceCounts Aggregator::per_device_counts() const {
  PerDeviceCounts out;
  for (const auto& [id, dev] : counts_) {
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
      if (dev.by_type[t] > 0) out.by_type[t].add(static_cast<double>(dev.by_type[t]));
    }
    out.total.add(static_cast<double>(total_of(dev.by_type)));
  }
  return out;
}

std::array<double, kFailureTypeCount> Aggregator::duration_share_by_type() const {
  std::array<double, kFailureTypeCount> out = duration_sums_;
  if (duration_total_ > 0.0) {
    for (auto& v : out) v /= duration_total_;
  }
  return out;
}

ZipfFit Aggregator::bs_zipf_fit() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(base_stations_.size());
  for (const auto& bs : base_stations_) counts.push_back(bs.failure_count);
  return fit_zipf(counts);
}

Aggregator::BsRankingStats Aggregator::bs_ranking_stats() const {
  BsRankingStats st;
  std::vector<std::uint64_t> counts;
  counts.reserve(base_stations_.size());
  for (const auto& bs : base_stations_) {
    counts.push_back(bs.failure_count);
    if (bs.failure_count > 0) ++st.with_failures;
  }
  st.total = counts.size();
  if (counts.empty()) return st;
  std::sort(counts.begin(), counts.end());
  st.median = counts[counts.size() / 2];
  st.max = counts.back();
  double sum = 0.0;
  for (auto c : counts) sum += static_cast<double>(c);
  st.mean = sum / static_cast<double>(counts.size());
  return st;
}

std::array<double, kRatCount> Aggregator::bs_prevalence_by_rat() const {
  std::array<std::uint64_t, kRatCount> total{};
  std::array<std::uint64_t, kRatCount> failing{};
  for (const auto& bs : base_stations_) {
    for (Rat rat : kAllRats) {
      if (bs.rat_mask & (1u << index_of(rat))) {
        ++total[index_of(rat)];
        if (bs.failure_count > 0) ++failing[index_of(rat)];
      }
    }
  }
  std::array<double, kRatCount> out{};
  for (std::size_t r = 0; r < kRatCount; ++r) {
    out[r] = total[r] ? static_cast<double>(failing[r]) / static_cast<double>(total[r]) : 0.0;
  }
  return out;
}

std::array<double, kSignalLevelCount> Aggregator::normalized_prevalence_by_level() const {
  // Devices with >= 1 kept failure at each level.
  std::array<std::uint64_t, kSignalLevelCount> failing{};
  for (const auto& [id, dev] : counts_) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) failing[l] += (dev.levels >> l) & 1u;
  }
  std::array<double, kSignalLevelCount> out{};
  const double n = static_cast<double>(devices_.size());
  if (n == 0.0) return out;
  for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
    const double prevalence = static_cast<double>(failing[l]) / n;
    // Mean connected hours per device at this level.
    const double hours = connected_time_.level_total(signal_level_from_index(l)) / n / 3600.0;
    out[l] = hours > 0.0 ? prevalence / hours : 0.0;
  }
  return out;
}

std::array<std::array<double, kSignalLevelCount>, kRatCount>
Aggregator::normalized_prevalence_by_rat_level() const {
  std::array<std::uint64_t, kRatCount * kSignalLevelCount> failing{};
  for (const auto& [id, dev] : counts_) {
    for (std::size_t b = 0; b < failing.size(); ++b) failing[b] += (dev.rat_levels >> b) & 1u;
  }
  std::array<std::array<double, kSignalLevelCount>, kRatCount> out{};
  const double n = static_cast<double>(devices_.size());
  if (n == 0.0) return out;
  for (std::size_t rt = 0; rt < kRatCount; ++rt) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
      const double prevalence =
          static_cast<double>(failing[rt * kSignalLevelCount + l]) / n;
      const double hours = connected_time_.seconds[rt][l] / n / 3600.0;
      out[rt][l] = hours > 0.0 ? prevalence / hours : 0.0;
    }
  }
  return out;
}

std::vector<Aggregator::ErrorCodeShare> Aggregator::top_error_codes(std::size_t n) const {
  std::vector<ErrorCodeShare> out;
  out.reserve(setup_error_codes_.size());
  for (const auto& [code, c] : setup_error_codes_) {
    ErrorCodeShare s;
    s.cause = static_cast<FailCause>(code);
    s.count = c;
    s.percent = setup_error_total_
                    ? 100.0 * static_cast<double>(c) / static_cast<double>(setup_error_total_)
                    : 0.0;
    out.push_back(s);
  }
  // Count descending, code ascending: ties rank the same on every platform.
  std::sort(out.begin(), out.end(), [](const ErrorCodeShare& a, const ErrorCodeShare& b) {
    if (a.count != b.count) return a.count > b.count;
    return static_cast<std::int32_t>(a.cause) < static_cast<std::int32_t>(b.cause);
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::size_t Aggregator::resident_bytes() const {
  std::size_t bytes = devices_.capacity() * sizeof(DeviceMeta) +
                      base_stations_.capacity() * sizeof(BsMeta);
  // Duration samples: the dominant O(kept-records) term (16 B per kept
  // record: one double in the total set, one in the per-type set).
  bytes += durations_all_.size() * sizeof(double);
  for (const auto& s : durations_by_type_) bytes += s.size() * sizeof(double);
  // Map node estimates (payload + tree overhead).
  bytes += counts_.size() * (sizeof(DeviceId) + sizeof(DeviceFailures) + 4 * sizeof(void*));
  bytes += setup_error_codes_.size() * (16 + 4 * sizeof(void*));
  bytes += sizeof(TransitionDwellCounts);
  return bytes;
}

}  // namespace cellrel
