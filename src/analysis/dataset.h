// The centralized-analysis dataset: everything the backend receives.
//
// A campaign uploads trace records (per failure), device metadata (for the
// full opted-in population including failure-free devices), connected-time
// aggregates (needed for normalized prevalence), RAT-transition samples
// (Fig. 16/17), and per-BS metadata/counters (Fig. 11/14).

#ifndef CELLREL_ANALYSIS_DATASET_H
#define CELLREL_ANALYSIS_DATASET_H

#include <array>
#include <cstdint>
#include <vector>

#include "bs/base_station.h"
#include "core/trace.h"
#include "device/phone_model.h"

namespace cellrel {

/// Metadata for one opted-in device (present even when it never failed).
struct DeviceMeta {
  DeviceId id = 0;
  int model_id = 0;
  IspId isp = IspId::kIspA;
  bool has_5g = false;
  AndroidVersion android = AndroidVersion::kAndroid10;
};

/// Structural metadata for one BS (mirrors the registry; identity elided).
struct BsMeta {
  BsIndex index = kInvalidBs;
  IspId isp = IspId::kIspA;
  std::uint8_t rat_mask = 0;
  LocationClass location = LocationClass::kUrban;
  std::uint64_t failure_count = 0;
};

/// Total device-time connected per (RAT, signal level), plus per level,
/// summed over the fleet. Used to normalize prevalence (Fig. 15/16).
struct ConnectedTimeTable {
  std::array<std::array<double, kSignalLevelCount>, kRatCount> seconds{};

  double at(Rat rat, SignalLevel level) const {
    return seconds[index_of(rat)][index_of(level)];
  }
  void add(Rat rat, SignalLevel level, double s) {
    seconds[index_of(rat)][index_of(level)] += s;
  }
  /// Element-wise sum (the shard merge's summation grouping).
  void merge(const ConnectedTimeTable& other) {
    for (std::size_t r = 0; r < kRatCount; ++r) {
      for (std::size_t l = 0; l < kSignalLevelCount; ++l) seconds[r][l] += other.seconds[r][l];
    }
  }
  double level_total(SignalLevel level) const {
    double t = 0.0;
    for (std::size_t r = 0; r < kRatCount; ++r) t += seconds[r][index_of(level)];
    return t;
  }
};

/// One observed RAT transition and whether a failure followed shortly.
struct TransitionRecord {
  DeviceId device = 0;
  Rat from_rat = Rat::k4G;
  SignalLevel from_level = SignalLevel::kLevel3;
  Rat to_rat = Rat::k5G;
  SignalLevel to_level = SignalLevel::kLevel0;
  bool failure_within_window = false;
};

/// A dwell sample: the device stayed on (rat, level) without transitioning;
/// control group for the transition matrices.
struct DwellRecord {
  DeviceId device = 0;
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel3;
  bool failure_within_window = false;
};

/// The full backend dataset for one campaign.
struct TraceDataset {
  std::vector<TraceRecord> records;
  std::vector<DeviceMeta> devices;
  std::vector<BsMeta> base_stations;
  ConnectedTimeTable connected_time;
  std::vector<TransitionRecord> transitions;
  std::vector<DwellRecord> dwells;

  /// True failures only (the filter's keep-set) — the analysis view.
  template <typename Fn>
  void for_each_kept(Fn&& fn) const {
    for (const auto& r : records) {
      if (!r.filtered_false_positive) fn(r);
    }
  }
};

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_DATASET_H
