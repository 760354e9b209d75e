// Aggregation over the backend dataset: the statistics behind every table
// and figure in §3.
//
// One single-pass fold computes every table. `Aggregator` is fed either
// incrementally (columnar RecordBatches and per-shard side tables, in the
// campaign merge's shard-index order) or from a whole TraceDataset, which
// it pushes through the same per-row fold. Report rendering
// (`render_full_report`) and the query engine (`src/query`) are written
// once against it and never care which record source produced the numbers.

#ifndef CELLREL_ANALYSIS_AGGREGATE_H
#define CELLREL_ANALYSIS_AGGREGATE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "analysis/batch.h"
#include "analysis/dataset.h"
#include "bs/isp.h"
#include "common/names.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "radio/fail_cause.h"
#include "radio/signal.h"

namespace cellrel {

/// Prevalence & frequency for one device slice.
/// Prevalence: fraction of slice devices with >= 1 kept failure.
/// Frequency: mean number of kept failures among failing devices (matches
/// Table 1, where per-model frequency exceeds zero even at 0.15% prevalence).
struct PrevalenceFrequency {
  std::uint64_t devices = 0;
  std::uint64_t failing_devices = 0;
  std::uint64_t failures = 0;
  double prevalence() const {
    return devices ? static_cast<double>(failing_devices) / static_cast<double>(devices) : 0.0;
  }
  double frequency() const {
    return failing_devices ? static_cast<double>(failures) / static_cast<double>(failing_devices)
                           : 0.0;
  }
};

/// Cell [from_level][to_level] = P(failure | transition from_rat level i ->
/// to_rat level j) - P(failure | dwell at from_rat level i).
using TransitionMatrix = std::array<std::array<double, kSignalLevelCount>, kSignalLevelCount>;

/// Order-independent integer count tables for the RAT-transition analysis
/// (Fig. 17). Shards accumulate these instead of handing O(sessions)
/// TransitionRecord/DwellRecord vectors to the analysis: the transition
/// matrices only ever consume counts, and integer sums are independent of
/// merge grouping, so every feed produces bit-identical matrices.
struct TransitionDwellCounts {
  std::array<std::array<std::uint64_t, kSignalLevelCount>, kRatCount> dwell_total{};
  std::array<std::array<std::uint64_t, kSignalLevelCount>, kRatCount> dwell_fail{};
  std::array<std::array<std::array<std::array<std::uint64_t, kSignalLevelCount>,
                                   kSignalLevelCount>,
                        kRatCount>,
             kRatCount>
      transition_total{};  // [from_rat][to_rat][from_level][to_level]
  std::array<std::array<std::array<std::array<std::uint64_t, kSignalLevelCount>,
                                   kSignalLevelCount>,
                        kRatCount>,
             kRatCount>
      transition_fail{};

  void add(const DwellRecord& d);
  void add(const TransitionRecord& t);
  void merge(const TransitionDwellCounts& other);

  /// The Fig. 17 matrix for one (from_rat, to_rat) panel; cells without a
  /// transition sample are 0.
  TransitionMatrix increase(Rat from_rat, Rat to_rat) const;
};

/// The §3 analysis surface: one fold over the record stream.
///
/// Bit-identity contract: two aggregators fed the same records in the same
/// order (devices, then records, then side tables) answer every query with
/// identical bytes. The campaign merge consumes batches in shard-index
/// order, which equals the sequential record order, so a streamed campaign
/// and `Aggregator(dataset)` of a materialized run of the same scenario
/// agree exactly — floating-point accumulations run in the same order over
/// the same values, and the integer tables are order-independent. Verified
/// by StreamingCampaignTest.
class Aggregator {
 public:
  /// Per-device kept-failure counts (the Fig. 3 CDF series), failing
  /// devices only, per type and total.
  struct PerDeviceCounts {
    SampleSet total;
    std::array<SampleSet, kFailureTypeCount> by_type;
  };

  struct BsRankingStats {
    std::uint64_t median = 0;
    double mean = 0.0;
    std::uint64_t max = 0;
    std::uint64_t with_failures = 0;
    std::uint64_t total = 0;
  };

  struct ErrorCodeShare {
    FailCause cause = FailCause::kUnknown;
    std::uint64_t count = 0;
    double percent = 0.0;  // of all kept Data_Setup_Error failures
  };

  using TransitionMatrix = cellrel::TransitionMatrix;

  struct FilterScore {
    std::uint64_t true_positives = 0;   // FPs correctly filtered
    std::uint64_t false_negatives = 0;  // FPs kept by mistake
    std::uint64_t false_positives = 0;  // true failures wrongly filtered
    std::uint64_t true_negatives = 0;   // true failures kept
    double precision() const {
      const std::uint64_t flagged = true_positives + false_positives;
      return flagged ? static_cast<double>(true_positives) / static_cast<double>(flagged) : 0.0;
    }
    double recall() const {
      const std::uint64_t actual = true_positives + false_negatives;
      return actual ? static_cast<double>(true_positives) / static_cast<double>(actual) : 0.0;
    }
  };

  Aggregator() = default;
  /// Feeds a whole dataset through the fold: devices, then records in
  /// order, then connected time, transition/dwell counts and the BS table.
  explicit Aggregator(const TraceDataset& dataset);

  // --- Ingestion (merge-time, single-threaded, shard-index order) ---
  /// Device metadata for one shard (fleet order; ids ascending overall).
  void add_devices(std::span<const DeviceMeta> devices);
  /// One batch of records, in emission order.
  void consume(const RecordBatch& batch);
  /// One shard's connected-time table (element-wise sum, shard order).
  void add_connected_time(const ConnectedTimeTable& table);
  /// One shard's transition/dwell count tables.
  void add_counts(const TransitionDwellCounts& counts);
  /// The post-merge BS landscape snapshot.
  void set_base_stations(std::vector<BsMeta> base_stations);

  // --- Device-slice prevalence & frequency ---
  PrevalenceFrequency overall() const;
  /// Keyed by model_id 1..34 (Table 1, Fig. 2, Fig. 5).
  std::map<int, PrevalenceFrequency> by_model() const;
  /// [0]: non-5G models, [1]: 5G models (Fig. 6/7). When `android10_only` is
  /// set, restricts to Android 10 models (the paper's fair-comparison
  /// footnote).
  std::array<PrevalenceFrequency, 2> by_5g_capability(bool android10_only = false) const;
  /// [0]: Android 9, [1]: Android 10 (Fig. 8/9). When `exclude_5g` is set,
  /// drops 5G models (fair comparison).
  std::array<PrevalenceFrequency, 2> by_android_version(bool exclude_5g = false) const;
  /// Indexed by IspId (Fig. 12/13).
  std::array<PrevalenceFrequency, kIspCount> by_isp() const;

  /// Mean kept-failure count per failure type over ALL devices (the
  /// "16 setup / 14 stall / 3 OOS per phone" split of Fig. 3).
  std::array<double, kFailureTypeCount> mean_failures_per_device_by_type() const;
  PerDeviceCounts per_device_counts() const;

  // --- Durations (Fig. 4, Fig. 10, Fig. 21) ---
  SampleSet durations_all() const { return durations_all_; }
  SampleSet durations_of(FailureType type) const { return durations_by_type_[index_of(type)]; }
  /// Share of total failure duration per type (Data_Stall ~ 94%).
  std::array<double, kFailureTypeCount> duration_share_by_type() const;

  // --- BS landscape (Fig. 11, Fig. 14) ---
  ZipfFit bs_zipf_fit() const;
  BsRankingStats bs_ranking_stats() const;
  /// Fraction of RAT-r-capable BSes that experienced >= 1 failure (Fig. 14).
  std::array<double, kRatCount> bs_prevalence_by_rat() const;

  // --- Signal levels (Fig. 15 / Fig. 16) ---
  /// Normalized prevalence per level: (failing devices at level / devices)
  /// divided by mean connected hours at that level (Fig. 15).
  std::array<double, kSignalLevelCount> normalized_prevalence_by_level() const;
  /// Same, per (RAT, level) (Fig. 16).
  std::array<std::array<double, kSignalLevelCount>, kRatCount>
  normalized_prevalence_by_rat_level() const;

  // --- Error codes (Table 2) ---
  std::vector<ErrorCodeShare> top_error_codes(std::size_t n = 10) const;

  // --- RAT transitions (Fig. 17) ---
  TransitionMatrix transition_increase(Rat from_rat, Rat to_rat) const {
    return td_.increase(from_rat, to_rat);
  }

  // --- Filter scoring (validation; uses ground truth) ---
  FilterScore filter_score() const { return fscore_; }

  // --- Whole-stream facts (report headers) ---
  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t filtered_records() const { return filtered_records_; }
  /// Whether any record carries a ground-truth false-positive label (an
  /// imported backend dataset does not).
  bool has_ground_truth() const { return has_ground_truth_; }

  /// The fleet/BS metadata the aggregator retains (streaming mode leaves
  /// CampaignResult::dataset empty; these are the surviving copies).
  const std::vector<DeviceMeta>& devices() const { return devices_; }
  const std::vector<BsMeta>& base_stations() const { return base_stations_; }
  const ConnectedTimeTable& connected_time() const { return connected_time_; }

  /// Approximate resident footprint of the aggregation state (memory-
  /// ceiling accounting for the bench; dominated by the duration samples:
  /// 16 bytes per kept record).
  std::size_t resident_bytes() const;

 private:
  /// What the fold keeps per device with >= 1 kept failure.
  struct DeviceFailures {
    std::array<std::uint64_t, kFailureTypeCount> by_type{};
    /// Bit l: a kept failure at signal level l.
    std::uint8_t levels = 0;
    /// Bit rat * kSignalLevelCount + l: a kept failure on (rat, level l).
    std::uint32_t rat_levels = 0;
  };
  static_assert(kSignalLevelCount <= 8 && kRatCount * kSignalLevelCount <= 32,
                "level bitmasks too narrow");

  void fold(const RecordBatch::RowView& r);
  /// Device-slice prevalence: buckets the device table with `classify`
  /// (negative = in no slice), then credits each failing device to its
  /// bucket. A failing device missing from the device table is in no slice.
  template <typename Classify, typename Out>
  void slice_devices(Classify classify, Out& out) const;

  std::vector<DeviceMeta> devices_;
  std::vector<BsMeta> base_stations_;
  ConnectedTimeTable connected_time_;
  /// Ordered: feeds SampleSets on the deterministic export surface
  /// (cellrel-lint: ordered-export).
  std::map<DeviceId, DeviceFailures> counts_;
  SampleSet durations_all_;
  std::array<SampleSet, kFailureTypeCount> durations_by_type_;
  std::array<double, kFailureTypeCount> duration_sums_{};
  double duration_total_ = 0.0;
  std::map<std::int32_t, std::uint64_t> setup_error_codes_;
  std::uint64_t setup_error_total_ = 0;
  TransitionDwellCounts td_;
  FilterScore fscore_;
  std::uint64_t total_records_ = 0;
  std::uint64_t filtered_records_ = 0;
  bool has_ground_truth_ = false;
};

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_AGGREGATE_H
