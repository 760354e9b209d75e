// Unit-cost probes: small, fixed loops over one layer's public API whose
// per-operation cost the campaign's run_shards phase hides. From outside
// the program, that phase can only be split into counts (how much work each
// layer did) times these unit costs.
//
// Each probe returns one sample per repetition, in the unit its name ends
// with; the benchmark reports the median.

#ifndef CELLBENCH_PROBES_H
#define CELLBENCH_PROBES_H

#include <cstdint>
#include <filesystem>
#include <vector>

#include "analysis/dataset.h"
#include "bs/registry.h"

namespace cellbench {

/// sim: schedule + fire of one event (Simulator::schedule_at then run), ns.
std::vector<double> probe_schedule_fire_ns(std::uint64_t seed);

/// net: one TcpSegmentCounters send + stall_suspected window query, ns.
std::vector<double> probe_tcp_window_op_ns();

/// core: one prober ladder over a 40 s network stall, from start to the
/// completion callback, µs.
std::vector<double> probe_probe_ladder_us();

/// bs: one BsRegistry::enumerate_candidates call on a random BS, µs.
std::vector<double> probe_enumerate_candidates_us(const cellrel::BsRegistry& registry,
                                                  std::uint64_t seed);

/// analysis: one RecordBatch::push of a dataset record, ns.
std::vector<double> probe_batch_push_ns(const cellrel::TraceDataset& dataset);

/// analysis: read_spill_batches over every shard file of `spill_dir`, ns per
/// row read. `rows` receives the row count of the last repetition.
std::vector<double> probe_spill_read_ns_per_row(const std::filesystem::path& spill_dir,
                                                std::uint64_t* rows);

}  // namespace cellbench

#endif  // CELLBENCH_PROBES_H
