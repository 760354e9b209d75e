// cellbench: the cellrel benchmark. One process runs one workload of the
// paper's pipeline — measure (the Android-MOD campaign), analyse (the §3
// report and query presets) and enhance (the §4.2 TIMP probations) — and
// prints every metric with its unit, then one JSON result line.
//
//   cellbench --workload paper_campaign|mobile_fleet|analysis_replay
//             [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] [--git TEXT]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every call into a layer's public API, writes them to DIR, and reports the
// per-layer metrics instead. The exit code is 0 only when no operation
// failed: every campaign of one seed must fingerprint identically, every
// deterministic count must repeat exactly, every spill-shard query must
// match its dataset query byte for byte, and no call may throw. README.md
// in this directory explains the workloads and every metric.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "analysis/full_report.h"
#include "detect/detector.h"
#include "host_speed.h"
#include "obs/export.h"
#include "probes.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "timp/recovery_optimizer.h"
#include "trace.h"
#include "workload/campaign.h"

#ifndef CELLBENCH_BUILD_TYPE
#define CELLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CELLBENCH_CXX_FLAGS
#define CELLBENCH_CXX_FLAGS ""
#endif

namespace cellbench {
namespace {

namespace fs = std::filesystem;
using namespace cellrel;

// --- Workload sizes ---------------------------------------------------------
// Chosen so one campaign or analysis pass takes about half a second to a
// few seconds on a 4-core host, so that enough passes fit in a 30 s run
// for a steady median.
constexpr std::uint32_t kPaperDevices = 2500;
constexpr std::uint32_t kMobileDevices = 2000;
constexpr std::uint32_t kReplayDevices = 4000;
constexpr std::uint32_t kBsCount = 8000;
/// Fleets one run cycles through, each drawn from its own seed derived from
/// --seed. How much work one fleet makes moves with its seed: at 2,500
/// devices the records and events of eight seeds spread over ±10%, and a
/// fleet of 10,000 still spreads ±6%. Timings taken over four fleets move
/// about half as much from one --seed to the next.
constexpr int kFleets = 4;
/// Fewest timed iterations, whatever --seconds says: every fleet runs once
/// and the first one twice, so a repeat is always checked. A 30 s run
/// repeats most fleets.
constexpr int kMinIterations = kFleets + 1;

/// Seed of fleet `k` of a run (SplitMix64 of --seed and k).
std::uint64_t fleet_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The repository's default campaign seed; --seed overrides it. Claims are
/// checked again on the held-out seed 20240607, never used while tuning.
constexpr std::uint64_t kDefaultSeed = 20200101;

// --- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  fs::path out_dir = ".bench_out";
  std::string git = "unknown";
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") return std::nullopt;
      o.trace = std::string_view(v) == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else if (flag == "--git") {
      o.git = v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload != "paper_campaign" && o.workload != "mobile_fleet" &&
      o.workload != "analysis_replay") {
    return std::nullopt;
  }
  return o;
}

// --- Host measurements ------------------------------------------------------

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Returns freed heap to the OS and restarts the kernel's resident-memory
/// high-water mark, so the next peak_rss_mb() covers only what runs after
/// this call. False when the kernel refuses the reset; the peak then spans
/// the whole process.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Samples ----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double median() const { return quantile(v, 0.5); }
};

// --- Correctness gate -------------------------------------------------------

/// Counts every operation the benchmark attempts and every one that failed:
/// a call that threw, or an output that did not match what it must match.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }

  /// Runs `fn`; a thrown exception counts as a failed operation.
  bool attempt(const std::string& what, const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      check(false, what + " threw: " + e.what());
      return false;
    }
    check(true, what);
    return true;
  }
};

/// FNV-1a, order-sensitive.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  void mix(std::string_view s) {
    for (const char c : s) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    mix(s.size());
  }
};

/// Everything a campaign exports that must repeat exactly for one seed: the
/// records (or, in streaming mode, the §3 report folded from them), the
/// deterministic metrics JSON, the event count, the inline query results
/// and the health report.
std::uint64_t fingerprint(const CampaignResult& r) {
  Fnv f;
  for (const TraceRecord& rec : r.dataset.records) {
    f.mix(rec.device);
    f.mix(static_cast<std::uint64_t>(rec.at.since_origin().count_us()));
    f.mix(static_cast<std::uint64_t>(rec.duration.count_us()));
    f.mix(static_cast<std::uint64_t>(rec.type));
    f.mix(rec.bs);
    f.mix(static_cast<std::uint64_t>(rec.cause));
    f.mix(rec.filtered_false_positive ? 1u : 0u);
  }
  if (r.stream) f.mix(render_full_report(*r.stream));
  f.mix(obs::metrics_to_json(r.metrics));
  f.mix(r.simulated_events);
  f.mix(r.episodes_run);
  for (const query::QueryResult& q : r.query_results) f.mix(query::query_result_to_json(q));
  if (r.health) f.mix(detect::health_report_to_json(*r.health));
  return f.h;
}

std::uint64_t counter(const CampaignResult& r, std::string_view name) {
  const auto& c = r.metrics.counters();
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second.value;
}

double gauge(const CampaignResult& r, std::string_view name) {
  const auto& g = r.metrics.gauges();
  const auto it = g.find(name);
  return it == g.end() ? 0.0 : it->second.value;
}

double phase_s(const CampaignResult& r, std::string_view phase) {
  const auto& w = r.metrics.wall_timers();
  const auto it = w.find("phase." + std::string(phase));
  return it == w.end() ? 0.0 : it->second.total_s;
}

// --- Scenarios --------------------------------------------------------------

/// The paper's §3 measurement campaign: stock policy, vanilla recovery,
/// probing on, no scenario pack, materialized merge.
Scenario paper_scenario(std::uint64_t seed, std::uint32_t devices, std::uint32_t threads) {
  Scenario sc;
  sc.name = "paper_campaign";
  sc.seed = seed;
  sc.device_count = devices;
  sc.deployment.bs_count = kBsCount;
  sc.threads = threads;
  return sc;
}

/// The same engine used differently: commuting devices, the §4 stability
/// policy with TIMP recovery, a regional outage with national roaming and a
/// degradation wave (the CLI's default mid-campaign windows), online
/// detection, streaming merge with spill, and the presets that read this
/// scenario answered inline.
Scenario mobile_scenario(std::uint64_t seed, std::uint32_t threads, const fs::path& spill) {
  Scenario sc = paper_scenario(seed, kMobileDevices, threads);
  sc.name = "mobile_fleet";
  sc.mobility.enabled = true;
  sc.policy = PolicyVariant::kStabilityCompatible;
  sc.recovery = RecoveryVariant::kTimpOptimized;
  const double start = sc.campaign_days * 0.25;
  const double span = sc.campaign_days * 0.5;
  sc.incident.outage = true;
  sc.incident.national_roaming = true;
  sc.incident.outage_start_day = start;
  sc.incident.outage_days = span;
  sc.incident.degraded_clusters = 6;
  sc.incident.degradation_start_day = start;
  sc.incident.degradation_days = span;
  sc.detect = true;
  sc.stream = true;
  sc.spill_dir = spill.string();
  for (const char* name : {"fig17", "mobility", "incident"}) {
    sc.inline_queries.push_back(*query::find_preset(name));
  }
  return sc;
}

// --- The run ----------------------------------------------------------------

struct CampaignRun {
  std::uint64_t seed = 0;   // the fleet's seed
  double factor = 1.0;      // speed_factor() of the readings around it
  double readings_s = 0.0;  // wall time of those readings when set-up took them
  double ctor_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  double rss_mb = 0.0;
  std::uint32_t threads = 1;
  CampaignResult result;
};

/// A dataset directory and the matching spill-shard directory of one
/// scenario, as `cellrel_campaign --out` and `--stream --spill-dir` write
/// them.
struct Product {
  std::uint64_t seed = 0;  // the fleet's seed
  fs::path dataset_dir;
  fs::path spill_dir;
};

/// Wall seconds of one timed call and the speed_factor() of the readings
/// around it.
struct Timed {
  double raw_s = 0.0;
  double factor = 1.0;
  double s() const { return raw_s * factor; }
};

struct AnalysisPass {
  Timed load;
  Timed report;
  Timed dataset_suite;
  Timed spill_suite;
  Timed timp;
  double rss_mb = 0.0;
  std::vector<double> dataset_ms;  // per preset, preset_table() order
  std::vector<double> spill_ms;
  std::uint64_t seed = 0;  // the fleet's seed
  std::uint64_t records = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t fingerprint = 0;
};

class Bench {
 public:
  explicit Bench(Options opt)
      : opt_(std::move(opt)),
        tracer_(opt_.trace),
        cpus_(nproc()),
        work_(opt_.out_dir / ("work-" + opt_.workload + "-" + std::to_string(opt_.seed))) {}

  int run();

 private:
  // Workloads.
  void campaign_workload(const std::vector<Scenario>& fleets);
  void analysis_replay(const std::vector<Scenario>& fleets);

  // Building blocks.
  CampaignRun run_campaign(const Scenario& sc);
  void record_campaign(const CampaignRun& run, bool timed_loop);
  Product make_product(const Scenario& base, std::optional<CampaignRun>* materialized = nullptr);
  std::vector<Product> make_products_in_child(const std::vector<Scenario>& fleets);
  AnalysisPass analyse(const Product& p);
  void record_analysis(const AnalysisPass& pass);
  void probes(const Product& p, const Scenario& sc);
  void pin_counts(std::uint64_t seed, const std::map<std::string, double>& now,
                  const std::string& what);
  /// Sum of a pinned count over every fleet that has it.
  double pinned_total(const std::string& name) const;
  /// The per-layer metrics derived from the pinned counts.
  void derive_counts();
  /// One reading of the reference kernel on `threads` threads (host_speed.h).
  double reading(unsigned threads);
  /// Files a timing in nominal-host units and keeps its wall value beside it.
  void add_time(const std::string& name, double raw, double factor);

  bool loop_continues(double start, int done) const {
    return done < kMinIterations || now_s() - start < opt_.seconds;
  }

  // Reporting.
  void print_report();
  std::string provenance_json() const;

  Options opt_;
  Tracer tracer_;
  Gate gate_;
  unsigned cpus_;
  fs::path work_;
  bool rss_reset_ok_ = true;

  std::map<std::string, Samples> samples_;        // timings, by metric name
  std::map<std::string, Samples> raw_;            // the same timings as wall time
  std::map<unsigned, Samples> readings_;          // reference readings, by threads
  std::map<std::string, double> values_;          // single-valued metrics
  // By fleet seed: deterministic counts, the first campaign's fingerprint
  // and the first analysis pass's fingerprint.
  std::map<std::uint64_t, std::map<std::string, double>> pinned_;
  std::map<std::uint64_t, std::uint64_t> campaign_fp_;
  std::map<std::uint64_t, std::uint64_t> analysis_fp_;
  std::uint32_t threads_used_ = 1;
  Samples traced_main_, untraced_main_;           // tracing overhead, --trace 1
  std::vector<double> coverage_;
};

CampaignRun Bench::run_campaign(const Scenario& sc) {
  CampaignRun out;
  out.seed = sc.seed;
  out.threads = sc.resolve_threads();
  rss_reset_ok_ = reset_peak_rss() && rss_reset_ok_;
  const double t0 = now_s();
  std::optional<Campaign> campaign;
  {
    Tracer::Scope s(tracer_, "Campaign::Campaign");
    campaign.emplace(sc);
  }
  const double t1 = now_s();
  const double c1 = cpu_s();
  std::uint32_t run_span = 0;
  {
    Tracer::Scope s(tracer_, "Campaign::run");
    run_span = s.id();
    out.result = campaign->run();
  }
  const double t2 = now_s();
  out.run_cpu_s = cpu_s() - c1;
  out.rss_mb = peak_rss_mb();
  out.ctor_s = t1 - t0;
  out.run_s = t2 - t1;
  if (run_span != 0) {
    // The program times its own phases (phase.* wall timers); they run
    // back to back inside Campaign::run, so lay them out from its start.
    double at = t1;
    for (const char* phase : {"plan_fleet", "run_shards", "merge", "detect"}) {
      const double d = phase_s(out.result, phase);
      if (d <= 0.0) continue;
      tracer_.add(std::string("phase.") + phase, run_span, at, at + d);
      at += d;
    }
    coverage_.push_back(tracer_.child_coverage(run_span));
  }
  return out;
}

/// Checks a campaign against the first one of its fleet and files its
/// timings. `timed_loop` is false for the set-up campaigns of
/// analysis_replay, which feed campaign_s but not setup_s or peak_rss_mb.
void Bench::record_campaign(const CampaignRun& run, bool timed_loop) {
  const CampaignResult& r = run.result;
  const std::uint64_t fp = fingerprint(r);
  const auto [first, fresh] = campaign_fp_.try_emplace(run.seed, fp);
  gate_.check(fresh || first->second == fp,
              "campaign fingerprint differs from the first run of fleet seed " +
                  std::to_string(run.seed));

  const double devices = gauge(r, "campaign.fleet.devices");
  const std::uint64_t records = counter(r, "dataplane.records_batched");
  gate_.check(devices > 0 && records > 0, "campaign produced no devices or no records");
  threads_used_ = std::max(threads_used_, run.threads);

  std::uint64_t ril = 0;
  for (const auto& [name, t] : r.metrics.sim_timers()) {
    if (name.rfind("ril.", 0) == 0) ril += t.count;
  }
  std::uint64_t stages = 0;
  for (const auto& [name, c] : r.metrics.counters()) {
    if (name.rfind("recovery.stage.", 0) == 0) stages += c.value;
  }
  const auto count = [&r](std::string_view name) {
    return static_cast<double>(counter(r, name));
  };
  const auto ev = static_cast<double>(r.simulated_events);
  pin_counts(run.seed,
             {{"campaign.devices", devices},
              {"campaign.records", static_cast<double>(records)},
              {"sim.events", ev},
              {"telephony.stall_checks", count("data_stall.checks")},
              {"telephony.stall_episodes", count("data_stall.episodes")},
              {"telephony.setup_attempts", count("dc_tracker.setup.attempts")},
              {"telephony.setup_failures", count("dc_tracker.setup.failures")},
              {"telephony.recovery_episodes", count("recovery.episodes")},
              {"telephony.recovery_stages", static_cast<double>(stages)},
              {"radio.ril_commands", static_cast<double>(ril)},
              {"core.probe_rounds", count("monitor.probe.rounds")},
              {"core.records_written", count("monitor.records.written")},
              {"core.events_handled", count("monitor.events.handled")},
              {"bs.handover_sessions", count("mobility.handover_sessions")},
              {"detect.cells_tracked", count("health.cells.tracked")}},
             "campaign");

  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double peak_batch = gauge(r, "process.dataplane.peak_batch_bytes");
  samples_["analysis.peak_batch_bytes"].add(peak_batch);
  samples_["analysis.spilled_bytes"].add(gauge(r, "process.dataplane.spilled_bytes"));
  // Bytes the data plane pins per record at its high-water mark: the
  // exact-reserved merged dataset (materialized mode) plus the resident
  // columnar batches.
  samples_["analysis.bytes_per_record"].add(
      per(static_cast<double>(r.dataset.records.capacity() * sizeof(TraceRecord)) + peak_batch,
          static_cast<double>(records)));

  const double f = run.factor;
  add_time("campaign_s", run.run_s, f);
  add_time("cpu_us_per_device", per(run.run_cpu_s * 1e6, devices), f);
  add_time("sim.cpu_ns_per_event", per(run.run_cpu_s * 1e9, ev), f);
  samples_["common.parallel_efficiency"].add(
      per(run.run_cpu_s, run.run_s * static_cast<double>(run.threads)));
  add_time("bs.registry_build_s", run.ctor_s, f);
  add_time("workload.plan_fleet_s", phase_s(r, "plan_fleet"), f);
  add_time("workload.run_shards_s", phase_s(r, "run_shards"), f);
  add_time("workload.merge_s", phase_s(r, "merge"), f);
  add_time("detect.analyze_s", phase_s(r, "detect"), f);
  if (timed_loop) {
    add_time("setup_s", run.ctor_s, f);
    samples_["peak_rss_mb"].add(run.rss_mb);
  }
}

double Bench::reading(unsigned threads) {
  Tracer::Scope s(tracer_, "host.reference");
  const double r = reference_reading_s(threads);
  readings_[threads].add(r);
  return r;
}

void Bench::add_time(const std::string& name, double raw, double factor) {
  samples_[name].add(raw * factor);
  raw_[name].add(raw);
}

void Bench::pin_counts(std::uint64_t seed, const std::map<std::string, double>& now,
                       const std::string& what) {
  std::string drift;
  std::map<std::string, double>& pinned = pinned_[seed];
  for (const auto& [name, value] : now) {
    const auto [it, fresh] = pinned.try_emplace(name, value);
    if (!fresh && it->second != value) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), " %s %.17g -> %.17g", name.c_str(), it->second, value);
      drift += buf;
    }
  }
  gate_.check(drift.empty(), what + " deterministic counts of fleet seed " + std::to_string(seed) +
                                 " drifted:" + drift);
}

double Bench::pinned_total(const std::string& name) const {
  double total = 0.0;
  for (const auto& [seed, counts] : pinned_) {
    const auto it = counts.find(name);
    if (it != counts.end()) total += it->second;
  }
  return total;
}

/// Ratios over the sums of every fleet's counts, so they are as exact as the
/// counts and do not depend on how many times each fleet ran.
void Bench::derive_counts() {
  const auto ratio = [this](const std::string& num, const std::string& den) {
    const double d = pinned_total(den);
    return d > 0.0 ? pinned_total(num) / d : 0.0;
  };
  const double fleets = static_cast<double>(std::max<std::size_t>(pinned_.size(), 1));
  values_["sim.events_per_device"] = ratio("sim.events", "campaign.devices");
  values_["sim.events_per_record"] = ratio("sim.events", "campaign.records");
  values_["telephony.stall_checks_per_device"] =
      ratio("telephony.stall_checks", "campaign.devices");
  values_["telephony.setup_attempts_per_device"] =
      ratio("telephony.setup_attempts", "campaign.devices");
  values_["telephony.setup_success_ratio"] =
      1.0 - ratio("telephony.setup_failures", "telephony.setup_attempts");
  values_["telephony.recovery_stages_per_episode"] =
      ratio("telephony.recovery_stages", "telephony.recovery_episodes");
  values_["radio.ril_commands_per_device"] = ratio("radio.ril_commands", "campaign.devices");
  values_["core.probe_rounds_per_stall"] = ratio("core.probe_rounds", "telephony.stall_episodes");
  values_["core.records_per_event_handled"] =
      ratio("core.records_written", "core.events_handled");
  values_["bs.handover_sessions_per_device"] = ratio("bs.handover_sessions", "campaign.devices");
  values_["detect.cells_tracked"] = pinned_total("detect.cells_tracked") / fleets;
  values_["timp.evaluations"] = pinned_total("timp.evaluations") / fleets;
}

/// Where a fleet's dataset and spill directories go.
Product product_dirs(const fs::path& work, std::uint64_t seed) {
  const std::string fleet = std::to_string(seed);
  return {seed, work / ("dataset-" + fleet), work / ("spill-" + fleet)};
}

/// Writes the scenario's dataset and spill directories. `materialized`, when
/// given, receives the materialized campaign's run for the caller to file as
/// a campaign_s sample; both campaigns then run on the scenario's threads.
/// Otherwise set-up is untimed and runs on every core.
Product Bench::make_product(const Scenario& base, std::optional<CampaignRun>* materialized) {
  const Product p = product_dirs(work_, base.seed);
  Scenario mat = base;
  mat.stream = false;
  mat.spill_dir.clear();
  mat.inline_queries.clear();
  if (materialized == nullptr) mat.threads = cpus_;
  std::uint64_t records = 0;
  gate_.attempt("materialized campaign + dataset export", [&] {
    const double before = materialized != nullptr ? reading(mat.threads) : 0.0;
    CampaignRun run = run_campaign(mat);
    if (materialized != nullptr) {
      const double after = reading(mat.threads);
      run.factor = speed_factor(before, after);
      run.readings_s = before + after;
    }
    records = counter(run.result, "dataplane.records_batched");
    {
      Tracer::Scope s(tracer_, "write_dataset_csv");
      fs::remove_all(p.dataset_dir);
      write_dataset_csv(run.result.dataset, p.dataset_dir);
    }
    if (materialized != nullptr) materialized->emplace(std::move(run));
  });
  Scenario spill = mat;
  spill.stream = true;
  spill.spill_dir = p.spill_dir.string();
  gate_.attempt("streaming campaign with spill", [&] {
    fs::remove_all(p.spill_dir);
    const CampaignRun run = run_campaign(spill);
    gate_.check(counter(run.result, "dataplane.records_batched") == records,
                "spill campaign wrote another record count than the materialized one");
  });
  return p;
}

/// Writes every fleet's directories from a child process. Its campaigns run
/// on nproc threads, and the allocator keeps what those threads' arenas
/// held: done in this process, it would add about 35 MB to every later
/// peak_rss_mb sample of mobile_fleet. The child's failures print there and
/// count here as one failed operation. Call it before this process starts
/// any thread.
std::vector<Product> Bench::make_products_in_child(const std::vector<Scenario>& fleets) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    for (const Scenario& sc : fleets) make_product(sc);
    std::fflush(stdout);
    _exit(gate_.failed == 0 ? 0 : 1);
  }
  int status = 0;
  gate_.check(pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0,
              "writing the fleets' dataset and spill directories failed");
  std::vector<Product> products;
  for (const Scenario& sc : fleets) products.push_back(product_dirs(work_, sc.seed));
  return products;
}

AnalysisPass Bench::analyse(const Product& p) {
  AnalysisPass out;
  out.seed = p.seed;
  rss_reset_ok_ = reset_peak_rss() && rss_reset_ok_;
  Fnv fp;
  const std::span<const query::PresetInfo> presets = query::preset_table();
  std::vector<std::string> dataset_json(presets.size());
  std::uint32_t root_id = 0;
  {
    Tracer::Scope root(tracer_, "analysis.pass");
    root_id = root.id();
    // Each call is timed between two readings of the reference kernel; the
    // reading after one call is the reading before the next.
    double before = reading(1);
    const auto timed = [&](Timed& out_t, const std::function<void()>& fn) {
      const double t = now_s();
      fn();
      out_t.raw_s = now_s() - t;
      const double after = reading(1);
      out_t.factor = speed_factor(before, after);
      before = after;
    };
    TraceDataset ds;
    timed(out.load, [&] {
      gate_.attempt("read_dataset_csv", [&] {
        Tracer::Scope s(tracer_, "read_dataset_csv");
        ds = read_dataset_csv(p.dataset_dir);
      });
    });
    out.records = ds.records.size();

    timed(out.report, [&] {
      gate_.attempt("full report", [&] {
        Tracer::Scope s(tracer_, "Aggregator+render_full_report");
        fp.mix(render_full_report(Aggregator(ds)));
      });
    });

    timed(out.dataset_suite, [&] {
      Tracer::Scope s(tracer_, "query.dataset_suite");
      for (std::size_t i = 0; i < presets.size(); ++i) {
        const std::string name(presets[i].name);
        const double q0 = now_s();
        gate_.attempt("dataset preset " + name, [&] {
          Tracer::Scope q(tracer_, "execute_over_dataset:" + name);
          dataset_json[i] = query::query_result_to_json(
              query::execute_over_dataset(ds, *query::find_preset(name)));
        });
        out.dataset_ms.push_back((now_s() - q0) * 1e3);
        fp.mix(dataset_json[i]);
      }
    });

    timed(out.spill_suite, [&] {
      Tracer::Scope s(tracer_, "query.spill_suite");
      TraceDataset sidecars;
      gate_.attempt("read_dataset_sidecars_csv", [&] {
        Tracer::Scope q(tracer_, "read_dataset_sidecars_csv");
        sidecars = read_dataset_sidecars_csv(p.dataset_dir);
      });
      for (std::size_t i = 0; i < presets.size(); ++i) {
        const std::string name(presets[i].name);
        const double q0 = now_s();
        std::string json;
        gate_.attempt("spill preset " + name, [&] {
          Tracer::Scope q(tracer_, "execute_over_spill:" + name);
          json = query::query_result_to_json(
              query::execute_over_spill(p.spill_dir, sidecars, *query::find_preset(name)));
        });
        out.spill_ms.push_back((now_s() - q0) * 1e3);
        gate_.check(json == dataset_json[i],
                    "spill preset " + name + " JSON differs from the dataset preset");
      }
    });

    timed(out.timp, [&] {
      gate_.attempt("TIMP optimize", [&] {
        Tracer::Scope s(tracer_, "RecoveryOptimizer::optimize");
        std::vector<double> durations;
        ds.for_each_kept([&durations](const TraceRecord& r) {
          if (r.type == FailureType::kDataStall) durations.push_back(r.duration.to_seconds());
        });
        RecoveryOptimizer optimizer(
            TimpModel(AutoRecoveryCurve::from_durations(durations), TimpModel::Params{}));
        const OptimizedRecovery opt = optimizer.optimize();
        out.evaluations = opt.evaluations;
        for (const double pro : opt.probations_s) fp.mix(std::bit_cast<std::uint64_t>(pro));
        fp.mix(std::bit_cast<std::uint64_t>(opt.expected_recovery_s));
        if (!(opt.expected_recovery_s <= opt.vanilla_expected_recovery_s)) {
          throw std::runtime_error("optimized schedule is slower than vanilla {60, 60, 60}");
        }
      });
    });
  }
  if (root_id != 0) coverage_.push_back(tracer_.child_coverage(root_id));
  out.rss_mb = peak_rss_mb();
  out.fingerprint = fp.h;
  return out;
}

void Bench::record_analysis(const AnalysisPass& pass) {
  const auto [first, fresh] = analysis_fp_.try_emplace(pass.seed, pass.fingerprint);
  gate_.check(fresh || first->second == pass.fingerprint,
              "analysis outputs differ from the first pass over the same dataset");
  pin_counts(pass.seed,
             {{"analysis.records", static_cast<double>(pass.records)},
              {"timp.evaluations", static_cast<double>(pass.evaluations)}},
             "analysis");
  // The dataset on disk came from the same scenario as the campaigns.
  gate_.check(pass.records == static_cast<std::uint64_t>(pinned_[pass.seed]["campaign.records"]),
              "analysed dataset holds another record count than the campaign wrote");
  add_time("load_s", pass.load.raw_s, pass.load.factor);
  add_time("report_s", pass.report.raw_s, pass.report.factor);
  add_time("query_suite_s", pass.dataset_suite.raw_s, pass.dataset_suite.factor);
  add_time("spill_query_suite_s", pass.spill_suite.raw_s, pass.spill_suite.factor);
  add_time("timp_optimize_s", pass.timp.raw_s, pass.timp.factor);
  const auto rows = static_cast<double>(std::max<std::uint64_t>(pass.records, 1));
  samples_["analysis.csv_read_ns_per_row"].add(pass.load.s() * 1e9 / rows);
  samples_["query.ns_per_ingested_row"].add(
      (pass.dataset_suite.s() + pass.spill_suite.s()) * 1e9 /
      (2.0 * static_cast<double>(pass.dataset_ms.size()) * rows));
  samples_["timp.us_per_evaluation"].add(
      pass.timp.s() * 1e6 / static_cast<double>(std::max<std::uint64_t>(pass.evaluations, 1)));
  const std::span<const query::PresetInfo> presets = query::preset_table();
  for (std::size_t i = 0; i < presets.size() && i < pass.dataset_ms.size(); ++i) {
    const std::string name(presets[i].name);
    samples_["query.dataset." + name + "_ms"].add(pass.dataset_ms[i] * pass.dataset_suite.factor);
    samples_["query.spill." + name + "_ms"].add(pass.spill_ms[i] * pass.spill_suite.factor);
  }
}

/// paper_campaign and mobile_fleet: construct and run each fleet's campaign
/// in turn, again and again for --seconds. Each campaign alternates with one
/// analysis pass over the same fleet's output, so every end-to-end metric
/// exists on every workload and both kinds of sample span the whole run.
void Bench::campaign_workload(const std::vector<Scenario>& fleets) {
  const std::vector<Product> products = make_products_in_child(fleets);
  const double start = now_s();
  for (int i = 0; loop_continues(start, i); ++i) {
    const Scenario& sc = fleets[static_cast<std::size_t>(i) % fleets.size()];
    // --trace 1 alternates untraced and traced rounds over all fleets; the
    // difference of their medians is the tracing overhead.
    const bool traced = opt_.trace && (static_cast<std::size_t>(i) / fleets.size()) % 2 == 1;
    tracer_.set_enabled(traced);
    std::optional<CampaignRun> run;
    const unsigned threads = sc.resolve_threads();
    const double before = reading(threads);
    if (!gate_.attempt("campaign", [&] { run.emplace(run_campaign(sc)); })) break;
    run->factor = speed_factor(before, reading(threads));
    record_campaign(*run, true);
    (traced ? traced_main_ : untraced_main_).add(run->run_s);
    record_analysis(analyse(products[static_cast<std::size_t>(i) % products.size()]));
  }
  tracer_.set_enabled(opt_.trace);
  if (!opt_.trace) return;

  const Scenario& first = fleets.front();
  const auto fp = campaign_fp_.find(first.seed);
  if (first.threads > 1 && fp != campaign_fp_.end()) {
    // The sharded executor promises the 1-thread result at any thread count.
    Scenario one = first;
    one.threads = 1;
    if (!one.spill_dir.empty()) one.spill_dir = (work_ / "spill-1thread").string();
    std::optional<CampaignRun> run;
    if (gate_.attempt("1-thread campaign", [&] { run.emplace(run_campaign(one)); })) {
      gate_.check(fingerprint(run->result) == fp->second,
                  "campaign at 1 thread differs from the same scenario at " +
                      std::to_string(first.threads) + " threads");
    }
  }
  probes(products.front(), first);
}

/// analysis_replay: set-up generates a fleet's dataset and spill
/// directories; the timed part replays what a cellrel_analyze/cellrel_query
/// user does with them. Set-up repeats before every pass, taking the fleets
/// in turn, so that set-up is sampled several times and every kind of
/// sample spans the whole run.
void Bench::analysis_replay(const std::vector<Scenario>& fleets) {
  Product p;
  const double start = now_s();
  for (int i = 0; loop_continues(start, i); ++i) {
    const Scenario& sc = fleets[static_cast<std::size_t>(i) % fleets.size()];
    const bool traced = opt_.trace && (static_cast<std::size_t>(i) / fleets.size()) % 2 == 1;
    tracer_.set_enabled(traced);
    std::optional<CampaignRun> materialized;
    const double before = reading(sc.threads);
    const double t0 = now_s();
    {
      Tracer::Scope s(tracer_, "setup");
      p = make_product(sc, &materialized);
    }
    double setup_s = now_s() - t0;
    const double factor = speed_factor(before, reading(sc.threads));
    if (materialized) {
      setup_s -= materialized->readings_s;
      record_campaign(*materialized, false);
      materialized.reset();
    }
    add_time("setup_s", setup_s, factor);
    const AnalysisPass pass = analyse(p);
    record_analysis(pass);
    samples_["peak_rss_mb"].add(pass.rss_mb);
    const double total = pass.load.raw_s + pass.report.raw_s + pass.dataset_suite.raw_s +
                         pass.spill_suite.raw_s + pass.timp.raw_s;
    (traced ? traced_main_ : untraced_main_).add(total);
  }
  tracer_.set_enabled(opt_.trace);
  // The probes read the dataset of the last pass; every fleet shares the
  // deployment they build a registry from.
  if (opt_.trace) probes(p, fleets.front());
}

void Bench::probes(const Product& p, const Scenario& sc) {
  Tracer::Scope root(tracer_, "probes");
  const auto add_all = [this](const char* name, const std::vector<double>& v) {
    for (const double x : v) samples_[name].add(x);
  };
  gate_.attempt("probe sim", [&] {
    Tracer::Scope s(tracer_, "probe:Simulator::schedule_at+run");
    add_all("sim.schedule_fire_ns", probe_schedule_fire_ns(opt_.seed));
  });
  gate_.attempt("probe net", [&] {
    Tracer::Scope s(tracer_, "probe:TcpSegmentCounters");
    add_all("net.tcp_window_op_ns", probe_tcp_window_op_ns());
  });
  gate_.attempt("probe core", [&] {
    Tracer::Scope s(tracer_, "probe:NetworkStateProber");
    add_all("core.probe_ladder_us", probe_probe_ladder_us());
  });
  gate_.attempt("probe bs", [&] {
    Tracer::Scope s(tracer_, "probe:BsRegistry::enumerate_candidates");
    Rng rng = Rng(opt_.seed).fork(0xb5u);
    const BsRegistry registry(sc.deployment, rng);
    add_all("bs.enumerate_candidates_us", probe_enumerate_candidates_us(registry, opt_.seed));
  });
  gate_.attempt("probe analysis", [&] {
    TraceDataset ds;
    {
      Tracer::Scope s(tracer_, "read_dataset_csv");
      ds = read_dataset_csv(p.dataset_dir);
    }
    {
      Tracer::Scope s(tracer_, "probe:RecordBatch::push");
      add_all("analysis.batch_push_ns", probe_batch_push_ns(ds));
    }
    Tracer::Scope s(tracer_, "probe:read_spill_batches");
    std::uint64_t rows = 0;
    add_all("analysis.spill_read_ns_per_row", probe_spill_read_ns_per_row(p.spill_dir, &rows));
    if (rows != ds.records.size()) {
      throw std::runtime_error("spill shards hold " + std::to_string(rows) +
                               " rows, the dataset " + std::to_string(ds.records.size()));
    }
  });
}

// --- Reporting ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0), as BENCHMARK.json names them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},   {"success_ratio", "ratio"},
    {"campaign_s", "s"},      {"cpu_us_per_device", "us"}, {"load_s", "s"},
    {"report_s", "s"},        {"query_suite_s", "s"},  {"spill_query_suite_s", "s"},
    {"timp_optimize_s", "s"},
};

// Per-layer metrics (--trace 1) other than the per-preset query timings.
constexpr MetricDef kPerLayer[] = {
    {"workload.plan_fleet_s", "s"},
    {"bs.registry_build_s", "s"},
    {"workload.run_shards_s", "s"},
    {"workload.merge_s", "s"},
    {"common.parallel_efficiency", "ratio"},
    {"sim.events_per_device", "count"},
    {"sim.events_per_record", "count"},
    {"sim.cpu_ns_per_event", "ns"},
    {"sim.schedule_fire_ns", "ns"},
    {"telephony.stall_checks_per_device", "count"},
    {"telephony.setup_attempts_per_device", "count"},
    {"telephony.setup_success_ratio", "ratio"},
    {"telephony.recovery_stages_per_episode", "count"},
    {"radio.ril_commands_per_device", "count"},
    {"core.probe_rounds_per_stall", "count"},
    {"core.records_per_event_handled", "ratio"},
    {"net.tcp_window_op_ns", "ns"},
    {"core.probe_ladder_us", "us"},
    {"bs.handover_sessions_per_device", "count"},
    {"bs.enumerate_candidates_us", "us"},
    {"analysis.peak_batch_bytes", "bytes"},
    {"analysis.spilled_bytes", "bytes"},
    {"analysis.bytes_per_record", "bytes"},
    {"analysis.batch_push_ns", "ns"},
    {"analysis.csv_read_ns_per_row", "ns"},
    {"analysis.spill_read_ns_per_row", "ns"},
    {"query.ns_per_ingested_row", "ns"},
    {"detect.analyze_s", "s"},
    {"detect.cells_tracked", "count"},
    {"timp.evaluations", "count"},
    {"timp.us_per_evaluation", "us"},
    {"trace.child_coverage", "ratio"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Sanitizers compiled into this binary, space-separated; empty for none.
std::string sanitizers() {
  std::string out;
#if defined(__SANITIZE_ADDRESS__)
  out += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  out += "thread ";
#endif
  if (std::strstr(CELLBENCH_CXX_FLAGS, "-fsanitize") != nullptr) out += "flags ";
  return out;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Timings from an unoptimized or sanitized build are not comparable.
bool build_flagged() { return !kOptimized || !sanitizers().empty(); }

std::string Bench::provenance_json() const {
  std::string fleets;
  for (const auto& [seed, counts] : pinned_) {
    const auto count = [&counts](const char* name) {
      const auto it = counts.find(name);
      const double v = it == counts.end() ? 0.0 : it->second;
      return std::to_string(static_cast<unsigned long long>(v));
    };
    fleets += std::string(fleets.empty() ? "" : ", ") + "{\"seed\": " + std::to_string(seed) +
              ", \"devices\": " + count("campaign.devices") + ", \"records\": " +
              count("campaign.records") + "}";
  }
  return "{\"workload\": \"" + opt_.workload + "\", \"seed\": " + std::to_string(opt_.seed) +
         ", \"trace\": " + (opt_.trace ? "1" : "0") + ", \"nproc\": " + std::to_string(cpus_) +
         ", \"threads\": " + std::to_string(threads_used_) +
         ", \"build_type\": \"" CELLBENCH_BUILD_TYPE "\", \"optimized\": " +
         (kOptimized ? "true" : "false") + ", \"sanitizers\": \"" + sanitizers() +
         "\", \"flagged\": " + (build_flagged() ? "true" : "false") + ", \"git\": \"" +
         obs::json_escape(opt_.git) + "\", \"fleets\": [" + fleets + "], \"peak_rss_scope\": \"" +
         (rss_reset_ok_ ? "per iteration" : "whole process") + "\"}";
}

void Bench::print_report() {
  const std::string stem = opt_.workload + "-seed" + std::to_string(opt_.seed);
  const fs::path span_file = opt_.out_dir / ("trace-" + stem + ".json");
  if (opt_.trace) gate_.attempt("write span file", [&] { tracer_.write_json(span_file); });
  values_["success_ratio"] =
      1.0 - static_cast<double>(gate_.failed) /
                static_cast<double>(std::max<std::uint64_t>(gate_.attempted, 1));
  derive_counts();
  // The least-covered root span: every one must be >= 95% covered.
  if (!coverage_.empty()) values_["trace.child_coverage"] = quantile(coverage_, 0.0);

  std::vector<std::pair<std::string, std::string>> metrics;  // name, unit
  for (const MetricDef& d : opt_.trace ? std::span<const MetricDef>(kPerLayer)
                                       : std::span<const MetricDef>(kEndToEnd)) {
    metrics.emplace_back(d.name, d.unit);
  }
  if (opt_.trace) {
    for (const query::PresetInfo& p : query::preset_table()) {
      metrics.emplace_back("query.dataset." + std::string(p.name) + "_ms", "ms");
      metrics.emplace_back("query.spill." + std::string(p.name) + "_ms", "ms");
    }
  }

  const std::string prov = provenance_json();
  std::printf("cellbench %s  seed %llu  %.0f s  trace %d\n", opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.seconds, opt_.trace ? 1 : 0);
  std::printf("provenance: %s\n", prov.c_str());
  if (build_flagged()) {
    std::printf("WARNING: non-optimized or sanitizer build; timings are not comparable\n");
  }
  std::printf("timings are nominal-host seconds (host_speed.h): wall time x %.3f s / reference\n",
              kNominalReferenceS);
  for (const auto& [threads, r] : readings_) {
    std::printf("reference readings on %u thread%s: n %zu  median %.6f s  q1 %.6f  q3 %.6f\n",
                threads, threads == 1 ? "" : "s", r.v.size(), r.median(), quantile(r.v, 0.25),
                quantile(r.v, 0.75));
  }
  std::printf("%-40s %14s %-6s %5s %12s  %s\n", "metric", "median", "unit", "n", "wall median",
              "quartiles");
  std::string json;
  for (const auto& [name, unit] : metrics) {
    double value = 0.0;
    std::string detail;
    const auto it = samples_.find(name);
    if (it != samples_.end() && !it->second.v.empty()) {
      const std::vector<double>& v = it->second.v;
      value = it->second.median();
      char buf[96];
      std::snprintf(buf, sizeof(buf), "q1 %.6g  q3 %.6g", quantile(v, 0.25), quantile(v, 0.75));
      detail = buf;
      // A high percentile only where at least ten samples lie beyond it.
      for (const double q : {0.99, 0.9}) {
        if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
          std::snprintf(buf, sizeof(buf), "  p%.0f %.6g", q * 100, quantile(v, q));
          detail += buf;
          break;
        }
      }
      const auto raw = raw_.find(name);
      std::printf("%-40s %14.6g %-6s %5zu %12.6g  %s\n", name.c_str(), value, unit.c_str(),
                  v.size(), raw == raw_.end() ? value : raw->second.median(), detail.c_str());
    } else {
      const auto vit = values_.find(name);
      if (vit != values_.end()) value = vit->second;
      std::printf("%-40s %14.6g %-6s %5s %12s  exact\n", name.c_str(), value, unit.c_str(), "-",
                  "");
    }
    json += (json.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": " + json_number(value) +
                                          ", \"unit\": \"" + unit + "\"}");
  }

  for (const auto& [seed, counts] : pinned_) {
    std::printf("deterministic counts, fleet seed %llu:", static_cast<unsigned long long>(seed));
    for (const auto& [name, v] : counts) std::printf(" %s=%.17g", name.c_str(), v);
    std::printf("\n");
  }
  if (opt_.trace) {
    std::printf("tracing overhead: traced %.6f s (n=%zu) - untraced %.6f s (n=%zu) = %+.6f s\n",
                traced_main_.median(), traced_main_.v.size(), untraced_main_.median(),
                untraced_main_.v.size(), traced_main_.median() - untraced_main_.median());
    std::printf("%-48s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const SpanTotals& t : tracer_.totals()) {
      std::printf("%-48s %6llu %12.6f %12.6f\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    }
  }
  std::printf("ops: attempted %llu  failed %llu  failed_ratio %.6g\n",
              static_cast<unsigned long long>(gate_.attempted),
              static_cast<unsigned long long>(gate_.failed),
              1.0 - values_["success_ratio"]);

  if (opt_.trace) {
    std::printf("spans: %s (%zu spans)\n", span_file.string().c_str(), tracer_.spans().size());
  }
  const std::string result = "{\"correct\": " + std::string(gate_.failed == 0 ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(gate_.attempted) +
                             ", \"failed\": " + std::to_string(gate_.failed) +
                             ", \"metrics\": {" + json + "}}";
  std::ofstream(opt_.out_dir / ("result-" + stem + "-trace" + (opt_.trace ? "1" : "0") + ".json"))
      << "{\"provenance\": " << prov << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

int Bench::run() {
  fs::create_directories(work_);
  std::vector<Scenario> fleets;
  for (int k = 0; k < kFleets; ++k) {
    const std::uint64_t seed = fleet_seed(opt_.seed, k);
    if (opt_.workload == "paper_campaign") {
      fleets.push_back(paper_scenario(seed, kPaperDevices, 1));
    } else if (opt_.workload == "mobile_fleet") {
      fleets.push_back(mobile_scenario(seed, cpus_, work_ / "spill-loop"));
    } else {
      // One thread: set-up is timed, and the readings follow a 1-thread call
      // far more closely than a run on every core, which waits for the
      // slowest of them.
      fleets.push_back(paper_scenario(seed, kReplayDevices, 1));
    }
  }
  if (opt_.workload == "analysis_replay") {
    analysis_replay(fleets);
  } else {
    campaign_workload(fleets);
  }
  std::error_code ec;
  fs::remove_all(work_, ec);
  print_report();
  return gate_.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cellbench

int main(int argc, char** argv) {
  const std::optional<cellbench::Options> opt = cellbench::parse_args(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: cellbench --workload paper_campaign|mobile_fleet|analysis_replay "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] [--git TEXT]\n");
    return 2;
  }
  // Scenario::threads must be authoritative: the environment override would
  // change the thread count behind the benchmark's back.
  ::unsetenv("CELLREL_THREADS");
  std::filesystem::create_directories(opt->out_dir);
  cellbench::Bench bench(*opt);
  return bench.run();
}
