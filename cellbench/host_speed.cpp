#include "host_speed.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "trace.h"

namespace cellbench {

namespace {

// Keeps the compiler from discarding the kernel's result.
volatile std::uint64_t g_sink = 0;

/// One pass of the reference kernel. Its inputs come from a fixed
/// generator, never from --seed, so every reading does the same work.
std::uint64_t reference_kernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  };
  std::uint64_t acc = 0;

  // An event queue: timestamps pushed ahead of a moving clock, popped in order.
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>, std::greater<>>
      events;
  std::uint64_t clock = 0;
  for (std::uint32_t i = 0; i < 120'000; ++i) {
    events.emplace(clock + next() % 1'000'000, i);
    if (events.size() > 8'000) {
      clock = events.top().first;
      acc += events.top().second;
      events.pop();
    }
  }

  // Per-device state in a hash map.
  std::unordered_map<std::uint64_t, std::uint64_t> state;
  for (int i = 0; i < 150'000; ++i) state[next() % 40'000] += static_cast<std::uint64_t>(i);
  acc += state.size();

  // Group-by over short string keys.
  std::map<std::string, std::uint64_t> groups;
  char key[32];
  for (int i = 0; i < 40'000; ++i) {
    std::snprintf(key, sizeof(key), "model-%u/isp-%u", static_cast<unsigned>(next() % 97),
                  static_cast<unsigned>(next() % 3));
    ++groups[key];
  }
  acc += groups.size();

  // Sorting durations, then formatting and parsing them as CSV fields.
  std::vector<double> durations(100'000);
  for (double& d : durations) d = static_cast<double>(next() % 10'000'000) / 1000.0;
  std::sort(durations.begin(), durations.end());
  char field[32];
  for (std::size_t i = 0; i < durations.size(); i += 4) {
    std::snprintf(field, sizeof(field), "%.3f", durations[i]);
    acc += static_cast<std::uint64_t>(std::strtod(field, nullptr));
  }
  return acc;
}

}  // namespace

double reference_reading_s(unsigned threads) {
  const double t0 = now_s();
  if (threads <= 1) {
    g_sink = reference_kernel();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back([] { g_sink = reference_kernel(); });
    for (std::thread& t : pool) t.join();
  }
  return now_s() - t0;
}

}  // namespace cellbench
