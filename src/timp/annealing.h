// Simulated annealing (the paper uses "the annealing algorithm" [42] to
// minimize T_recovery over the probation triple).
//
// Generic continuous minimizer over a box-constrained R^N: Gaussian
// neighbor proposals scaled by temperature, Metropolis acceptance,
// geometric cooling, deterministic RNG. A final coordinate-descent polish
// refines the returned point.

#ifndef CELLREL_TIMP_ANNEALING_H
#define CELLREL_TIMP_ANNEALING_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace cellrel {

template <std::size_t N>
struct AnnealingConfig {
  std::array<double, N> lower{};
  std::array<double, N> upper{};
  std::array<double, N> initial{};
  double initial_temperature = 1.0;
  double cooling = 0.97;
  int iterations_per_temperature = 40;
  int temperature_steps = 120;
  /// Neighbor step as a fraction of each dimension's range at T = 1.
  double step_fraction = 0.25;
  /// Polish: coordinate-descent passes with shrinking step.
  int polish_passes = 3;
};

template <std::size_t N>
struct AnnealingResult {
  std::array<double, N> best{};
  double best_value = 0.0;
  std::uint64_t evaluations = 0;
};

/// Minimizes `objective`, a `double(const std::array<double, N>&)`
/// callable, over the box. Deterministic for a given rng seed. A template
/// parameter rather than std::function, so the objective can inline.
template <std::size_t N, typename Objective>
AnnealingResult<N> anneal(const AnnealingConfig<N>& config, const Objective& objective,
                          Rng rng) {
  auto clamp_point = [&](std::array<double, N>& x) {
    for (std::size_t i = 0; i < N; ++i) {
      if (x[i] < config.lower[i]) x[i] = config.lower[i];
      if (x[i] > config.upper[i]) x[i] = config.upper[i];
    }
  };

  AnnealingResult<N> result;
  std::array<double, N> current = config.initial;
  clamp_point(current);
  double current_value = objective(current);
  result.best = current;
  result.best_value = current_value;
  result.evaluations = 1;

  double temperature = config.initial_temperature;
  for (int step = 0; step < config.temperature_steps; ++step) {
    for (int it = 0; it < config.iterations_per_temperature; ++it) {
      std::array<double, N> candidate = current;
      // Perturb a single dimension; step scales with temperature.
      const auto dim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(N) - 1));
      const double range = config.upper[dim] - config.lower[dim];
      candidate[dim] += rng.normal(0.0, config.step_fraction * range * temperature);
      clamp_point(candidate);
      const double value = objective(candidate);
      ++result.evaluations;
      const double delta = value - current_value;
      if (delta <= 0.0 || rng.bernoulli(std::exp(-delta / std::max(1e-12, temperature)))) {
        current = candidate;
        current_value = value;
        if (value < result.best_value) {
          result.best = candidate;
          result.best_value = value;
        }
      }
    }
    temperature *= config.cooling;
  }

  // Coordinate-descent polish around the best point.
  double step_size = 2.0;
  for (int pass = 0; pass < config.polish_passes; ++pass) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (std::size_t dim = 0; dim < N; ++dim) {
        for (const double dir : {-step_size, step_size}) {
          std::array<double, N> candidate = result.best;
          candidate[dim] += dir;
          clamp_point(candidate);
          const double value = objective(candidate);
          ++result.evaluations;
          if (value < result.best_value) {
            result.best = candidate;
            result.best_value = value;
            improved = true;
          }
        }
      }
    }
    step_size /= 4.0;
  }
  return result;
}

}  // namespace cellrel

#endif  // CELLREL_TIMP_ANNEALING_H
