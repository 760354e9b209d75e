// Time-inhomogeneous Markov process (TIMP) for Data_Stall recovery (§4.2).
//
// The three-stage progressive recovery is a state-transition process over
// S0 (stall detected), S1..S3 (the three recovery operations), Se (end).
// Unlike a stationary Markov chain, the transition probabilities depend on
// the elapsed time t: the device auto-recovers with a time-varying
// probability P_{i->e}(t) estimated from measured stall durations.
//
// Expected overall recovery time (the paper's Eq. (1), evaluated in its
// expected-dwell form): with sPro_i = sum_{k<=i} Pro_k and window i spanning
// [sPro_{i-1}, sPro_i],
//
//   T_i = O_i + Int_window (1 - P_{i->e}(t)) dt + (1 - P_{i->e}(sPro_i)) * T_{i+1}
//
// where the integral of the survival probability is the expected time spent
// waiting in window i, O_i is the operation execution overhead (O_0 = 0,
// O_1 < O_2 < O_3), and T_3 integrates to the maximum observed duration t_m.
//
// Stage operations act *gradually*: an executed operation fixes a surviving
// stall with probability e_i, but the fix settles over an exponential time
// tau_i (tearing down and re-establishing a bearer is not instant). This is
// what makes probations worth having at all — the auto-recovery curve's high
// early hazard (60% of stalls clear within 10 s, Fig. 10) means waiting
// briefly is cheaper than operating immediately — and it produces the
// interior optimum the paper finds ({21, 6, 16} s vs vanilla {60, 60, 60} s,
// T_recovery 27.8 s vs 38 s).

#ifndef CELLREL_TIMP_TIMP_MODEL_H
#define CELLREL_TIMP_TIMP_MODEL_H

#include <array>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/piecewise.h"

namespace cellrel {

/// The auto-recovery CDF F(t): probability a stall has resolved on its own
/// within t seconds of detection, estimated from duration measurements.
class AutoRecoveryCurve {
 public:
  /// From an analytic anchor-based CDF (calibration route).
  explicit AutoRecoveryCurve(PiecewiseCdf cdf);

  /// From raw measured stall durations in seconds (empirical route): F is
  /// the empirical CDF with step interpolation. Throws std::invalid_argument
  /// when `durations_s` is empty or holds a non-finite or negative value.
  static AutoRecoveryCurve from_durations(std::span<const double> durations_s);

  /// F(t) in [0, 1]; non-decreasing; F(0) = 0.
  double cdf(double t_seconds) const;

  /// F(t) along one forward walk of t: each call returns exactly cdf(t),
  /// but the empirical search resumes where the previous call stopped
  /// instead of bisecting the whole sample. The t of successive calls must
  /// not decrease (values <= 0 excepted), so a cursor serves one integral;
  /// make a new one for the next.
  class Cursor {
   public:
    explicit Cursor(const AutoRecoveryCurve& curve) : curve_(&curve) {}
    double cdf(double t_seconds);

   private:
    const AutoRecoveryCurve* curve_;
    std::size_t count_ = 0;  // empirical samples <= the last t
    double last_t_ = -std::numeric_limits<double>::infinity();
  };

  /// Largest duration with mass (t_m in Eq. 1).
  double max_duration() const { return max_duration_; }

 private:
  AutoRecoveryCurve() = default;
  // Exactly one representation is active.
  std::vector<PiecewiseCdf> analytic_;    // 0 or 1 element
  std::vector<double> empirical_sorted_;  // sorted durations
  double max_duration_ = 0.0;
};

/// TIMP over the five recovery states with Eq. 1 evaluation.
class TimpModel {
 public:
  struct Params {
    /// Effectiveness of each recovery operation once executed: the fraction
    /// of surviving stalls it eventually fixes (§3.2: stage 1 ~ 75%).
    std::array<double, 3> stage_effectiveness = {0.75, 0.90, 0.99};
    /// Settling time constants tau_i (seconds): an effective operation's fix
    /// completes after an Exp(tau_i) delay (bearer re-setup, re-registration,
    /// radio restart are progressively slower).
    std::array<double, 3> stage_settling_s = {12.0, 10.0, 12.0};
    /// Disruption delay d_i (seconds): while the operation tears state down,
    /// autonomous recovery is blocked — an ineffective operation sets the
    /// auto-recovery clock back by d_i. This is why waiting out a probation
    /// beats operating immediately when the early auto-recovery hazard is
    /// high (60% of stalls clear within 10 s).
    std::array<double, 3> stage_disruption_s = {8.0, 6.0, 10.0};
    /// Execution overhead O_1 < O_2 < O_3 in seconds (Eq. 1's O_i).
    std::array<double, 3> stage_overhead_s = {0.5, 2.5, 7.0};
    /// Numeric integration step for the probation windows (seconds).
    double integration_step_s = 0.25;
  };

  TimpModel(AutoRecoveryCurve curve, Params params);

  /// P_{i->e}(t): probability of having recovered by elapsed time t given
  /// the process entered S_i at elapsed time `window_start` (t >=
  /// window_start). For i >= 1 the stage operation was executed on entry
  /// and settles exponentially.
  double recovery_probability(int state, double window_start, double t) const;

  /// Expected overall recovery time T_recovery = T_0 for the probation
  /// triple, per Eq. 1 (expected-dwell form). Throws std::invalid_argument
  /// unless every probation is finite and > 0.
  double expected_recovery_time(const std::array<double, 3>& probations_s) const;

  const AutoRecoveryCurve& curve() const { return curve_; }
  const Params& params() const { return params_; }

 private:
  /// What survival() needs of a window besides t: the auto-recovery
  /// survival at its start, and the stage's e/tau/d (unused for S0).
  struct Window {
    int state = 0;
    double start = 0.0;
    double auto_survive_start = 1.0;
    double e = 0.0;
    double tau = 0.0;
    double d = 0.0;
  };
  Window window(int state, double window_start) const;

  double survival(int state, double window_start, double t) const;
  /// survival() at t in window `w`, reading F through `cdf`.
  template <typename Cdf>
  static double survival(const Window& w, double t, Cdf&& cdf);
  /// Integrates survival over [w.start, to] by the midpoint rule, one
  /// Cursor walking F forward; for long tails the step grows geometrically
  /// so the t_m = 91,770 s integral stays cheap.
  double integrate_survival(const Window& w, double to) const;

  AutoRecoveryCurve curve_;
  Params params_;
};

}  // namespace cellrel

#endif  // CELLREL_TIMP_TIMP_MODEL_H
