#include "timp/timp_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace cellrel {

AutoRecoveryCurve::AutoRecoveryCurve(PiecewiseCdf cdf) {
  max_duration_ = cdf.anchors().back().value;
  analytic_.push_back(std::move(cdf));
}

AutoRecoveryCurve AutoRecoveryCurve::from_durations(std::span<const double> durations_s) {
  if (durations_s.empty()) {
    throw std::invalid_argument("AutoRecoveryCurve: need at least one duration");
  }
  // Cursor walks rely on a sorted, NaN-free sample.
  for (const double d : durations_s) {
    if (!std::isfinite(d) || d < 0.0) {
      throw std::invalid_argument("AutoRecoveryCurve: durations must be finite and >= 0");
    }
  }
  AutoRecoveryCurve c;
  c.empirical_sorted_.assign(durations_s.begin(), durations_s.end());
  std::sort(c.empirical_sorted_.begin(), c.empirical_sorted_.end());
  c.max_duration_ = c.empirical_sorted_.back();
  return c;
}

double AutoRecoveryCurve::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  if (!analytic_.empty()) return analytic_.front().cdf(t);
  const auto& v = empirical_sorted_;
  const auto it = std::upper_bound(v.begin(), v.end(), t);
  return static_cast<double>(it - v.begin()) / static_cast<double>(v.size());
}

double AutoRecoveryCurve::Cursor::cdf(double t) {
  if (t <= 0.0) return 0.0;
  if (!curve_->analytic_.empty()) return curve_->analytic_.front().cdf(t);
  CELLREL_DCHECK(t >= last_t_) << "cursor moved back from " << last_t_ << " to " << t;
  last_t_ = t;
  // The same count upper_bound gives: every sample before count_ is <= the
  // previous t <= t. A 0.25 s step passes a few samples, so walk a few; a
  // longer jump (a dense cluster, a geometric tail step) bisects the rest.
  const auto& v = curve_->empirical_sorted_;
  constexpr std::size_t kWalk = 8;
  const std::size_t walk_end = std::min(count_ + kWalk, v.size());
  while (count_ < walk_end && !(t < v[count_])) ++count_;
  if (count_ < v.size() && !(t < v[count_])) {
    count_ = static_cast<std::size_t>(
        std::upper_bound(v.begin() + static_cast<std::ptrdiff_t>(count_), v.end(), t) -
        v.begin());
  }
  return static_cast<double>(count_) / static_cast<double>(v.size());
}

TimpModel::TimpModel(AutoRecoveryCurve curve, Params params)
    : curve_(std::move(curve)), params_(params) {
  CELLREL_CHECK(params_.integration_step_s > 0.0)
      << "integration_step_s=" << params_.integration_step_s;
}

TimpModel::Window TimpModel::window(int state, double window_start) const {
  CELLREL_DCHECK(state >= 0 && state <= 3) << "state=" << state;
  Window w;
  w.state = state;
  w.start = window_start;
  const double f_start = curve_.cdf(window_start);
  w.auto_survive_start = 1.0 - f_start;
  if (state > 0) {
    const auto idx = static_cast<std::size_t>(state - 1);
    w.e = params_.stage_effectiveness[idx];
    w.tau = params_.stage_settling_s[idx];
    w.d = params_.stage_disruption_s[idx];
  }
  return w;
}

template <typename Cdf>
double TimpModel::survival(const Window& w, double t, Cdf&& cdf) {
  if (t <= w.start) return 1.0;
  if (w.state == 0) {
    // Conditional auto-recovery survival within this window.
    double cond_auto_survival = 0.0;
    if (w.auto_survive_start > 1e-12) {
      cond_auto_survival = (1.0 - cdf(t)) / w.auto_survive_start;
      cond_auto_survival = std::clamp(cond_auto_survival, 0.0, 1.0);
    }
    return cond_auto_survival;
  }
  // Stage executed on entry: the effective fraction settles exponentially;
  // the ineffective fraction falls back to auto-recovery whose clock was
  // set back by the operation's disruption delay.
  const double settling = std::exp(-(t - w.start) / w.tau);
  double delayed_auto = 1.0;
  const double shifted = t - w.d;
  if (shifted > w.start && w.auto_survive_start > 1e-12) {
    delayed_auto = std::clamp((1.0 - cdf(shifted)) / w.auto_survive_start, 0.0, 1.0);
  }
  return w.e * settling + (1.0 - w.e) * delayed_auto;
}

double TimpModel::survival(int state, double window_start, double t) const {
  return survival(window(state, window_start), t,
                  [this](double x) { return curve_.cdf(x); });
}

double TimpModel::recovery_probability(int state, double window_start, double t) const {
  return 1.0 - survival(state, window_start, t);
}

double TimpModel::integrate_survival(const Window& w, double to) const {
  const double from = w.start;
  if (to <= from) return 0.0;
  // The midpoints (and mid - d) only increase, so one cursor serves the
  // whole integral.
  AutoRecoveryCurve::Cursor cursor(curve_);
  const auto cdf = [&cursor](double x) { return cursor.cdf(x); };
  double total = 0.0;
  double a = from;
  double step = params_.integration_step_s;
  while (a < to) {
    const double b = std::min(a + step, to);
    const double mid = (a + b) / 2.0;
    total += survival(w, mid, cdf) * (b - a);
    a = b;
    // Past ten minutes from the window start the integrand is smooth and
    // tiny; grow the step geometrically so t_m-scale tails stay cheap.
    if (a - from > 600.0) step = std::min(step * 1.05, (to - from) / 64.0 + step);
  }
  return total;
}

double TimpModel::expected_recovery_time(const std::array<double, 3>& probations_s) const {
  for (double p : probations_s) {
    if (!(p > 0.0) || !std::isfinite(p)) {
      throw std::invalid_argument("TimpModel: probations must be finite and > 0");
    }
  }
  const double s0 = probations_s[0];
  const double s1 = s0 + probations_s[1];
  const double s2 = s1 + probations_s[2];
  const double tm = std::max(curve_.max_duration(), s2 + 1.0);

  const double o1 = params_.stage_overhead_s[0];
  const double o2 = params_.stage_overhead_s[1];
  const double o3 = params_.stage_overhead_s[2];

  const Window w0 = window(0, 0.0);
  const Window w1 = window(1, s0);
  const Window w2 = window(2, s1);
  const Window w3 = window(3, s2);
  const auto cdf = [this](double x) { return curve_.cdf(x); };

  // Work backwards per Eq. 1 (expected-dwell form).
  const double t3 = o3 + integrate_survival(w3, tm);
  const double t2 = o2 + integrate_survival(w2, s2) + survival(w2, s2, cdf) * t3;
  const double t1 = o1 + integrate_survival(w1, s1) + survival(w1, s1, cdf) * t2;
  const double t0 = integrate_survival(w0, s0) + survival(w0, s0, cdf) * t1;
  return t0;
}

}  // namespace cellrel
