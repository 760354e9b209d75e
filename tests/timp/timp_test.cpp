#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ios>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "timp/annealing.h"
#include "timp/recovery_optimizer.h"
#include "timp/timp_model.h"
#include "workload/calibration.h"

namespace cellrel {
namespace {

AutoRecoveryCurve paper_curve() {
  return AutoRecoveryCurve{default_calibration().stall_auto_recovery_cdf};
}

/// `n` stall durations drawn from the calibrated auto-recovery curve.
std::vector<double> calibration_durations(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> durations;
  const auto& cdf = default_calibration().stall_auto_recovery_cdf;
  for (int i = 0; i < n; ++i) durations.push_back(cdf.sample(rng));
  return durations;
}

TEST(AutoRecoveryCurve, AnalyticAnchors) {
  const auto curve = paper_curve();
  EXPECT_NEAR(curve.cdf(10.0), 0.60, 1e-9);  // Fig. 10: 60% within 10 s
  EXPECT_NEAR(curve.cdf(300.0), 0.88, 1e-9);
  EXPECT_DOUBLE_EQ(curve.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.cdf(1e9), 1.0);
  EXPECT_DOUBLE_EQ(curve.max_duration(), 91'770.0);
}

TEST(AutoRecoveryCurve, EmpiricalFromDurations) {
  const std::vector<double> durations = {5, 5, 5, 10, 20, 40, 80, 160, 320, 640};
  const auto curve = AutoRecoveryCurve::from_durations(durations);
  EXPECT_DOUBLE_EQ(curve.cdf(5.0), 0.3);
  EXPECT_DOUBLE_EQ(curve.cdf(15.0), 0.4);
  EXPECT_DOUBLE_EQ(curve.cdf(640.0), 1.0);
  EXPECT_DOUBLE_EQ(curve.max_duration(), 640.0);
  EXPECT_THROW(AutoRecoveryCurve::from_durations({}), std::invalid_argument);
}

TEST(AutoRecoveryCurve, RejectsNonFiniteAndNegativeDurations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1.0, -1e-9}) {
    const std::vector<double> durations = {5.0, bad, 10.0};
    EXPECT_THROW(AutoRecoveryCurve::from_durations(durations), std::invalid_argument) << bad;
  }
  const std::vector<double> zero = {0.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(AutoRecoveryCurve::from_durations(zero).cdf(1.0), 2.0 / 3.0);
}

TEST(AutoRecoveryCurve, CursorMatchesCdfAlongAForwardWalk) {
  // Ties, a dense run, long empty stretches and values past the maximum:
  // every call along a non-decreasing walk equals the bisecting cdf().
  std::vector<double> durations = {0.0, 0.5, 0.5, 0.5, 2.0, 1e4};
  for (int i = 0; i < 100; ++i) durations.push_back(3.0 + 0.01 * i);
  const auto curve = AutoRecoveryCurve::from_durations(durations);
  AutoRecoveryCurve::Cursor cursor(curve);
  for (const double t : {-1.0, 0.0, 0.25, 0.5, 0.5, 0.75, 2.0, 3.0, 3.005, 3.5, 3.99, 4.0,
                         100.0, 1e4, 2e4}) {
    EXPECT_EQ(cursor.cdf(t), curve.cdf(t)) << "t=" << t;
  }
}

TEST(TimpModel, RecoveryProbabilityBoundsAndMonotonicity) {
  TimpModel model(paper_curve(), TimpModel::Params{});
  for (int state = 0; state <= 3; ++state) {
    double prev = -1.0;
    for (double t = 10.0; t < 2000.0; t *= 1.5) {
      const double p = model.recovery_probability(state, 10.0, t);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      EXPECT_GE(p, prev) << "state " << state << " t " << t;
      prev = p;
    }
  }
}

TEST(TimpModel, StageEffectivenessLiftsProbability) {
  TimpModel model(paper_curve(), TimpModel::Params{});
  // Once an executed operation has settled (a few tau), the recovery
  // probability far exceeds pure auto-recovery, ordered by effectiveness.
  const double p0 = model.recovery_probability(0, 60.0, 100.0);
  const double p1 = model.recovery_probability(1, 60.0, 100.0);
  const double p3 = model.recovery_probability(3, 60.0, 100.0);
  EXPECT_GT(p1, p0 + 0.3);  // stage 1: 75% effective
  EXPECT_GT(p3, p1);        // stage 3: 99% effective
  EXPECT_GT(p3, 0.90);
}

TEST(TimpModel, OperationSettlingDelaysEffect) {
  // Right after execution the fix has not settled: P is low, then climbs.
  TimpModel model(paper_curve(), TimpModel::Params{});
  const double p_early = model.recovery_probability(1, 60.0, 61.0);
  const double p_late = model.recovery_probability(1, 60.0, 120.0);
  EXPECT_LT(p_early, 0.3);
  EXPECT_GT(p_late, p_early + 0.4);
}

TEST(TimpModel, Eq1VanillaNearPaper38Seconds) {
  TimpModel model(paper_curve(), TimpModel::Params{});
  const double t_vanilla = model.expected_recovery_time({60.0, 60.0, 60.0});
  // The paper reports 38 s for the vanilla schedule under Eq. 1; our
  // calibrated curve lands in the same band.
  EXPECT_GT(t_vanilla, 20.0);
  EXPECT_LT(t_vanilla, 50.0);
}

TEST(TimpModel, Eq1RejectsNonPositiveProbations) {
  TimpModel model(paper_curve(), TimpModel::Params{});
  EXPECT_THROW(model.expected_recovery_time({0.0, 10.0, 10.0}), std::invalid_argument);
  EXPECT_THROW(model.expected_recovery_time({10.0, -1.0, 10.0}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(model.expected_recovery_time({nan, 10.0, 10.0}), std::invalid_argument);
  EXPECT_THROW(model.expected_recovery_time({10.0, 10.0, inf}), std::invalid_argument);
}

TEST(TimpModel, PaperOptimumBeatsVanilla) {
  TimpModel model(paper_curve(), TimpModel::Params{});
  const double t_vanilla = model.expected_recovery_time({60.0, 60.0, 60.0});
  const double t_paper = model.expected_recovery_time({21.0, 6.0, 16.0});
  EXPECT_LT(t_paper, t_vanilla);
}

TEST(Annealing, FindsQuadraticMinimum) {
  AnnealingConfig<2> config;
  config.lower = {-10.0, -10.0};
  config.upper = {10.0, 10.0};
  config.initial = {9.0, -9.0};
  const auto result = anneal<2>(
      config,
      [](const std::array<double, 2>& x) {
        return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
      },
      Rng{1});
  EXPECT_NEAR(result.best[0], 3.0, 0.05);
  EXPECT_NEAR(result.best[1], -2.0, 0.05);
  EXPECT_LT(result.best_value, 0.01);
  EXPECT_GT(result.evaluations, 100u);
}

TEST(Annealing, DeterministicForSeed) {
  AnnealingConfig<1> config;
  config.lower = {0.0};
  config.upper = {100.0};
  config.initial = {50.0};
  const auto objective = [](const std::array<double, 1>& x) {
    return std::cos(x[0] / 5.0) + x[0] * 0.01;
  };
  const auto a = anneal<1>(config, objective, Rng{7});
  const auto b = anneal<1>(config, objective, Rng{7});
  EXPECT_EQ(a.best[0], b.best[0]);
  EXPECT_EQ(a.best_value, b.best_value);
}

TEST(Annealing, RespectsBounds) {
  AnnealingConfig<1> config;
  config.lower = {2.0};
  config.upper = {5.0};
  config.initial = {3.0};
  // Unbounded minimum at x = 0; must clamp at the lower bound.
  const auto result =
      anneal<1>(config, [](const std::array<double, 1>& x) { return x[0]; }, Rng{2});
  EXPECT_DOUBLE_EQ(result.best[0], 2.0);
}

TEST(RecoveryOptimizer, ReproducesPaperShape) {
  // The headline §4.2 result: optimized probations are all far below one
  // minute (paper: {21, 6, 16} s) and T_recovery drops from ~38 s to ~28 s.
  TimpModel model(paper_curve(), TimpModel::Params{});
  RecoveryOptimizer optimizer(std::move(model));
  const OptimizedRecovery result = optimizer.optimize();

  for (double pro : result.probations_s) {
    EXPECT_GE(pro, 1.0);
    EXPECT_LT(pro, 60.0) << "probation not shorter than one minute";
  }
  EXPECT_LT(result.expected_recovery_s, result.vanilla_expected_recovery_s);
  const double reduction =
      1.0 - result.expected_recovery_s / result.vanilla_expected_recovery_s;
  // Paper: 27.8 s vs 38 s => ~27% reduction. Accept a generous band.
  EXPECT_GT(reduction, 0.10);
  EXPECT_LT(reduction, 0.70);
  // The paper's optimum is V-shaped: Pro_0 (21 s) > Pro_1 (6 s).
  EXPECT_GT(result.probations_s[0], result.probations_s[1]);
}

TEST(RecoveryOptimizer, ScheduleConversion) {
  OptimizedRecovery opt;
  opt.probations_s = {21.0, 6.0, 16.0};
  const ProbationSchedule schedule = RecoveryOptimizer::to_schedule(opt);
  EXPECT_EQ(schedule.probation[0], SimDuration::seconds(21.0));
  EXPECT_EQ(schedule.probation[1], SimDuration::seconds(6.0));
  EXPECT_EQ(schedule.probation[2], SimDuration::seconds(16.0));
  EXPECT_EQ(schedule.name, "timp-optimized");
}

TEST(RecoveryOptimizer, EmpiricalCurveFromCampaignDurations) {
  // The optimizer also accepts an empirical curve built from measured stall
  // durations, the route the paper actually used.
  TimpModel model(AutoRecoveryCurve::from_durations(calibration_durations(3, 20'000)),
                  TimpModel::Params{});
  RecoveryOptimizer optimizer(std::move(model));
  const OptimizedRecovery result = optimizer.optimize();
  EXPECT_LT(result.expected_recovery_s, result.vanilla_expected_recovery_s);
  for (double pro : result.probations_s) EXPECT_LT(pro, 60.0);
}

// --- Golden pins ------------------------------------------------------------
// Eq. 1 outputs as exact hexfloat literals. The evaluator may get faster but
// must not move a single bit of these: every EXPECT compares with ==.

/// Durations on the 0.25 s midpoint grid (each three times) and at integer
/// window starts (each four times): with integer probations every stage's
/// `mid - d` and window start lands exactly on one of them, so the CDF's
/// `<=` tie counting decides the result.
std::vector<double> midpoint_tie_durations() {
  std::vector<double> durations;
  for (int i = 0; i < 2'400; ++i) durations.push_back(0.125 + 0.25 * (i % 800));
  for (const double w : {6.0, 16.0, 21.0, 27.0, 43.0, 60.0, 120.0, 180.0}) {
    for (int k = 0; k < 4; ++k) durations.push_back(w);
  }
  durations.push_back(1'800.0);
  durations.push_back(7'200.0);
  return durations;
}

/// A dense 4,000-sample body in [0.5, 30] s and a sparse geometric tail of
/// 16 samples from 60 s out to about 69,000 s: integration steps jump
/// across many body samples at once and then walk long empty stretches.
std::vector<double> sparse_tail_durations() {
  std::vector<double> durations;
  for (int i = 0; i < 4'000; ++i) {
    const double u = i / 3'999.0;
    durations.push_back(0.5 + 29.5 * u * u);
  }
  double t = 60.0;
  for (int k = 0; k < 16; ++k, t *= 1.6) durations.push_back(t);
  return durations;
}

constexpr std::array<std::array<double, 3>, 6> kGoldenTriples = {{{60.0, 60.0, 60.0},
                                                                 {21.0, 6.0, 16.0},
                                                                 {1.0, 1.0, 1.0},
                                                                 {13.37, 42.5, 3.1415},
                                                                 {119.9, 0.5, 77.7},
                                                                 {2.71828, 88.8, 0.3}}};

struct ProbabilityPoint {
  int state;
  double window_start;
  double t;
};
constexpr std::array<ProbabilityPoint, 4> kGoldenPoints = {
    {{0, 0.0, 7.5}, {1, 21.0, 40.0}, {2, 27.0, 40.125}, {3, 43.0, 1'000.0}}};

struct Golden {
  std::array<double, 6> recovery_s;   // expected_recovery_time at kGoldenTriples
  std::array<double, 4> probability;  // recovery_probability at kGoldenPoints
  std::array<double, 3> probations_s;  // RecoveryOptimizer::optimize()
  double expected_recovery_s;
  double vanilla_expected_recovery_s;
  std::uint64_t evaluations;
};

std::string hex(double v) {
  std::ostringstream out;
  out << std::hexfloat << v;
  return out.str();
}

void expect_golden(const AutoRecoveryCurve& curve, const Golden& golden) {
  const TimpModel model(curve, TimpModel::Params{});
  for (std::size_t i = 0; i < kGoldenTriples.size(); ++i) {
    const auto& p = kGoldenTriples[i];
    const double t = model.expected_recovery_time(p);
    EXPECT_EQ(t, golden.recovery_s[i])
        << "T{" << p[0] << ", " << p[1] << ", " << p[2] << "} = " << hex(t);
  }
  for (std::size_t i = 0; i < kGoldenPoints.size(); ++i) {
    const auto& q = kGoldenPoints[i];
    const double p = model.recovery_probability(q.state, q.window_start, q.t);
    EXPECT_EQ(p, golden.probability[i]) << "P(" << q.state << ", " << q.window_start
                                         << ", " << q.t << ") = " << hex(p);
  }
  const OptimizedRecovery r = RecoveryOptimizer(model).optimize();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.probations_s[i], golden.probations_s[i])
        << "probation " << i << " = " << hex(r.probations_s[i]);
  }
  EXPECT_EQ(r.expected_recovery_s, golden.expected_recovery_s) << hex(r.expected_recovery_s);
  EXPECT_EQ(r.vanilla_expected_recovery_s, golden.vanilla_expected_recovery_s)
      << hex(r.vanilla_expected_recovery_s);
  EXPECT_EQ(r.evaluations, golden.evaluations);
}

TEST(TimpGolden, AnalyticCurve) {
  const Golden golden{
      .recovery_s = {0x1.c5551d1c9b478p+4, 0x1.1f66be7af6bdap+4, 0x1.a3c8a592e72d9p+4,
                     0x1.1c9e9b3eab1d4p+4, 0x1.333b9e0def17fp+5, 0x1.4c1c0da8eec81p+4},
      .probability = {0x1.cccccccccccccp-2, 0x1.3fd1adebb3858p-1, 0x1.54352d694e181p-1,
                      0x1.fec4e7a11b7a4p-1},
      .probations_s = {0x1.425c2c773ff79p+3, 0x1.69fd4132142bep+1, 0x1.2e9a5a1273c6bp+5},
      .expected_recovery_s = 0x1.cc165836f7133p+3,
      .vanilla_expected_recovery_s = 0x1.c5551d1c9b478p+4,
      .evaluations = 4837};
  expect_golden(paper_curve(), golden);
}

TEST(TimpGolden, EmpiricalCurve20k) {
  const Golden golden{
      .recovery_s = {0x1.c80135224d0cap+4, 0x1.2285e07be7a0bp+4, 0x1.a8997fe31abeep+4,
                     0x1.1eed499fa3232p+4, 0x1.3452f17c91287p+5, 0x1.4edbbe7342208p+4},
      .probability = {0x1.c9374bc6a7efap-2, 0x1.3fc1cfc904f5dp-1, 0x1.54286faceb4dap-1,
                      0x1.fec1fc05c44adp-1},
      .probations_s = {0x1.415674c6d97fep+3, 0x1.63b4535525374p+1, 0x1.2d7370eccc814p+5},
      .expected_recovery_s = 0x1.cef45750129ecp+3,
      .vanilla_expected_recovery_s = 0x1.c80135224d0cap+4,
      .evaluations = 4843};
  expect_golden(AutoRecoveryCurve::from_durations(calibration_durations(3, 20'000)), golden);
}

TEST(TimpGolden, EmpiricalMidpointTies) {
  const Golden golden{
      .recovery_s = {0x1.0fb08f481881ap+6, 0x1.1a852537e9b78p+5, 0x1.6cb25fc5394a6p+4,
                     0x1.172ad84f3d6c4p+5, 0x1.68b947f80266ap+6, 0x1.07e93a3284eacp+5},
      .probability = {0x1.3c5f14677e6cp-5, 0x1.3930de40a7fe3p-1, 0x1.52e792c2a97b2p-1,
                      0x1.fffe9e6c5b332p-1},
      .probations_s = {0x1p+0, 0x1.5c7b2c68a0efbp+0, 0x1.8d39841ad291dp+4},
      .expected_recovery_s = 0x1.1d230b1278a45p+4,
      .vanilla_expected_recovery_s = 0x1.0fb08f481881ap+6,
      .evaluations = 4825};
  expect_golden(AutoRecoveryCurve::from_durations(midpoint_tie_durations()), golden);
}

TEST(TimpGolden, EmpiricalSparseTail) {
  const Golden golden{
      .recovery_s = {0x1.54cd848f39a9p+3, 0x1.dbbf39fd7b6acp+3, 0x1.3d4426ee85ca4p+4,
                     0x1.a4f4d0e4a5036p+3, 0x1.5bb8e661d4645p+3, 0x1.9d7b412a3c76ap+3},
      .probability = {0x1.f0f4c7e7859cp-2, 0x1.ae2a746baf17cp-1, 0x1.805623228bb5p-1,
                      0x1.fcccccccccccdp-1},
      .probations_s = {0x1.e0c52989261f4p+4, 0x1.1fa42f0401ab6p+4, 0x1.7f20ed1950c2ep+5},
      .expected_recovery_s = 0x1.504fe24d4cddbp+3,
      .vanilla_expected_recovery_s = 0x1.54cd848f39a9p+3,
      .evaluations = 4837};
  expect_golden(AutoRecoveryCurve::from_durations(sparse_tail_durations()), golden);
}

}  // namespace
}  // namespace cellrel
