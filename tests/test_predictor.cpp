// Tests for predict/predictor: the oracle window, reactive predictors, and
// error injection.
#include "predict/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "trace/synthetic.hpp"

namespace bml {
namespace {

TEST(OracleMaxPredictor, MatchesNaiveWindowMax) {
  const LoadTrace trace({5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 0.0});
  OracleMaxPredictor oracle;
  for (TimePoint now = 0; now < 8; ++now) {
    const double naive = trace.max_over(now, now + 3);
    EXPECT_DOUBLE_EQ(oracle.predict(trace, now, 3.0), naive) << "t=" << now;
  }
}

TEST(OracleMaxPredictor, LargeTraceConsistency) {
  DiurnalOptions options;
  options.noise = 0.05;
  const LoadTrace trace = diurnal_trace(options, 1);
  OracleMaxPredictor oracle;
  for (TimePoint now : {0L, 100L, 5000L, 40000L, 86000L, 86399L}) {
    EXPECT_DOUBLE_EQ(oracle.predict(trace, now, 378.0),
                     trace.max_over(now, now + 378))
        << "t=" << now;
  }
}

TEST(OracleMaxPredictor, BeyondEndIsZero) {
  const LoadTrace trace({5.0});
  OracleMaxPredictor oracle;
  EXPECT_DOUBLE_EQ(oracle.predict(trace, 10, 5.0), 0.0);
}

TEST(OracleMaxPredictor, CacheInvalidatesOnHorizonChange) {
  const LoadTrace trace({1.0, 10.0, 2.0, 3.0});
  OracleMaxPredictor oracle;
  EXPECT_DOUBLE_EQ(oracle.predict(trace, 2, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle.predict(trace, 2, 2.0), 3.0);
}

TEST(OracleMaxPredictor, CacheNotReusedForNewTraceAtSameAddress) {
  // Two traces of the same size built in the same storage: the second
  // must not be answered from the first one's window maxima.
  OracleMaxPredictor p;
  std::optional<LoadTrace> slot;
  slot.emplace(constant_trace(100, 1000));
  EXPECT_DOUBLE_EQ(p.predict(*slot, 10, 60), 100.0);
  slot.emplace(constant_trace(900, 1000));
  EXPECT_DOUBLE_EQ(p.predict(*slot, 10, 60), 900.0);
}

/// The window-max cache as first written: a std::deque monotone queue
/// read through the bounds-checked trace.at(). The ring-buffer build must
/// reproduce it exactly.
std::vector<double> deque_window_max(const LoadTrace& trace, Seconds horizon) {
  const std::size_t n = trace.size();
  const auto w = static_cast<std::size_t>(horizon);
  std::vector<double> window_max(n, 0.0);
  std::deque<std::size_t> deque;
  std::size_t right = 0;
  for (std::size_t t = 0; t < n; ++t) {
    while (right < std::min(n, t + w)) {
      const double v = trace.at(static_cast<TimePoint>(right));
      while (!deque.empty() &&
             trace.at(static_cast<TimePoint>(deque.back())) <= v)
        deque.pop_back();
      deque.push_back(right);
      ++right;
    }
    while (!deque.empty() && deque.front() < t) deque.pop_front();
    window_max[t] =
        deque.empty() ? 0.0 : trace.at(static_cast<TimePoint>(deque.front()));
  }
  return window_max;
}

TEST(OracleMaxPredictor, WindowMaximaMatchDequeBuildOnNoisyTrace) {
  DiurnalOptions options;
  options.noise = 0.05;
  options.seed = 3;
  const LoadTrace day = diurnal_trace(options, 1);
  const LoadTrace trace(std::vector<double>(
      day.series().values().begin(), day.series().values().begin() + 20000));
  for (const Seconds horizon : {0.5, 1.0, 2.0, 63.0, 378.0, 5000.0, 30000.0}) {
    OracleMaxPredictor oracle;
    const std::vector<double> expected = deque_window_max(trace, horizon);
    for (std::size_t t = 0; t < expected.size(); ++t)
      ASSERT_EQ(oracle.predict(trace, static_cast<TimePoint>(t), horizon),
                expected[t])
          << "horizon=" << horizon << " t=" << t;
  }
}

TEST(OracleMaxPredictor, Validation) {
  const LoadTrace trace({1.0});
  OracleMaxPredictor oracle;
  EXPECT_THROW((void)oracle.predict(trace, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)oracle.predict(trace, -1, 1.0), std::invalid_argument);
}

TEST(LastValuePredictor, ReadsOnlyHistory) {
  const LoadTrace trace({5.0, 7.0, 100.0});
  LastValuePredictor p;
  EXPECT_DOUBLE_EQ(p.predict(trace, 0, 60.0), 0.0);  // no history yet
  EXPECT_DOUBLE_EQ(p.predict(trace, 1, 60.0), 5.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 2, 60.0), 7.0);  // blind to the spike
}

TEST(MovingMaxPredictor, TrailingWindow) {
  const LoadTrace trace({9.0, 1.0, 2.0, 3.0});
  MovingMaxPredictor p(2.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 0, 60.0), 0.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 1, 60.0), 9.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 3, 60.0), 2.0);  // window {1,2}
  EXPECT_THROW(MovingMaxPredictor(0.0), std::invalid_argument);
}

TEST(EwmaPredictor, ConvergesToConstantLoad) {
  const LoadTrace trace(std::vector<double>(100, 50.0));
  EwmaPredictor p(0.2, /*headroom=*/1.0);
  double last = 0.0;
  for (TimePoint t = 1; t <= 100; ++t) last = p.predict(trace, t, 60.0);
  EXPECT_NEAR(last, 50.0, 1e-6);
}

TEST(EwmaPredictor, HeadroomScalesOutput) {
  const LoadTrace trace(std::vector<double>(10, 100.0));
  EwmaPredictor p(1.0, 1.2);
  EXPECT_NEAR(p.predict(trace, 5, 60.0), 120.0, 1e-9);
}

TEST(EwmaPredictor, Validation) {
  EXPECT_THROW(EwmaPredictor(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(1.5), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(0.5, 0.0), std::invalid_argument);
}

TEST(LinearTrendPredictor, ExtrapolatesRisingLoad) {
  // Load rises 1 req/s every second; the horizon-end prediction must
  // exceed the last observation.
  std::vector<double> rates;
  for (int i = 0; i < 100; ++i) rates.push_back(static_cast<double>(i));
  const LoadTrace trace(rates);
  LinearTrendPredictor p(50.0);
  const double predicted = p.predict(trace, 100, 60.0);
  EXPECT_NEAR(predicted, 159.0, 2.0);  // 99 + 60 extrapolated
}

TEST(LinearTrendPredictor, FallingLoadNeverBelowLastValue) {
  std::vector<double> rates;
  for (int i = 0; i < 100; ++i) rates.push_back(100.0 - i);
  const LoadTrace trace(rates);
  LinearTrendPredictor p(50.0);
  EXPECT_GE(p.predict(trace, 100, 60.0), 1.0);
  EXPECT_THROW(LinearTrendPredictor(1.0), std::invalid_argument);
}

TEST(ErrorInjectingPredictor, ZeroSigmaZeroBiasIsIdentity) {
  const LoadTrace trace({5.0, 6.0, 7.0});
  ErrorInjectingPredictor p(std::make_unique<OracleMaxPredictor>(), 0.0, 0.0,
                            1);
  EXPECT_DOUBLE_EQ(p.predict(trace, 0, 3.0), 7.0);
  EXPECT_EQ(p.name(), "oracle-max+error");
}

TEST(ErrorInjectingPredictor, BiasShiftsPrediction) {
  const LoadTrace trace({100.0});
  ErrorInjectingPredictor p(std::make_unique<OracleMaxPredictor>(), 0.0, 0.2,
                            1);
  EXPECT_NEAR(p.predict(trace, 0, 1.0), 120.0, 1e-9);
}

TEST(ErrorInjectingPredictor, DeterministicPerSeed) {
  const LoadTrace trace(std::vector<double>(50, 10.0));
  ErrorInjectingPredictor a(std::make_unique<OracleMaxPredictor>(), 0.3, 0.0,
                            9);
  ErrorInjectingPredictor b(std::make_unique<OracleMaxPredictor>(), 0.3, 0.0,
                            9);
  for (TimePoint t = 0; t < 20; ++t)
    EXPECT_DOUBLE_EQ(a.predict(trace, t, 5.0), b.predict(trace, t, 5.0));
}

TEST(ErrorInjectingPredictor, NeverNegative) {
  const LoadTrace trace(std::vector<double>(200, 1.0));
  ErrorInjectingPredictor p(std::make_unique<OracleMaxPredictor>(), 3.0, 0.0,
                            4);
  for (TimePoint t = 0; t < 200; ++t)
    EXPECT_GE(p.predict(trace, t, 5.0), 0.0);
}

TEST(ErrorInjectingPredictor, Validation) {
  EXPECT_THROW(
      ErrorInjectingPredictor(nullptr, 0.1, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(ErrorInjectingPredictor(std::make_unique<OracleMaxPredictor>(),
                                       -0.1, 0.0, 1),
               std::invalid_argument);
}

// Property behind the event-driven fast path: predict() must be constant
// on [now, stable_until(now)) — verified brute force against per-second
// queries. Both predictors under test are pure, so probing them at every
// second is side-effect free.
void expect_stability_sound(Predictor& p, const LoadTrace& trace,
                            Seconds horizon) {
  const auto n = static_cast<TimePoint>(trace.size());
  for (TimePoint now = 0; now < n;) {
    const TimePoint stable = p.stable_until(trace, now, horizon);
    ASSERT_GT(stable, now) << "stable_until must advance, t=" << now;
    const double value = p.predict(trace, now, horizon);
    const TimePoint end = std::min(stable, n + 10);
    for (TimePoint t = now + 1; t < end; ++t)
      ASSERT_DOUBLE_EQ(p.predict(trace, t, horizon), value)
          << "span [" << now << ", " << stable << ") broke at t=" << t;
    now = end;
  }
}

TEST(MovingMaxPredictor, StableUntilIsSoundOnStepTrace) {
  const LoadTrace trace = step_trace({{40.0, 300.0},
                                      {900.0, 200.0},
                                      {900.0, 100.0},
                                      {30.0, 400.0},
                                      {0.0, 150.0},
                                      {500.0, 250.0}});
  MovingMaxPredictor p(120.0);
  expect_stability_sound(p, trace, 60.0);
}

TEST(MovingMaxPredictor, StableUntilIsSoundOnSpikyTrace) {
  std::vector<double> rates(600, 10.0);
  rates[50] = 800.0;            // isolated spike enters and leaves the window
  rates[51] = 800.0;
  for (int i = 300; i < 310; ++i) rates[i] = 200.0 + i;  // noisy burst
  MovingMaxPredictor p(90.0);
  expect_stability_sound(p, LoadTrace(rates), 30.0);
}

/// `n_alternating` one-second segments (1, 2, 1, 2, ...) followed by a
/// zero tail — every second in the alternating prefix is its own
/// run-length segment, which pins the 64-segment walk cap exactly.
LoadTrace alternating_then_zero(int n_alternating, Seconds tail) {
  std::vector<StepSegment> segments;
  for (int i = 0; i < n_alternating; ++i)
    segments.push_back({i % 2 == 1 ? 2.0 : 1.0, 1.0});
  segments.push_back({0.0, tail});
  return step_trace(segments);
}

TEST(MovingMaxPredictor, SegmentCapBoundaryExactly64SegmentsBatches) {
  // Window [0, 64) holds exactly 64 segments: the walk completes and the
  // bound is real — the trailing max stays 2 until the last 2 (t = 63)
  // slides out of the window at t = 63 + 64 + 1 = 128.
  MovingMaxPredictor p(64.0);
  const LoadTrace trace = alternating_then_zero(64, 300.0);
  EXPECT_EQ(p.stable_until(trace, 64, 1.0), 128);
}

TEST(MovingMaxPredictor, SegmentCapBoundary65SegmentsDegradesToPerSecond) {
  // One segment past the cap: the walk bails out and the bound degrades
  // gracefully to now + 1 (per-second querying).
  MovingMaxPredictor p(65.0);
  const LoadTrace trace = alternating_then_zero(65, 300.0);
  EXPECT_EQ(p.stable_until(trace, 65, 1.0), 66);
}

TEST(MovingMaxPredictor, StableUntilIsSoundOnNoisyTrace) {
  // A per-second-varying window (hundreds of segments): the cap forces
  // now + 1 in the noisy stretches, which must still be sound.
  DiurnalOptions options;
  options.peak = 400.0;
  options.noise = 0.3;
  options.seed = 13;
  LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> rates;
  for (std::size_t t = 0; t < 900; ++t)
    rates.push_back(day.at(static_cast<TimePoint>(t)));
  MovingMaxPredictor p(90.0);
  expect_stability_sound(p, LoadTrace(rates), 30.0);
}

TEST(SeasonalPredictor, StableUntilIsSoundOnNoisyTrace) {
  DiurnalOptions options;
  options.peak = 300.0;
  options.noise = 0.25;
  options.seed = 19;
  LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> rates;
  for (std::size_t t = 0; t < 1500; ++t)
    rates.push_back(day.at(static_cast<TimePoint>(t)));
  SeasonalPredictor p(/*period=*/600.0, /*headroom=*/1.1);
  expect_stability_sound(p, LoadTrace(rates), 50.0);
}

TEST(LastValuePredictor, StableUntilTracksTraceChanges) {
  const LoadTrace trace = step_trace({{10.0, 5.0}, {20.0, 5.0}});
  LastValuePredictor p;
  // predict(t) reads at(t - 1): the value observed at t = 3 (10.0) holds
  // until one second after the trace steps at t = 5.
  EXPECT_EQ(p.stable_until(trace, 3, 1.0), 6);
  expect_stability_sound(p, trace, 1.0);
}

TEST(MovingMaxPredictor, StableForeverOnceTraceDrained) {
  const LoadTrace trace = step_trace({{700.0, 100.0}, {0.0, 100.0}});
  MovingMaxPredictor p(50.0);
  // Far beyond the end the window holds only implicit zeros.
  EXPECT_EQ(p.stable_until(trace, 1000, 30.0),
            std::numeric_limits<TimePoint>::max());
}

TEST(SeasonalPredictor, StableUntilIsSoundAcrossPeriods) {
  // Two short "days" of a staircase plus a third with a growth spike, with
  // a period small enough that the warm-up branch, the period switch and
  // the growth-ratio windows are all exercised.
  std::vector<StepSegment> segments;
  for (int day = 0; day < 3; ++day)
    for (int hour = 0; hour < 6; ++hour)
      segments.push_back({50.0 + 40.0 * hour * (day + 1), 100.0});
  const LoadTrace trace = step_trace(segments);
  SeasonalPredictor p(/*period=*/600.0, /*headroom=*/1.1);
  expect_stability_sound(p, trace, 50.0);
}

// The segment walk behind MovingMaxPredictor and SeasonalPredictor as
// first written: one LoadTrace::next_change binary search per segment,
// the window max from max_over. The O(log n) cap test and cursor walk
// must return exactly these bounds, not merely sound ones.
TimePoint reference_sliding_max_stable_until(const LoadTrace& trace,
                                             TimePoint now, TimePoint lead,
                                             TimePoint lag) {
  constexpr int kMaxSegments = 64;
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  const auto size = static_cast<TimePoint>(trace.size());
  const double v = trace.max_over(now - lead, now - lag);

  TimePoint leave_at = kNever;
  if (v > 0.0) {
    const TimePoint lo = std::max<TimePoint>(now - lead, 0);
    const TimePoint hi = std::min(now - lag, size);
    TimePoint last_attaining = -1;
    int segments = 0;
    for (TimePoint cur = lo; cur < hi;) {
      if (++segments > kMaxSegments) return now + 1;
      const TimePoint seg_end = std::min(trace.next_change(cur), hi);
      if (trace.at(cur) == v) last_attaining = seg_end - 1;
      cur = seg_end;
    }
    if (last_attaining >= 0) leave_at = last_attaining + lead + 1;
  }

  TimePoint enter_at = kNever;
  int segments = 0;
  for (TimePoint cur = std::max<TimePoint>(now - lag, 0);
       cur < size && cur + lag + 1 < leave_at;) {
    if (trace.at(cur) > v) {
      enter_at = cur + lag + 1;
      break;
    }
    if (++segments > kMaxSegments) {
      enter_at = cur + lag + 1;
      break;
    }
    cur = trace.next_change(cur);
  }

  return std::max(std::min(enter_at, leave_at), now + 1);
}

TimePoint reference_moving_max_stable_until(const LoadTrace& trace,
                                            TimePoint now, TimePoint window) {
  return reference_sliding_max_stable_until(trace, now, window, 0);
}

TimePoint reference_seasonal_stable_until(const LoadTrace& trace,
                                          TimePoint now, TimePoint period,
                                          TimePoint h) {
  if (now < period)
    return std::min(reference_sliding_max_stable_until(trace, now, h, 0),
                    period);
  return std::min(
      {reference_sliding_max_stable_until(trace, now, period, period - h),
       reference_sliding_max_stable_until(trace, now, 3600, 0),
       reference_sliding_max_stable_until(trace, now, period + 3600,
                                          period)});
}

/// Every t from 0 to well past the trace end, so windows clipped at
/// t = 0, windows straddling the end and fully drained windows all count.
void expect_moving_max_matches_reference(const LoadTrace& trace,
                                         TimePoint window) {
  MovingMaxPredictor p(static_cast<Seconds>(window));
  const auto last = static_cast<TimePoint>(trace.size()) + window + 5;
  for (TimePoint t = 0; t <= last; ++t)
    ASSERT_EQ(p.stable_until(trace, t, 60.0),
              reference_moving_max_stable_until(trace, t, window))
        << "window=" << window << " t=" << t;
}

void expect_seasonal_matches_reference(const LoadTrace& trace,
                                       TimePoint period, TimePoint h) {
  SeasonalPredictor p(static_cast<Seconds>(period), 1.1);
  const auto last = static_cast<TimePoint>(trace.size()) + period + 3605;
  for (TimePoint t = 0; t <= last; ++t)
    ASSERT_EQ(p.stable_until(trace, t, static_cast<Seconds>(h)),
              reference_seasonal_stable_until(trace, t, period, h))
        << "period=" << period << " h=" << h << " t=" << t;
}

/// The first `seconds` of a noisy diurnal day, its rates rounded down to a
/// multiple of `quantum` (0 keeps them raw, one segment per second). The
/// coarser the quantum, the fewer segments per window, so the quanta
/// sweep windows from fully fragmented through the cap to a few segments.
LoadTrace noisy_diurnal(std::uint64_t seed, std::size_t seconds,
                        double quantum) {
  DiurnalOptions options;
  options.peak = 600.0;
  options.noise = 0.02;
  options.seed = seed;
  const LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> rates(day.series().values().begin(),
                            day.series().values().begin() +
                                static_cast<std::ptrdiff_t>(seconds));
  if (quantum > 0.0)
    for (double& r : rates) r = std::floor(r / quantum) * quantum;
  return LoadTrace(std::move(rates));
}

TEST(SlidingMaxStableUntil, MatchesReferenceOnNoisyDiurnalTraces) {
  for (const double quantum : {0.0, 2.0, 10.0, 40.0}) {
    const LoadTrace trace = noisy_diurnal(5, 4000, quantum);
    expect_moving_max_matches_reference(trace, 378);
    expect_moving_max_matches_reference(trace, 30);
    expect_seasonal_matches_reference(trace, 1200, 60);
  }
}

TEST(SlidingMaxStableUntil, MatchesReferenceAroundTheSegmentCap) {
  for (const int n : {63, 64, 65, 66})
    for (const TimePoint window : {63, 64, 65, 66}) {
      expect_moving_max_matches_reference(alternating_then_zero(n, 300.0),
                                          window);
      expect_seasonal_matches_reference(alternating_then_zero(n, 300.0),
                                        window + 10, window);
    }
}

TEST(SlidingMaxStableUntil, MatchesReferenceWithAndWithoutZeroTail) {
  const std::vector<LoadTrace> traces = {
      step_trace({{700.0, 100.0}, {0.0, 100.0}}),
      step_trace({{0.0, 50.0}, {300.0, 20.0}, {100.0, 30.0}}),  // nonzero end
      step_trace({{0.0, 40.0}, {5.0, 1.0}, {0.0, 40.0}}),
      step_trace({{0.0, 200.0}}),
      LoadTrace(std::vector<double>{3.0}),
      LoadTrace(std::vector<double>{}),
  };
  for (const LoadTrace& trace : traces)
    for (const TimePoint window : {1, 7, 64, 150}) {
      expect_moving_max_matches_reference(trace, window);
      expect_seasonal_matches_reference(trace, window + 1, window);
    }
}

TEST(SlidingMaxStableUntil, MatchesReferenceOnSeasonalLaggedWindows) {
  // Three short "days" of mixed staircase and noise, a period short enough
  // that the seasonal window (lag = period - h) and yesterday's hour
  // (lag = period) both cover fragmented and flat stretches.
  std::vector<double> rates;
  const LoadTrace noise = noisy_diurnal(11, 900, 0.0);
  for (int day = 0; day < 3; ++day)
    for (int i = 0; i < 900; ++i)
      rates.push_back(i % 300 < 150 ? 100.0 * (1 + (i / 300) + day)
                                    : noise.at(i));
  const LoadTrace trace(std::move(rates));
  for (const TimePoint h : {1, 50, 200})
    expect_seasonal_matches_reference(trace, 900, h);
}

// Property: the oracle prediction always covers the true load at every
// second inside the window — the guarantee the scheduler's QoS rests on.
class OracleCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleCoverage, PredictionCoversWindow) {
  DiurnalOptions options;
  options.noise = 0.1;
  options.seed = GetParam();
  const LoadTrace trace = diurnal_trace(options, 1);
  OracleMaxPredictor oracle;
  for (TimePoint t = 0; t < 86400; t += 1009) {
    const double predicted = oracle.predict(trace, t, 378.0);
    for (TimePoint s = t; s < t + 378 && s < 86400; s += 41)
      ASSERT_GE(predicted, trace.at(s)) << "t=" << t << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleCoverage,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace bml
