// Tests for trace/synthetic: generators and their statistical shape.
#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include "scenario/registry.hpp"

namespace bml {
namespace {

TEST(ConstantTrace, FlatAtRate) {
  const LoadTrace t = constant_trace(50.0, 100.0);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_DOUBLE_EQ(t.peak(), 50.0);
  EXPECT_DOUBLE_EQ(t.mean(), 50.0);
  EXPECT_THROW((void)constant_trace(-1.0, 10.0), std::invalid_argument);
}

TEST(StepTrace, SegmentsInOrder) {
  const LoadTrace t = step_trace({{10.0, 5.0}, {20.0, 3.0}});
  ASSERT_EQ(t.size(), 8u);
  EXPECT_DOUBLE_EQ(t.at(4), 10.0);
  EXPECT_DOUBLE_EQ(t.at(5), 20.0);
  EXPECT_THROW((void)step_trace({{-1.0, 5.0}}), std::invalid_argument);
}

TEST(DiurnalTrace, PeaksNearPeakHourTroughsOpposite) {
  DiurnalOptions options;
  options.peak = 1000.0;
  options.trough_fraction = 0.2;
  options.peak_hour = 18.0;
  options.noise = 0.0;
  const LoadTrace t = diurnal_trace(options, 1);
  const auto at_hour = [&t](double h) {
    return t.at(static_cast<TimePoint>(h * 3600.0));
  };
  EXPECT_NEAR(at_hour(18.0), 1000.0, 1.0);
  EXPECT_NEAR(at_hour(6.0), 200.0, 1.0);
  EXPECT_GT(at_hour(15.0), at_hour(9.0));
}

TEST(DiurnalTrace, DeterministicPerSeed) {
  DiurnalOptions options;
  options.noise = 0.05;
  options.seed = 11;
  const LoadTrace a = diurnal_trace(options, 1);
  const LoadTrace b = diurnal_trace(options, 1);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.at(static_cast<TimePoint>(i * 777)),
                     b.at(static_cast<TimePoint>(i * 777)));
}

TEST(DiurnalTrace, Validation) {
  DiurnalOptions bad;
  bad.peak = 0.0;
  EXPECT_THROW((void)diurnal_trace(bad, 1), std::invalid_argument);
  DiurnalOptions bad2;
  bad2.trough_fraction = 1.5;
  EXPECT_THROW((void)diurnal_trace(bad2, 1), std::invalid_argument);
}

TEST(FlashCrowdTrace, RampHoldDecay) {
  FlashCrowdOptions options;
  options.base = 10.0;
  options.burst_peak = 100.0;
  options.duration = 1000.0;
  options.burst_start = 200.0;
  options.ramp = 100.0;
  options.hold = 200.0;
  const LoadTrace t = flash_crowd_trace(options);
  EXPECT_DOUBLE_EQ(t.at(100), 10.0);            // before burst
  EXPECT_NEAR(t.at(250), 55.0, 1.0);            // mid ramp
  EXPECT_DOUBLE_EQ(t.at(400), 100.0);           // hold
  EXPECT_DOUBLE_EQ(t.at(900), 10.0);            // after decay
  EXPECT_DOUBLE_EQ(t.peak(), 100.0);
}

TEST(WorldCupTrace, ShapeInvariants) {
  WorldCupOptions options;
  options.days = 10;
  options.peak = 2000.0;
  options.tournament_start_day = 4;
  options.tournament_end_day = 9;
  options.seed = 3;
  const LoadTrace t = worldcup_like_trace(options);
  EXPECT_EQ(t.days(), 10u);
  // The realised maximum is pinned exactly to the requested peak.
  EXPECT_NEAR(t.peak(), 2000.0, 1e-6);
  // Pre-tournament days are far quieter than the finals.
  EXPECT_LT(t.day_peak(0), 0.35 * t.day_peak(9));
  // Tournament growth: late days beat early tournament days.
  EXPECT_GT(t.day_peak(9), t.day_peak(4));
}

TEST(WorldCupTrace, DeterministicPerSeed) {
  WorldCupOptions options;
  options.days = 2;
  options.seed = 5;
  const LoadTrace a = worldcup_like_trace(options);
  const LoadTrace b = worldcup_like_trace(options);
  for (std::size_t i = 0; i < a.size(); i += 9973)
    EXPECT_DOUBLE_EQ(a.at(static_cast<TimePoint>(i)),
                     b.at(static_cast<TimePoint>(i)));
  WorldCupOptions other = options;
  other.seed = 6;
  const LoadTrace c = worldcup_like_trace(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); i += 9973)
    if (a.at(static_cast<TimePoint>(i)) != c.at(static_cast<TimePoint>(i)))
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(WorldCupTrace, PoissonArrivalsRaiseShortTermVariance) {
  WorldCupOptions smooth;
  smooth.days = 1;
  smooth.poisson_arrivals = false;
  smooth.noise = 0.0;
  WorldCupOptions bursty = smooth;
  bursty.poisson_arrivals = true;
  const LoadTrace a = worldcup_like_trace(smooth);
  const LoadTrace b = worldcup_like_trace(bursty);
  // Compare second-to-second jitter around noon.
  auto jitter = [](const LoadTrace& t) {
    double sum = 0.0;
    const TimePoint base = 12 * 3600;
    for (TimePoint s = 0; s < 600; ++s)
      sum += std::abs(t.at(base + s + 1) - t.at(base + s));
    return sum;
  };
  EXPECT_GT(jitter(b), jitter(a) * 5.0);
}

TEST(WorldCupTrace, Validation) {
  WorldCupOptions bad;
  bad.days = 0;
  EXPECT_THROW((void)worldcup_like_trace(bad), std::invalid_argument);
  WorldCupOptions bad2;
  bad2.tournament_start_day = 5;
  bad2.tournament_end_day = 2;
  EXPECT_THROW((void)worldcup_like_trace(bad2), std::invalid_argument);
}

/// Expects worldcup_like_trace to reject the options that `edit` makes,
/// with an std::invalid_argument naming `field`.
void expect_rejected(const std::function<void(WorldCupOptions&)>& edit,
                     const std::string& field) {
  WorldCupOptions options;
  options.days = 2;
  edit(options);
  try {
    (void)worldcup_like_trace(options);
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(WorldCupTrace, RejectsMicroBurstLongerThanADay) {
  expect_rejected([](auto& o) { o.micro_burst_max_duration = 90000.0; },
                  "micro_burst_max_duration");
}

TEST(WorldCupTrace, RejectsNewsBurstThatDoesNotFitInADay) {
  // 86,200 s plateau + 2 * 120 s ramps + 1 > 86,400 s.
  expect_rejected([](auto& o) { o.news_burst_max_duration = 86200.0; },
                  "news_burst_max_duration");
}

TEST(WorldCupTrace, RejectsMinAboveMaxPairs) {
  expect_rejected([](auto& o) { o.news_burst_min_amplitude = 0.6; },
                  "news_burst_min_amplitude");
  expect_rejected([](auto& o) { o.news_burst_min_duration = 3000.0; },
                  "news_burst_min_duration");
  expect_rejected([](auto& o) { o.micro_burst_min_amplitude = 0.06; },
                  "micro_burst_min_amplitude");
  expect_rejected([](auto& o) { o.micro_burst_min_duration = 400.0; },
                  "micro_burst_min_duration");
}

TEST(WorldCupTrace, RejectsNegativeRatesAndDurations) {
  expect_rejected([](auto& o) { o.news_burst_prob_per_day = -0.1; },
                  "news_burst_prob_per_day");
  expect_rejected([](auto& o) { o.micro_bursts_per_day = -1.0; },
                  "micro_bursts_per_day");
  expect_rejected([](auto& o) { o.news_burst_min_amplitude = -0.1; },
                  "news_burst_min_amplitude");
  expect_rejected([](auto& o) { o.micro_burst_min_amplitude = -0.1; },
                  "micro_burst_min_amplitude");
  expect_rejected([](auto& o) { o.news_burst_min_duration = -1.0; },
                  "news_burst_min_duration");
  expect_rejected([](auto& o) { o.micro_burst_min_duration = -1.0; },
                  "micro_burst_min_duration");
  expect_rejected([](auto& o) { o.news_burst_ramp = -5.0; },
                  "news_burst_ramp");
}

TEST(WorldCupTrace, RejectsNonPositiveMatchDuration) {
  expect_rejected([](auto& o) { o.match_duration = 0.0; }, "match_duration");
  expect_rejected([](auto& o) { o.match_duration = -3600.0; },
                  "match_duration");
}

TEST(WorldCupTrace, DisabledBurstChannelIgnoresItsShape) {
  WorldCupOptions options;
  options.days = 2;
  options.news_burst_prob_per_day = 0.0;
  options.news_burst_max_duration = 90000.0;
  options.micro_bursts_per_day = 0.0;
  options.micro_burst_max_duration = 90000.0;
  EXPECT_NO_THROW((void)worldcup_like_trace(options));
}

TEST(WorldCupTrace, SpecKeyOutOfRangeIsRejectedThroughMakeTrace) {
  try {
    (void)make_trace("worldcup_like",
                     {{"days", "2"}, {"micro_burst_max_duration", "90000"}},
                     1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("micro_burst_max_duration"),
              std::string::npos)
        << e.what();
  }
}

TEST(WorldCupTrace, GoldenDigest) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "noise normals and burst uniforms come from <random>, "
                  "whose distributions are implementation-specific";
#else
  // FNV-1a over every sample's bits (least significant byte first) of a
  // 3-day trace whose days 1-2 are tournament days, so match surges, a
  // news burst (both seeds draw one), micro-bursts, noise and Poisson
  // arrivals all contribute. Recorded before the generator tabulated its
  // shape and took over the Poisson sampler: any changed sample fails.
  const auto digest = [](const LoadTrace& t) {
    std::uint64_t h = 14695981039346656037ull;
    for (const double v : t.series().values()) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int k = 0; k < 8; ++k) {
        h ^= (bits >> (8 * k)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
    return h;
  };
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {
      {1, 0x77e95c82bc7303c1ull}, {7, 0x2989480c8bb52f1eull}};
  for (const auto& [seed, expected] : golden) {
    WorldCupOptions options;
    options.days = 3;
    options.tournament_start_day = 1;
    options.tournament_end_day = 2;
    options.seed = seed;
    const LoadTrace t = worldcup_like_trace(options);
    ASSERT_EQ(t.size(), 3u * static_cast<std::size_t>(kSecondsPerDay));
    EXPECT_EQ(digest(t), expected) << "seed " << seed;
  }
#endif
}

TEST(WorldCupTrace, MatchDaysShowEveningSurges) {
  WorldCupOptions options;
  options.days = 12;
  options.tournament_start_day = 8;
  options.tournament_end_day = 11;
  options.noise = 0.0;
  options.poisson_arrivals = false;
  const LoadTrace t = worldcup_like_trace(options);
  // On a tournament day, the 21:00 kick-off hour beats the 10:00 hour by
  // more than the diurnal shape alone explains on a pre-tournament day.
  const auto at = [&t](std::size_t day, double hour) {
    return t.at(static_cast<TimePoint>(day) * kSecondsPerDay +
                static_cast<TimePoint>(hour * 3600.0));
  };
  const double match_ratio = at(10, 21.5) / at(10, 10.0);
  const double quiet_ratio = at(2, 21.5) / at(2, 10.0);
  EXPECT_GT(match_ratio, quiet_ratio * 1.3);
}

}  // namespace
}  // namespace bml
