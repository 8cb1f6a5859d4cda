// Tests for trace/trace: LoadTrace container and CSV round-trip, plus
// the hinted change-point search of util/run_length.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "util/run_length.hpp"

namespace bml {
namespace {

TEST(LoadTrace, BasicAccessors) {
  const LoadTrace t({10.0, 20.0, 30.0});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.duration(), 3.0);
  EXPECT_DOUBLE_EQ(t.at(1), 20.0);
  EXPECT_DOUBLE_EQ(t.peak(), 30.0);
  EXPECT_DOUBLE_EQ(t.mean(), 20.0);
  EXPECT_DOUBLE_EQ(t.total_requests(), 60.0);
}

TEST(LoadTrace, BeyondEndServesZero) {
  const LoadTrace t({10.0});
  EXPECT_DOUBLE_EQ(t.at(5), 0.0);
  EXPECT_THROW((void)t.at(-1), std::invalid_argument);
}

TEST(LoadTrace, RejectsInvalidRates) {
  EXPECT_THROW(LoadTrace({-1.0}), std::invalid_argument);
  EXPECT_THROW(LoadTrace({std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(LoadTrace({std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(LoadTrace, MaxOverWindow) {
  const LoadTrace t({1.0, 5.0, 2.0, 8.0, 3.0});
  EXPECT_DOUBLE_EQ(t.max_over(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(t.max_over(2, 100), 8.0);
  EXPECT_DOUBLE_EQ(t.max_over(-5, 1), 1.0);  // clamped start
  EXPECT_DOUBLE_EQ(t.max_over(3, 3), 0.0);   // empty window
}

TEST(LoadTrace, DaySlicing) {
  std::vector<double> rates(static_cast<std::size_t>(kSecondsPerDay) + 100,
                            1.0);
  rates[50] = 42.0;                                     // day 0 peak
  rates[static_cast<std::size_t>(kSecondsPerDay) + 7] = 17.0;  // day 1 peak
  const LoadTrace t(std::move(rates));
  EXPECT_EQ(t.days(), 2u);
  EXPECT_DOUBLE_EQ(t.day_peak(0), 42.0);
  EXPECT_DOUBLE_EQ(t.day_peak(1), 17.0);
  EXPECT_THROW((void)t.day_peak(2), std::out_of_range);
}

TEST(LoadTrace, CsvRoundTrip) {
  const LoadTrace original({1.5, 0.0, 300.25});
  const LoadTrace parsed = LoadTrace::from_csv(original.to_csv());
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i)
    EXPECT_DOUBLE_EQ(parsed.at(static_cast<TimePoint>(i)),
                     original.at(static_cast<TimePoint>(i)));
}

TEST(LoadTrace, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "bml_trace_test.csv";
  const LoadTrace original({5.0, 10.0});
  original.save(path);
  const LoadTrace loaded = LoadTrace::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.at(1), 10.0);
  std::filesystem::remove(path);
}

TEST(LoadTrace, EmptyTraceBehaviour) {
  const LoadTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.days(), 0u);
  EXPECT_DOUBLE_EQ(t.peak(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(LoadTrace, IdIsKeptByCopiesAndDrawnAnewByConstructors) {
  const LoadTrace a({1.0, 2.0});
  const LoadTrace b({1.0, 2.0});
  LoadTrace moved = a;
  const LoadTrace c = std::move(moved);
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(c.id(), a.id());
  EXPECT_NE(LoadTrace().id(), LoadTrace().id());
}

TEST(PartitionPointHinted, MatchesPartitionPointFromAnyHint) {
  const std::vector<std::size_t> sorted = {2, 3, 5, 9, 10, 11, 20};
  for (std::size_t x = 0; x < 23; ++x)
    for (std::size_t start = 0; start < sorted.size() + 3; ++start) {
      const auto before = [x](std::size_t c) { return c <= x; };
      std::size_t hint = start;
      const std::size_t expected = static_cast<std::size_t>(
          std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
      EXPECT_EQ(partition_point_hinted(sorted, before, hint), expected)
          << "x=" << x << " hint=" << start;
      EXPECT_EQ(hint, expected);
    }
  std::size_t hint = 5;
  EXPECT_EQ(partition_point_hinted(
                std::vector<std::size_t>{}, [](std::size_t) { return true; },
                hint),
            0u);
}

}  // namespace
}  // namespace bml
