// Tests for util/table (ASCII rendering), util/rng (determinism), and
// util/logging (threshold behaviour).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace bml {
namespace {

TEST(AsciiTable, RendersAlignedRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "23"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   |"), std::string::npos);
  EXPECT_NE(out.find("| longer |    23 |"), std::string::npos);
}

TEST(AsciiTable, RejectsBadShapes) {
  EXPECT_THROW(AsciiTable({}), std::invalid_argument);
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.set_alignments({Align::kLeft}), std::invalid_argument);
}

TEST(AsciiTable, NumFormatsFixedDigits) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const auto n = rng.uniform_int(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(Rng, PoissonAndChanceEdgeCases) {
  Rng rng(9);
  EXPECT_EQ(rng.poisson(-1.0), 0);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child stream should not replay the parent's next values.
  Rng b(5);
  (void)b.engine()();  // consume what split() consumed
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  (void)child;
}

#ifdef __GLIBCXX__
/// One draw of `mean` from the owned sampler (through `memo` when given) and
/// from a std::poisson_distribution constructed for the draw, on engines
/// seeded alike: the counts and the engine states after the draw must match.
/// Rng::poisson returns 0 for mean <= 0 without drawing, which the
/// reference mirrors (std::poisson_distribution requires mean > 0).
void expect_same_draw_as_std(Rng& ours, std::mt19937_64& ref, double mean,
                             PoissonMemo* memo) {
  const std::int64_t got =
      memo != nullptr ? ours.poisson(mean, *memo) : ours.poisson(mean);
  const std::int64_t want =
      mean > 0.0 ? std::poisson_distribution<std::int64_t>(mean)(ref) : 0;
  ASSERT_EQ(got, want) << "mean " << mean;
  ASSERT_TRUE(ours.engine() == ref) << "engine state diverged at " << mean;
}
#endif

TEST(Rng, PoissonMatchesLibstdcxxAtEdgeMeans) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the reference algorithm is libstdc++'s";
#else
  const double means[] = {0.0,
                          -1.0,
                          1e-300,
                          0.5,
                          std::nextafter(12.0, 0.0),
                          12.0,
                          12.5,
                          100.0,
                          5200.0,
                          1e6,
                          static_cast<double>(PoissonMemo::kBound) + 0.5};
  for (const bool with_memo : {false, true}) {
    Rng ours(20260);
    std::mt19937_64 ref(20260);
    PoissonMemo memo;
    for (const double mean : means)
      for (int i = 0; i < 2000; ++i)
        expect_same_draw_as_std(ours, ref, mean,
                                with_memo ? &memo : nullptr);
  }
#endif
}

TEST(Rng, PoissonMatchesLibstdcxxOnNoisyRamp) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the reference algorithm is libstdc++'s";
#else
  // A noisy ramp up to ~6000, as in a World Cup trace's per-second pass:
  // nearby floor(mean) values recur, so memo hits and misses interleave.
  Rng noise(3);
  std::vector<double> means(100000);
  for (std::size_t i = 0; i < means.size(); ++i)
    means[i] = 6000.0 * static_cast<double>(i) /
               static_cast<double>(means.size()) *
               std::max(0.0, 1.0 + noise.normal(0.0, 0.05));
  Rng ours(77);
  std::mt19937_64 ref(77);
  PoissonMemo memo;
  for (const double mean : means) expect_same_draw_as_std(ours, ref, mean, &memo);
#endif
}

TEST(Rng, PoissonMemoComputesEachFloorMeanOnce) {
  const double bound = static_cast<double>(PoissonMemo::kBound);
  const std::vector<double> means = {5.0,   12.0,  12.9,        13.1,
                                     100.0, 100.7, 12.5,        bound + 3.0,
                                     bound, 13.0,  bound - 0.5, 100.2};
  std::set<double> distinct;
  for (const double mean : means)
    if (mean >= 12.0 && mean < bound) distinct.insert(std::floor(mean));
  Rng rng(11);
  PoissonMemo memo;
  for (int pass = 0; pass < 3; ++pass)
    for (const double mean : means) (void)rng.poisson(mean, memo);
  // 12, 13, 100 and kBound - 1; below 12 and at or above kBound nothing
  // is cached.
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(memo.parameter_fills(), distinct.size());
}

TEST(Logging, ThresholdFilters) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  testing::internal::CaptureStderr();
  log_info() << "should not appear";
  log_error() << "should appear";
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("should not appear"), std::string::npos);
  EXPECT_NE(err.find("should appear"), std::string::npos);
  set_log_level(before);
}

}  // namespace
}  // namespace bml
