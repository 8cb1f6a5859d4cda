// Run-length lookup over piecewise-constant series.
//
// Both the load trace and the oracle predictor's window-max cache expose
// "when does this series next change value?" to the event-driven
// simulator. They share this helper so the subtle tail rule — beyond the
// series the value is an implicit 0, which counts as a change only when
// the last stored value is non-zero — lives in exactly one place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/units.hpp"

namespace bml {

/// First index after `idx` at which a length-`size` series changes value.
/// `change_points` holds, ascending, the indices whose value differs from
/// their predecessor; `last_value` is the series' final stored value.
/// Returns `size` when the series is constant from `idx` to its end but
/// the implicit 0 afterwards differs, and "never"
/// (std::numeric_limits<TimePoint>::max()) when it does not.
[[nodiscard]] inline TimePoint next_change_point(
    const std::vector<std::size_t>& change_points, std::size_t idx,
    std::size_t size, double last_value) {
  const auto it =
      std::upper_bound(change_points.begin(), change_points.end(), idx);
  if (it != change_points.end()) return static_cast<TimePoint>(*it);
  if (last_value == 0.0) return std::numeric_limits<TimePoint>::max();
  return static_cast<TimePoint>(size);
}

/// std::partition_point over the ascending `sorted` for a predicate
/// `before` that holds on a prefix of it, resumed from `hint`, the slot
/// the previous call resolved to. O(1) when the answer moved by at most
/// one slot since — the step of a probe that advances second by second —
/// and a binary search otherwise, so any access pattern stays correct.
/// Re-seats `hint` to the answer.
template <typename Before>
[[nodiscard]] std::size_t partition_point_hinted(
    const std::vector<std::size_t>& sorted, Before before,
    std::size_t& hint) {
  const std::size_t n = sorted.size();
  std::size_t j = std::min(hint, n);
  if (j < n && before(sorted[j])) {
    ++j;  // the answer lies right of the hint: one slot is the hot case
    if (j < n && before(sorted[j]))
      j = static_cast<std::size_t>(
          std::partition_point(sorted.begin() + static_cast<std::ptrdiff_t>(j),
                               sorted.end(), before) -
          sorted.begin());
  } else if (j > 0 && !before(sorted[j - 1])) {
    j = static_cast<std::size_t>(
        std::partition_point(sorted.begin(),
                             sorted.begin() + static_cast<std::ptrdiff_t>(j),
                             before) -
        sorted.begin());
  }
  hint = j;
  return j;
}

/// next_change_point with a caller-held cursor (see
/// partition_point_hinted): the monotonically advancing probe sequences
/// of the schedulers' stability walks cost O(1) amortised instead of one
/// binary search per probe.
[[nodiscard]] inline TimePoint next_change_point_hinted(
    const std::vector<std::size_t>& change_points, std::size_t idx,
    std::size_t size, double last_value, std::size_t& hint) {
  const std::size_t j = partition_point_hinted(
      change_points, [idx](std::size_t c) { return c <= idx; }, hint);
  if (j < change_points.size())
    return static_cast<TimePoint>(change_points[j]);
  if (last_value == 0.0) return std::numeric_limits<TimePoint>::max();
  return static_cast<TimePoint>(size);
}

}  // namespace bml
