// Load traces: the application's request rate over time.
//
// A LoadTrace is a 1 Hz series of request rates (req/s), starting at t = 0.
// The evaluation slices traces per day (the paper reports per-day energy
// for days 6-92 of the 1998 World Cup trace).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/time_series.hpp"
#include "util/units.hpp"

namespace bml {

/// 1 Hz request-rate series with day-level helpers.
class LoadTrace {
 public:
  LoadTrace() = default;
  /// Throws std::invalid_argument when any rate is negative or non-finite.
  explicit LoadTrace(std::vector<double> rates);

  [[nodiscard]] std::size_t size() const { return series_.size(); }
  [[nodiscard]] bool empty() const { return series_.empty(); }
  [[nodiscard]] Seconds duration() const { return series_.duration(); }

  /// Rate at integer second `t`; 0 beyond the end (a finished trace serves
  /// no load).
  [[nodiscard]] ReqRate at(TimePoint t) const;

  /// Maximum rate over [begin, end) in seconds, clamped to the trace; the
  /// paper's look-ahead prediction primitive. Returns 0 for empty ranges.
  [[nodiscard]] ReqRate max_over(TimePoint begin, TimePoint end) const;

  /// First second after `t` whose rate differs from at(t) — the run-length
  /// primitive of the event-driven simulator. Returns size() when the rest
  /// of the trace holds the same value (the implicit 0 beyond the end
  /// counts as a change unless at(t) is itself 0). O(log #segments): the
  /// change points are indexed at construction.
  [[nodiscard]] TimePoint next_change(TimePoint t) const;

  [[nodiscard]] ReqRate peak() const;
  [[nodiscard]] ReqRate mean() const;

  /// Number of (possibly partial) days covered.
  [[nodiscard]] std::size_t days() const;

  /// Maximum rate of day `d` (0-based). Throws std::out_of_range.
  [[nodiscard]] ReqRate day_peak(std::size_t d) const;

  /// Total requests over the trace (integral of the rate).
  [[nodiscard]] double total_requests() const;

  [[nodiscard]] const TimeSeries& series() const { return series_; }

  /// Process-unique identity of the trace's contents, never 0: drawn
  /// anew by each constructor and kept by copy and move. Per-trace caches
  /// key on it rather than on the object's address, which a different
  /// trace may reuse.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Indices i with series[i] != series[i - 1], ascending — the segment
  /// starts of the piecewise-constant view. Consumed by
  /// sim/compiled_trace.hpp to build the RLE form in O(#segments).
  [[nodiscard]] const std::vector<std::size_t>& change_points() const {
    return change_points_;
  }

  /// CSV round-trip: single `rate` column, one row per second.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] static LoadTrace from_csv(const std::string& text);
  void save(const std::filesystem::path& path) const;
  [[nodiscard]] static LoadTrace load(const std::filesystem::path& path);

 private:
  TimeSeries series_;
  // Indices i with series_[i] != series_[i - 1], ascending — the segment
  // starts of a piecewise-constant view of the trace.
  std::vector<std::size_t> change_points_;
  std::uint64_t id_ = next_id();

  [[nodiscard]] static std::uint64_t next_id();
};

}  // namespace bml
