// Load predictors.
//
// The scheduler asks, at time t, for the load it must be able to serve over
// the next `horizon` seconds. The paper "emulate[s] a load prediction
// mechanism by considering a sliding look-ahead window... the maximum load
// value over a window of 378 seconds, equivalent to 2 times the longest On
// duration" — that is OracleMaxPredictor. Reactive predictors (history
// only) and an error-injection wrapper implement the paper's future-work
// study of prediction errors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bml {

/// Interface: predicted *maximum* load over [now, now + horizon).
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Predicts the maximum rate over the look-ahead window. Implementations
  /// document whether they peek at the future (oracle) or only at history
  /// (trace samples strictly before `now`).
  [[nodiscard]] virtual ReqRate predict(const LoadTrace& trace, TimePoint now,
                                        Seconds horizon) = 0;

  /// First time strictly after `now` at which predict() may return a value
  /// different from predict(now) — the event-driven simulator skips
  /// redundant scheduler consultations up to (exclusive) this bound.
  /// Predictors with per-call state (EWMA, error injection) must keep the
  /// conservative default of now + 1, which preserves per-second querying.
  [[nodiscard]] virtual TimePoint stable_until(const LoadTrace& trace,
                                               TimePoint now,
                                               Seconds horizon) {
    (void)trace;
    (void)horizon;
    return now + 1;
  }

  /// True when predict() is a pure function of (trace, now, horizon): no
  /// internal state is read or written, so callers may probe *future* time
  /// points without corrupting the predictor. This is what lets the
  /// schedulers' decision-level stability walk continue across a
  /// stable_until of now + 1 (a pure predictor whose value genuinely
  /// changes next second) — the per-second limiter on noisy traces.
  /// Stateful predictors (EWMA, error injection) must keep the default.
  [[nodiscard]] virtual bool pure() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's emulated predictor: true maximum over the look-ahead window
/// (reads the future — an oracle). Window maxima are precomputed with a
/// monotone queue on first use (O(n) once, O(1) per query), which matters
/// when the scheduler asks once per second over a three-month trace.
class OracleMaxPredictor final : public Predictor {
 public:
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// O(log #segments) lookup in the window-max change-point index built
  /// alongside the cache.
  [[nodiscard]] TimePoint stable_until(const LoadTrace& trace, TimePoint now,
                                       Seconds horizon) override;
  [[nodiscard]] bool pure() const override { return true; }
  [[nodiscard]] std::string name() const override { return "oracle-max"; }

 private:
  /// Validates the query and (re)builds the cache when the trace (by
  /// LoadTrace::id()) or horizon changed — shared by predict() and
  /// stable_until().
  void ensure_cache(const LoadTrace& trace, TimePoint now, Seconds horizon);
  void rebuild_cache(const LoadTrace& trace, Seconds horizon);

  std::uint64_t cached_trace_id_ = 0;  // LoadTrace::id(), never 0
  Seconds cached_horizon_ = 0.0;
  std::vector<double> window_max_;  // max over [t, t + horizon) per t
  // Indices where window_max_ changes value, ascending — lets
  // stable_until answer in O(log #segments).
  std::vector<std::size_t> window_change_points_;
  // Cursor into window_change_points_ carried between stable_until
  // calls: the scheduler's stability walk probes monotonically
  // increasing times, so consecutive lookups resolve without the binary
  // search (see next_change_point_hinted).
  std::size_t change_hint_ = 0;
};

/// Where a sliding-window stability query last resolved in
/// LoadTrace::change_points(): the window's first and past-the-end change
/// point slots and the slot the enter walk started from. The schedulers'
/// stability walks probe time points second by second, so a search
/// resumed from here is O(1) (see partition_point_hinted). Any value is
/// correct; a stale one only costs a binary search.
struct SlidingMaxCursor {
  std::size_t window_begin = 0;
  std::size_t window_end = 0;
  std::size_t enter = 0;
};

/// Last observed value (history only).
class LastValuePredictor final : public Predictor {
 public:
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// The prediction tracks at(now - 1): stable until one second after the
  /// trace's next change.
  [[nodiscard]] TimePoint stable_until(const LoadTrace& trace, TimePoint now,
                                       Seconds horizon) override;
  [[nodiscard]] bool pure() const override { return true; }
  [[nodiscard]] std::string name() const override { return "last-value"; }
};

/// Maximum over the trailing `window` seconds of history; a safe reactive
/// stand-in for the oracle when the load is cyclic.
class MovingMaxPredictor final : public Predictor {
 public:
  explicit MovingMaxPredictor(Seconds window);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// The trailing-window max is a pure function of the trace, so a
  /// conservative change bound follows from a cursor walk over the trace's
  /// change points (see sliding_max_stable_until). A window of more than
  /// 64 segments is counted by two searches over the change points —
  /// O(log n), O(1) when resumed from the previous probe — and degrades
  /// to now + 1, so noisy spans stay cheap as well as sound.
  [[nodiscard]] TimePoint stable_until(const LoadTrace& trace, TimePoint now,
                                       Seconds horizon) override;
  [[nodiscard]] bool pure() const override { return true; }
  [[nodiscard]] std::string name() const override { return "moving-max"; }

 private:
  Seconds window_;
  SlidingMaxCursor cursor_;
};

/// Exponentially weighted moving average of history with a safety factor:
/// prediction = headroom * EWMA. alpha in (0, 1]; larger = more reactive.
class EwmaPredictor final : public Predictor {
 public:
  EwmaPredictor(double alpha, double headroom = 1.2);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  [[nodiscard]] std::string name() const override { return "ewma"; }

 private:
  double alpha_;
  double headroom_;
  bool primed_ = false;
  double state_ = 0.0;
  TimePoint last_now_ = -1;
};

/// Least-squares linear trend over the trailing `window` seconds,
/// extrapolated to the end of the horizon; never below the last value.
class LinearTrendPredictor final : public Predictor {
 public:
  explicit LinearTrendPredictor(Seconds window);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// Pure function of the trailing window (no internal state), though the
  /// fit changes almost every second — stable_until keeps the now + 1
  /// default and the schedulers' decision-level walk does the merging.
  [[nodiscard]] bool pure() const override { return true; }
  [[nodiscard]] std::string name() const override { return "linear-trend"; }

 private:
  Seconds window_;
};

/// Seasonal (diurnal) predictor: the maximum observed over the same
/// window one period ago (default period: 24 h), scaled by a headroom
/// factor and the day-over-day growth of recent load. History only —
/// a practical stand-in for the oracle on strongly diurnal workloads like
/// the World Cup trace. Falls back to the trailing window max while less
/// than one full period of history exists.
class SeasonalPredictor final : public Predictor {
 public:
  explicit SeasonalPredictor(Seconds period = 86'400.0,
                             double headroom = 1.1);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// Pure function of the trace: stable while the three windowed maxima
  /// the forecast is built from (seasonal window, trailing hour, same hour
  /// yesterday) are all stable, and never past the warm-up/period switch.
  [[nodiscard]] TimePoint stable_until(const LoadTrace& trace, TimePoint now,
                                       Seconds horizon) override;
  [[nodiscard]] bool pure() const override { return true; }
  [[nodiscard]] std::string name() const override { return "seasonal"; }

 private:
  Seconds period_;
  double headroom_;
  // One per windowed maximum; the warm-up window shares the first.
  SlidingMaxCursor seasonal_cursor_;
  SlidingMaxCursor recent_cursor_;
  SlidingMaxCursor yesterday_cursor_;
};

/// Wraps a predictor and perturbs its output with multiplicative Gaussian
/// error (sigma = relative error stddev) plus optional constant bias.
/// Results are clamped at 0. Deterministic given the seed. This is the
/// instrument for the paper's "impact of load prediction errors" question.
class ErrorInjectingPredictor final : public Predictor {
 public:
  ErrorInjectingPredictor(std::unique_ptr<Predictor> inner, double sigma,
                          double bias, std::uint64_t seed);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<Predictor> inner_;
  double sigma_;
  double bias_;
  Rng rng_;
};

}  // namespace bml
