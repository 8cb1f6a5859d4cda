#include "predict/predictor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/run_length.hpp"

namespace bml {

namespace {

/// Conservative first time strictly after `now` at which the sliding-window
/// maximum max_over(t - lead, t - lag) may change value. Two events can
/// move the max:
///   * a sample larger than the current max enters the window — index
///     j >= now - lag enters at t = j + lag + 1;
///   * the last window index attaining the max slides out — index i leaves
///     at t = i + lead + 1 (a max of 0 cannot drop, rates are >= 0).
/// Both are found by walking the trace's piecewise-constant segments with a
/// cursor into change_points(). Both walks are capped: past kMaxSegments
/// segments the trace is too fragmented for batching to pay off and the
/// bound degrades to now + 1, preserving per-second querying. The window's
/// own segment count takes two searches over the change points, so a
/// fragmented window is refused in O(log n) before any walk — O(1) when
/// `cursor` holds the previous, one-second-earlier probe's slots.
TimePoint sliding_max_stable_until(const LoadTrace& trace, TimePoint now,
                                   TimePoint lead, TimePoint lag,
                                   SlidingMaxCursor& cursor) {
  constexpr std::ptrdiff_t kMaxSegments = 64;
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  const auto size = static_cast<TimePoint>(trace.size());
  const auto values = trace.series().values();
  const std::vector<std::size_t>& changes = trace.change_points();
  // First change point after index `i`, resumed from `hint`.
  const auto first_change_after = [&](TimePoint i, std::size_t& hint) {
    const auto idx = static_cast<std::size_t>(i);
    return changes.begin() +
           static_cast<std::ptrdiff_t>(partition_point_hinted(
               changes, [idx](std::size_t c) { return c <= idx; }, hint));
  };

  // The window [lo, hi) holds 1 + #{change points c : lo < c <= hi - 1}
  // segments. More than one segment means two distinct non-negative
  // values, so a window past the cap always has a max > 0 to walk.
  const TimePoint lo = std::max<TimePoint>(now - lead, 0);
  const TimePoint hi = std::min(now - lag, size);
  double v = 0.0;  // the window max, max_over(now - lead, now - lag)
  TimePoint leave_at = kNever;
  if (lo < hi) {
    const auto first = first_change_after(lo, cursor.window_begin);
    const auto last = first_change_after(hi - 1, cursor.window_end);
    if (last - first >= kMaxSegments) return now + 1;
    TimePoint last_attaining = -1;
    TimePoint seg_begin = lo;
    for (auto it = first;; ++it) {
      const TimePoint seg_end = it == last ? hi : static_cast<TimePoint>(*it);
      const double x = values[static_cast<std::size_t>(seg_begin)];
      if (x >= v) {  // ties move to the later segment: the last attaining
        v = x;
        last_attaining = seg_end - 1;
      }
      if (it == last) break;
      seg_begin = seg_end;
    }
    if (v > 0.0) leave_at = last_attaining + lead + 1;
  }

  // Samples beyond the trace end are the implicit 0, which never exceeds a
  // non-negative max, so the walk stops at the trace end — where the
  // cursor runs out of change points. Bailing out at the segment cap is
  // still sound: every sample walked so far was <= v.
  TimePoint enter_at = kNever;
  TimePoint cur = std::max<TimePoint>(now - lag, 0);
  auto next = first_change_after(cur, cursor.enter);
  for (std::ptrdiff_t segments = 1; cur < size && cur + lag + 1 < leave_at;
       ++segments) {
    if (values[static_cast<std::size_t>(cur)] > v ||
        segments > kMaxSegments) {
      enter_at = cur + lag + 1;
      break;
    }
    cur = next == changes.end() ? size : static_cast<TimePoint>(*next++);
  }

  return std::max(std::min(enter_at, leave_at), now + 1);
}

}  // namespace

void OracleMaxPredictor::rebuild_cache(const LoadTrace& trace,
                                       Seconds horizon) {
  const auto values = trace.series().values();
  const std::size_t n = values.size();
  const auto w = static_cast<std::size_t>(horizon);
  window_max_.assign(n, 0.0);
  // Monotone queue of indices over [t, t + w), values decreasing front to
  // back, kept in a power-of-two ring: it never holds more than w + 1.
  std::vector<std::size_t> ring(std::bit_ceil(std::min(n, w) + 1));
  const std::size_t mask = ring.size() - 1;
  std::size_t head = 0;   // live slots are [head, tail), taken mod the ring
  std::size_t tail = 0;
  std::size_t right = 0;  // first index not yet inserted
  for (std::size_t t = 0; t < n; ++t) {
    for (; right < std::min(n, t + w); ++right) {
      while (tail != head && values[ring[(tail - 1) & mask]] <= values[right])
        --tail;
      ring[tail++ & mask] = right;
    }
    while (tail != head && ring[head & mask] < t) ++head;
    window_max_[t] = tail == head ? 0.0 : values[ring[head & mask]];
  }
  window_change_points_.clear();
  for (std::size_t t = 1; t < n; ++t)
    if (window_max_[t] != window_max_[t - 1])
      window_change_points_.push_back(t);
  cached_trace_id_ = trace.id();
  cached_horizon_ = horizon;
  change_hint_ = 0;
}

void OracleMaxPredictor::ensure_cache(const LoadTrace& trace, TimePoint now,
                                      Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("OracleMaxPredictor: horizon must be > 0");
  if (now < 0) throw std::invalid_argument("OracleMaxPredictor: now < 0");
  if (cached_trace_id_ != trace.id() || cached_horizon_ != horizon)
    rebuild_cache(trace, horizon);
}

ReqRate OracleMaxPredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds horizon) {
  ensure_cache(trace, now, horizon);
  const auto t = static_cast<std::size_t>(now);
  if (t >= window_max_.size()) return 0.0;
  return window_max_[t];
}

TimePoint OracleMaxPredictor::stable_until(const LoadTrace& trace,
                                           TimePoint now, Seconds horizon) {
  ensure_cache(trace, now, horizon);
  const std::size_t n = window_max_.size();
  const auto t = static_cast<std::size_t>(now);
  if (t >= n) return std::numeric_limits<TimePoint>::max();  // 0 forever
  return next_change_point_hinted(window_change_points_, t, n,
                                  window_max_[n - 1], change_hint_);
}

ReqRate LastValuePredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds /*horizon*/) {
  if (now <= 0) return 0.0;
  return trace.at(now - 1);
}

TimePoint LastValuePredictor::stable_until(const LoadTrace& trace,
                                           TimePoint now,
                                           Seconds /*horizon*/) {
  // predict(t) reads at(t - 1): it changes one second after the trace does.
  if (now <= 0) return now + 1;  // 0 until at(0) enters the history
  const TimePoint change = trace.next_change(now - 1);
  if (change == std::numeric_limits<TimePoint>::max()) return change;
  return change + 1;
}

MovingMaxPredictor::MovingMaxPredictor(Seconds window) : window_(window) {
  if (window_ <= 0.0)
    throw std::invalid_argument("MovingMaxPredictor: window must be > 0");
}

ReqRate MovingMaxPredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds /*horizon*/) {
  const TimePoint begin = now - static_cast<TimePoint>(window_);
  return trace.max_over(begin, now);
}

TimePoint MovingMaxPredictor::stable_until(const LoadTrace& trace,
                                           TimePoint now,
                                           Seconds /*horizon*/) {
  return sliding_max_stable_until(trace, now,
                                  static_cast<TimePoint>(window_), 0, cursor_);
}

EwmaPredictor::EwmaPredictor(double alpha, double headroom)
    : alpha_(alpha), headroom_(headroom) {
  if (alpha_ <= 0.0 || alpha_ > 1.0)
    throw std::invalid_argument("EwmaPredictor: alpha must be in (0,1]");
  if (headroom_ <= 0.0)
    throw std::invalid_argument("EwmaPredictor: headroom must be > 0");
}

ReqRate EwmaPredictor::predict(const LoadTrace& trace, TimePoint now,
                               Seconds /*horizon*/) {
  // Catch up on any history samples not yet folded into the state. The
  // predictor is usually called once per second, making this a single step.
  if (now <= 0) return 0.0;
  const TimePoint start = primed_ ? last_now_ + 1 : std::max<TimePoint>(1, now);
  for (TimePoint t = start; t <= now; ++t) {
    const double sample = trace.at(t - 1);
    if (!primed_) {
      state_ = sample;
      primed_ = true;
    } else {
      state_ = alpha_ * sample + (1.0 - alpha_) * state_;
    }
  }
  last_now_ = now;
  return headroom_ * state_;
}

LinearTrendPredictor::LinearTrendPredictor(Seconds window) : window_(window) {
  if (window_ < 2.0)
    throw std::invalid_argument(
        "LinearTrendPredictor: window must cover >= 2 samples");
}

ReqRate LinearTrendPredictor::predict(const LoadTrace& trace, TimePoint now,
                                      Seconds horizon) {
  if (now <= 1) return now == 1 ? trace.at(0) : 0.0;
  const TimePoint begin =
      std::max<TimePoint>(0, now - static_cast<TimePoint>(window_));
  const auto n = static_cast<double>(now - begin);
  if (n < 2.0) return trace.at(now - 1);

  // Least squares of rate against time over [begin, now).
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (TimePoint t = begin; t < now; ++t) {
    const double x = static_cast<double>(t - begin);
    const double y = trace.at(t);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  const double slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / n;
  // Extrapolate to the end of the horizon; a rising trend predicts higher,
  // a falling one never predicts below the most recent observation.
  const double x_end = n - 1.0 + horizon;
  const double extrapolated = intercept + slope * x_end;
  return std::max({0.0, extrapolated, trace.at(now - 1)});
}

SeasonalPredictor::SeasonalPredictor(Seconds period, double headroom)
    : period_(period), headroom_(headroom) {
  if (period_ <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: period must be > 0");
  if (headroom_ <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: headroom must be > 0");
}

ReqRate SeasonalPredictor::predict(const LoadTrace& trace, TimePoint now,
                                   Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: horizon must be > 0");
  const auto period = static_cast<TimePoint>(period_);
  const auto h = static_cast<TimePoint>(horizon);
  if (now < period) {
    // Not a full period of history yet: trailing max is the safest guess.
    return headroom_ * trace.max_over(now - h, now);
  }
  // Same window one period ago...
  const ReqRate seasonal =
      trace.max_over(now - period, now - period + h);
  // ...scaled by the recent day-over-day growth (ratio of the trailing
  // hour to the same hour yesterday), clamped to [0.5, 3] to keep one
  // outlier from exploding the forecast.
  const ReqRate recent = trace.max_over(now - 3600, now);
  const ReqRate recent_yesterday =
      trace.max_over(now - period - 3600, now - period);
  double growth = 1.0;
  if (recent_yesterday > 0.0 && recent > 0.0)
    growth = std::clamp(recent / recent_yesterday, 0.5, 3.0);
  return headroom_ * growth * seasonal;
}

TimePoint SeasonalPredictor::stable_until(const LoadTrace& trace,
                                          TimePoint now, Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: horizon must be > 0");
  const auto period = static_cast<TimePoint>(period_);
  const auto h = static_cast<TimePoint>(horizon);
  if (now < period) {
    // Warm-up branch is the trailing-window max; the formula itself
    // switches at `period`, so never claim stability past it.
    return std::min(
        sliding_max_stable_until(trace, now, h, 0, seasonal_cursor_), period);
  }
  // The forecast is a deterministic function of three windowed maxima; it
  // is stable while all three are.
  const TimePoint seasonal = sliding_max_stable_until(
      trace, now, period, period - h, seasonal_cursor_);
  const TimePoint recent =
      sliding_max_stable_until(trace, now, 3600, 0, recent_cursor_);
  const TimePoint recent_yesterday = sliding_max_stable_until(
      trace, now, period + 3600, period, yesterday_cursor_);
  return std::min({seasonal, recent, recent_yesterday});
}

ErrorInjectingPredictor::ErrorInjectingPredictor(
    std::unique_ptr<Predictor> inner, double sigma, double bias,
    std::uint64_t seed)
    : inner_(std::move(inner)), sigma_(sigma), bias_(bias), rng_(seed) {
  if (!inner_)
    throw std::invalid_argument("ErrorInjectingPredictor: null inner");
  if (sigma_ < 0.0)
    throw std::invalid_argument("ErrorInjectingPredictor: sigma must be >= 0");
}

ReqRate ErrorInjectingPredictor::predict(const LoadTrace& trace, TimePoint now,
                                         Seconds horizon) {
  const ReqRate base = inner_->predict(trace, now, horizon);
  const double factor = 1.0 + bias_ + (sigma_ > 0.0 ? rng_.normal(0.0, sigma_)
                                                    : 0.0);
  return std::max(0.0, base * factor);
}

std::string ErrorInjectingPredictor::name() const {
  return inner_->name() + "+error";
}

}  // namespace bml
