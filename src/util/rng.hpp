// Deterministic random number generation.
//
// Every stochastic component in the library (synthetic traces, wattmeter
// noise, prediction-error injection) takes an explicit seed so that tests
// and benchmark runs are reproducible bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace bml {

/// Caches the parts of a Poisson draw that depend only on floor(mean), for
/// callers that draw many times over a slowly varying mean (the per-second
/// arrivals of trace/synthetic.cpp). Two tables, both filled lazily and
/// grown to the largest index seen so far, never past kBound:
///   - the rejection sampler's per-m parameters (lgamma(m + 1), sqrt(m),
///     the tail split d and the constants derived from it), m = floor(mean);
///   - lgamma(n) for the integer arguments the acceptance test evaluates.
/// Indices at or above kBound are computed on every draw, exactly as
/// without a memo, so the memo never holds more than 4 MiB.
/// Draws are identical with or without a memo. Not thread-safe: keep one
/// per generating thread.
class PoissonMemo {
 public:
  static constexpr std::size_t kBound = std::size_t{1} << 16;

  /// How many floor(mean) values had their parameters computed; each is
  /// computed at most once.
  [[nodiscard]] std::size_t parameter_fills() const { return fills_; }

 private:
  friend class Rng;

  struct Params {
    double lfm, sm, d, scx, inv_cx, c2b, cb;
  };

  /// The parameters for m = floor(mean) >= 12, with the same expressions
  /// as libstdc++'s param_type::_M_initialize.
  static Params compute(double m);
  /// compute(m), cached; m < kBound.
  const Params& params(double m);
  /// std::lgamma(n), cached below kBound; n is a positive integer.
  double lgamma(double n);

  std::vector<Params> params_;  // lfm is NaN where not yet computed
  std::vector<double> lgamma_;  // NaN where not yet computed
  std::size_t fills_ = 0;
};

/// Thin wrapper over std::mt19937_64 with convenience draws.
/// Copyable; copies continue independent, identical streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal draw.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Poisson draw; 0 without touching the engine when mean <= 0.
  ///
  /// The algorithm is libstdc++'s std::poisson_distribution (GCC 12,
  /// bits/random.tcc), owned here so that draws do not depend on the
  /// standard library: the product of uniforms against exp(-mean) below
  /// mean 12, Devroye's rejection method (1986, Ch. X, 3.3-3.4) above.
  /// With libstdc++ every draw returns the same count and consumes the
  /// same engine output as a std::poisson_distribution constructed for
  /// that draw. Uniforms still come from std::generate_canonical and
  /// normals from a std::normal_distribution that lives for one draw,
  /// so those two remain <random>'s.
  std::int64_t poisson(double mean) { return poisson_draw(mean, nullptr); }

  /// The same draw, with the floor(mean)-only work cached in `memo`.
  std::int64_t poisson(double mean, PoissonMemo& memo) {
    return poisson_draw(mean, &memo);
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child stream; used to give each sub-generator
  /// (e.g. each day of a synthetic trace) its own stream.
  Rng split() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::int64_t poisson_draw(double mean, PoissonMemo* memo);

  std::mt19937_64 engine_;
};

}  // namespace bml
