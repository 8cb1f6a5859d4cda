// Scheduler interface.
//
// A Scheduler returns the machine combination the data center should
// converge to; returning the current target (or std::nullopt) means "no
// change". No decision is made while a reconfiguration is in flight,
// matching the paper's "during the reconfiguration, no other decision can
// be made". Outside reconfigurations the cadence depends on the loop:
//   * the per-second reference consults every active app every second;
//   * the event-driven loop consults at span starts only, and skips an
//     app whose decision_stable_until is still in the future (with fewer
//     than four apps, or after any change to the cluster, every active
//     app is consulted at the next span start).
#pragma once

#include <optional>
#include <string>

#include "core/combination.hpp"
#include "sim/cluster.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Desired combination at time `now`. `trace` carries the workload
  /// (oracle predictors read ahead; reactive ones must only read strictly
  /// before `now`). `snapshot` is the cluster's current aggregate state;
  /// no scheduler in `src/` reads it, and it stays in the signature only
  /// because perfbench/bmlbench.cpp's TimedScheduler overrides this exact
  /// overload.
  [[nodiscard]] virtual std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace,
      const ClusterSnapshot& snapshot) = 0;

  /// The combination the simulator should pre-warm at t = 0. Default: let
  /// the first decide() call boot everything from cold.
  [[nodiscard]] virtual Combination initial_combination(
      const LoadTrace& trace) {
    (void)trace;
    return Combination{};
  }

  /// First time strictly after `now` at which decide() may return a
  /// decision different from the one it returned at `now`, assuming the
  /// cluster state does not change in between (it cannot while no
  /// reconfiguration is in flight). The event-driven simulator batches
  /// idle seconds up to (exclusive) this bound instead of consulting every
  /// second. Schedulers whose decisions depend on per-call internal state
  /// (hysteresis, error-injected predictions) must keep the conservative
  /// default of now + 1, which degrades gracefully to per-second
  /// consultation.
  ///
  /// Calling this must never change what a later decide() returns: the
  /// event-driven loop calls it after the merge of the decide() round, and
  /// only when that merge started no reconfiguration, so the reference
  /// loop (which never calls it) sees the same decisions. BmlScheduler
  /// probes predict() at future times only for pure predictors, and
  /// HysteresisScheduler keeps the default.
  [[nodiscard]] virtual TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) {
    (void)trace;
    return now + 1;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace bml
