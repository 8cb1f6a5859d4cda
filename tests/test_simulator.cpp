// Integration tests for sim/simulator with the real schedulers: energy
// accounting, reconfiguration semantics, QoS under the pro-active window.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "trace/synthetic.hpp"

namespace bml {
namespace {

std::shared_ptr<BmlDesign> design() {
  static auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  return d;
}

TEST(Simulator, ConstantLoadStaticFleetEnergyIsExact) {
  const auto d = design();
  Simulator sim(d->candidates());
  StaticMaxScheduler scheduler(d->big(), 0);
  const LoadTrace trace = constant_trace(100.0, 1000.0);
  const SimulationResult r = sim.run(scheduler, trace);

  // One paravance (peak 100 <= 1331), pre-warmed, serving 100 req/s for
  // 1000 s. No transitions at all.
  const double power = 69.9 + (200.5 - 69.9) / 1331.0 * 100.0;
  EXPECT_NEAR(r.compute_energy, power * 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.reconfiguration_energy, 0.0);
  EXPECT_EQ(r.reconfigurations, 0);
  EXPECT_EQ(r.qos.violation_seconds, 0);
  EXPECT_EQ(r.scheduler_name, "upper-bound-global");
  ASSERT_EQ(r.per_day_compute.size(), 1u);
  EXPECT_NEAR(r.per_day_compute[0], r.compute_energy, 1e-9);
}

TEST(Simulator, ProactiveScaleUpAvoidsViolations) {
  const auto d = design();
  Simulator sim(d->candidates());
  BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
  // 5 req/s for 600 s, then 600 req/s for 600 s: the oracle window (378 s)
  // sees the step early enough for the Big machine's 189 s boot.
  const LoadTrace trace = step_trace({{5.0, 600.0}, {600.0, 600.0}});
  const SimulationResult r = sim.run(scheduler, trace);

  EXPECT_EQ(r.qos.violation_seconds, 0);
  EXPECT_DOUBLE_EQ(r.qos.served_fraction(), 1.0);
  EXPECT_EQ(r.reconfigurations, 1);
  // Reconfiguration energy: one paravance boot + one raspberry shutdown.
  EXPECT_NEAR(r.reconfiguration_energy, 21341.0 + 36.2, 1.0);
  EXPECT_GT(r.reconfiguring_seconds, 189);
}

TEST(Simulator, ReactiveScaleUpPaysQosViolations) {
  const auto d = design();
  Simulator sim(d->candidates());
  ReactiveScheduler scheduler(d);
  const LoadTrace trace = step_trace({{5.0, 600.0}, {600.0, 600.0}});
  const SimulationResult r = sim.run(scheduler, trace);

  // No look-ahead: the Big boot (189 s) happens after the step hits.
  EXPECT_GE(r.qos.violation_seconds, 180);
  EXPECT_LE(r.qos.violation_seconds, 200);
  EXPECT_LT(r.qos.served_fraction(), 1.0);
  EXPECT_GT(r.qos.worst_shortfall, 500.0);
}

TEST(Simulator, GracefulOffKeepsCapacityImmediateOffDoesNot) {
  const auto d = design();
  const LoadTrace trace = step_trace({{5.0, 600.0}, {600.0, 600.0}});

  SimulatorOptions graceful;
  graceful.graceful_off = true;
  SimulatorOptions immediate;
  immediate.graceful_off = false;

  BmlScheduler s1(d, std::make_shared<OracleMaxPredictor>());
  const SimulationResult with_grace =
      Simulator(d->candidates(), graceful).run(s1, trace);
  BmlScheduler s2(d, std::make_shared<OracleMaxPredictor>());
  const SimulationResult without =
      Simulator(d->candidates(), immediate).run(s2, trace);

  EXPECT_EQ(with_grace.qos.violation_seconds, 0);
  // Immediate off drops the raspberry while the Big machine still boots:
  // the 5 req/s trickle goes unserved for most of the boot.
  EXPECT_GT(without.qos.violation_seconds, 100);
  // But immediate off burns less energy (no double-running).
  EXPECT_LT(without.total_energy(), with_grace.total_energy());
}

TEST(Simulator, ScaleDownReleasesMachines) {
  const auto d = design();
  Simulator sim(d->candidates());
  BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
  // High plateau then quiet: machines must come back down.
  const LoadTrace trace = step_trace({{600.0, 800.0}, {5.0, 2000.0}});
  const SimulationResult r = sim.run(scheduler, trace);
  EXPECT_EQ(r.qos.violation_seconds, 0);
  EXPECT_GE(r.reconfigurations, 1);
  // Average power over the quiet tail must approach Little levels, far
  // below the Big machine's idle draw: check via total energy budget.
  const double avg_power = r.total_energy() / trace.duration();
  EXPECT_LT(avg_power, 69.9);
}

TEST(Simulator, PerDayTotalsSumToTotal) {
  const auto d = design();
  Simulator sim(d->candidates());
  BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
  WorldCupOptions options;
  options.days = 2;
  options.peak = 2000.0;
  const LoadTrace trace = worldcup_like_trace(options);
  const SimulationResult r = sim.run(scheduler, trace);
  ASSERT_EQ(r.per_day_compute.size(), 2u);
  double sum = 0.0;
  for (double day : r.per_day_total()) sum += day;
  EXPECT_NEAR(sum, r.total_energy(), 1e-6);
}

TEST(Simulator, LockoutBlocksDecisionsDuringReconfiguration) {
  const auto d = design();
  Simulator sim(d->candidates());
  BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
  // Load oscillates every 30 s between two combination classes, far faster
  // than the paravance boot; the lockout must keep reconfigurations far
  // below the number of oscillations.
  std::vector<StepSegment> segments;
  for (int i = 0; i < 40; ++i) {
    segments.push_back({5.0, 30.0});
    segments.push_back({600.0, 30.0});
  }
  const LoadTrace trace = step_trace(segments);
  const SimulationResult r = sim.run(scheduler, trace);
  // The oracle window (378 s) always contains a 600-peak, so after the
  // first scale-up the target is stable: very few reconfigurations.
  EXPECT_LE(r.reconfigurations, 3);
  EXPECT_EQ(r.qos.violation_seconds, 0);
}

TEST(Simulator, EmptyTraceProducesEmptyResult) {
  const auto d = design();
  Simulator sim(d->candidates());
  StaticMaxScheduler scheduler(d->big(), 0);
  const SimulationResult r = sim.run(scheduler, LoadTrace{});
  EXPECT_DOUBLE_EQ(r.total_energy(), 0.0);
  EXPECT_EQ(r.qos.total_seconds, 0);
}

TEST(Simulator, PeakMachinesTracksProvisioning) {
  const auto d = design();
  Simulator sim(d->candidates());
  BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
  const LoadTrace trace = step_trace({{100.0, 500.0}, {2500.0, 500.0}});
  const SimulationResult r = sim.run(scheduler, trace);
  EXPECT_GE(r.peak_machines, 2u);  // at least two Bigs at the plateau
}

}  // namespace
}  // namespace bml
