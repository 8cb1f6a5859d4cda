// Event-driven fast path vs per-second reference: the two execution
// strategies must agree on every reported quantity — energy (total and per
// day), QoS statistics, reconfiguration counts and durations, peak machine
// counts, and the downsampled power series — within floating-point
// summation order (1e-9 relative) on synthetic and WC98-style traces,
// including graceful-off and boot-fault scenarios.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/cost_aware.hpp"
#include "trace/synthetic.hpp"
#include "trace/wc98.hpp"

namespace bml {
namespace {

std::shared_ptr<BmlDesign> design() {
  static auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  return d;
}

void expect_close(double fast, double reference, const char* what) {
  const double tolerance = 1e-9 * std::max(1.0, std::abs(reference));
  EXPECT_NEAR(fast, reference, tolerance) << what;
}

/// Runs the same scenario through both paths (fresh scheduler instances —
/// schedulers are stateful) and asserts the results are equivalent.
void expect_equivalent(
    const std::function<std::unique_ptr<Scheduler>()>& make_scheduler,
    const LoadTrace& trace, SimulatorOptions options = {}) {
  options.event_driven = true;
  const Simulator fast_sim(design()->candidates(), options);
  options.event_driven = false;
  const Simulator reference_sim(design()->candidates(), options);

  auto fast_scheduler = make_scheduler();
  auto reference_scheduler = make_scheduler();
  const SimulationResult fast = fast_sim.run(*fast_scheduler, trace);
  const SimulationResult reference =
      reference_sim.run(*reference_scheduler, trace);

  expect_close(fast.compute_energy, reference.compute_energy,
               "compute_energy");
  expect_close(fast.reconfiguration_energy, reference.reconfiguration_energy,
               "reconfiguration_energy");
  EXPECT_EQ(fast.reconfigurations, reference.reconfigurations);
  EXPECT_EQ(fast.reconfiguring_seconds, reference.reconfiguring_seconds);
  EXPECT_EQ(fast.peak_machines, reference.peak_machines);
  EXPECT_EQ(fast.machine_failures, reference.machine_failures);
  EXPECT_EQ(fast.unavailable_seconds, reference.unavailable_seconds);
  EXPECT_EQ(fast.availability, reference.availability);
  expect_close(fast.lost_capacity, reference.lost_capacity, "lost_capacity");
  EXPECT_EQ(fast.group_strikes, reference.group_strikes);
  EXPECT_EQ(fast.spare_seconds, reference.spare_seconds);
  expect_close(fast.spare_energy, reference.spare_energy, "spare_energy");
  EXPECT_EQ(fast.overload_seconds, reference.overload_seconds);
  expect_close(fast.penalty_lost_capacity, reference.penalty_lost_capacity,
               "penalty_lost_capacity");
  EXPECT_EQ(fast.preemptions, reference.preemptions);

  EXPECT_EQ(fast.qos.total_seconds, reference.qos.total_seconds);
  EXPECT_EQ(fast.qos.violation_seconds, reference.qos.violation_seconds);
  expect_close(fast.qos.unserved_requests, reference.qos.unserved_requests,
               "unserved_requests");
  expect_close(fast.qos.offered_requests, reference.qos.offered_requests,
               "offered_requests");
  expect_close(fast.qos.worst_shortfall, reference.qos.worst_shortfall,
               "worst_shortfall");

  ASSERT_EQ(fast.per_day_compute.size(), reference.per_day_compute.size());
  for (std::size_t d = 0; d < reference.per_day_compute.size(); ++d) {
    expect_close(fast.per_day_compute[d], reference.per_day_compute[d],
                 "per_day_compute");
    expect_close(fast.per_day_reconfiguration[d],
                 reference.per_day_reconfiguration[d],
                 "per_day_reconfiguration");
  }
}

std::unique_ptr<Scheduler> oracle_bml() {
  return std::make_unique<BmlScheduler>(design(),
                                        std::make_shared<OracleMaxPredictor>());
}

TEST(SimulatorFastPath, ConstantTraceBmlOracle) {
  expect_equivalent(oracle_bml, constant_trace(800.0, 7200.0));
}

TEST(SimulatorFastPath, StepTraceGracefulOff) {
  const LoadTrace trace = step_trace({{200.0, 1800.0},
                                      {2500.0, 1800.0},
                                      {60.0, 1800.0},
                                      {1400.0, 1800.0}});
  SimulatorOptions options;
  options.graceful_off = true;
  expect_equivalent(oracle_bml, trace, options);
}

TEST(SimulatorFastPath, StepTraceImmediateOff) {
  const LoadTrace trace = step_trace({{200.0, 1800.0},
                                      {2500.0, 1800.0},
                                      {60.0, 1800.0},
                                      {1400.0, 1800.0}});
  SimulatorOptions options;
  options.graceful_off = false;
  expect_equivalent(oracle_bml, trace, options);
}

TEST(SimulatorFastPath, RapidStepsInterleaveWithTransitions) {
  // Segments much shorter than the boot durations (~189 s for the real
  // catalog), so trace changes land in the middle of reconfigurations and
  // the batcher has to break spans on both event kinds.
  std::vector<StepSegment> segments;
  for (int i = 0; i < 120; ++i)
    segments.push_back({100.0 + 450.0 * (i % 7), 30.0});
  expect_equivalent(oracle_bml, step_trace(segments));
}

TEST(SimulatorFastPath, NoisyDiurnalBmlOracle) {
  DiurnalOptions options;
  options.peak = 2000.0;
  options.noise = 0.05;
  options.seed = 7;
  expect_equivalent(oracle_bml, diurnal_trace(options, 2));
}

TEST(SimulatorFastPath, WorldCupStyleTrace) {
  WorldCupOptions options;
  options.days = 3;
  options.peak = 3000.0;
  expect_equivalent(oracle_bml, worldcup_like_trace(options));
}

/// Two days of per-second-varying WC98-style replay (Poisson arrivals, a
/// tournament day included): the regime where decision-granular batching
/// must stay exact while the trace changes every second.
LoadTrace noisy_worldcup_trace() {
  WorldCupOptions options;
  options.days = 2;
  options.peak = 3000.0;
  options.tournament_start_day = 1;
  options.tournament_end_day = 2;
  return worldcup_like_trace(options);
}

TEST(SimulatorFastPath, NoisyWorldCupReplay) {
  expect_equivalent(oracle_bml, noisy_worldcup_trace());
}

TEST(SimulatorFastPath, NoisyWorldCupImmediateOff) {
  SimulatorOptions options;
  options.graceful_off = false;
  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, NoisyWorldCupWithBootFaults) {
  SimulatorOptions options;
  options.faults.boot_time_jitter = 0.3;
  options.faults.boot_failure_prob = 0.2;
  options.faults.seed = 17;
  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, NoisyWorldCupReactiveScheduler) {
  expect_equivalent(
      [] { return std::make_unique<ReactiveScheduler>(design()); },
      noisy_worldcup_trace());
}

TEST(SimulatorFastPath, NoisyWorldCupMovingMaxPredictor) {
  expect_equivalent(
      [] {
        return std::make_unique<BmlScheduler>(
            design(), std::make_shared<MovingMaxPredictor>(378.0));
      },
      noisy_worldcup_trace());
}

TEST(SimulatorFastPath, NoisyDiurnalSeasonalPredictor) {
  DiurnalOptions diurnal;
  diurnal.peak = 2000.0;
  diurnal.noise = 0.15;
  diurnal.seed = 23;
  expect_equivalent(
      [] {
        return std::make_unique<BmlScheduler>(
            design(), std::make_shared<SeasonalPredictor>());
      },
      diurnal_trace(diurnal, 2));
}

TEST(SimulatorFastPath, NoisyDiurnalLastValuePredictor) {
  DiurnalOptions diurnal;
  diurnal.peak = 1800.0;
  diurnal.noise = 0.1;
  diurnal.seed = 29;
  expect_equivalent(
      [] {
        return std::make_unique<BmlScheduler>(
            design(), std::make_shared<LastValuePredictor>());
      },
      diurnal_trace(diurnal, 1));
}

TEST(SimulatorFastPath, MultiAppNoisyTraces) {
  // Three per-second-noisy workloads against one shared cluster: the span
  // walk must intersect per-app runs exactly.
  DiurnalOptions web;
  web.peak = 1200.0;
  web.noise = 0.2;
  web.seed = 3;
  DiurnalOptions api;
  api.peak = 900.0;
  api.noise = 0.25;
  api.peak_hour = 6.0;
  api.seed = 4;
  const LoadTrace traces[] = {diurnal_trace(web, 1), diurnal_trace(api, 1),
                              noisy_worldcup_trace()};
  const std::string names[] = {"web", "api", "worldcup"};

  const auto run_with = [&](bool event_driven) {
    SimulatorOptions options;
    options.event_driven = event_driven;
    const Simulator sim(design()->candidates(), options);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Simulator::WorkloadView> views;
    for (std::size_t i = 0; i < 3; ++i) {
      schedulers.push_back(std::make_unique<BmlScheduler>(
          design(), std::make_shared<OracleMaxPredictor>()));
      views.push_back(Simulator::WorkloadView{&names[i], &traces[i],
                                              schedulers[i].get(),
                                              QosClass::kTolerant, 1.0});
    }
    return sim.run(views);
  };

  const MultiSimulationResult fast = run_with(true);
  const MultiSimulationResult reference = run_with(false);
  expect_close(fast.total.compute_energy, reference.total.compute_energy,
               "compute_energy");
  expect_close(fast.total.reconfiguration_energy,
               reference.total.reconfiguration_energy,
               "reconfiguration_energy");
  EXPECT_EQ(fast.total.reconfigurations, reference.total.reconfigurations);
  EXPECT_EQ(fast.total.qos.violation_seconds,
            reference.total.qos.violation_seconds);
  EXPECT_EQ(fast.total.qos.total_seconds, reference.total.qos.total_seconds);
  expect_close(fast.total.qos.unserved_requests,
               reference.total.qos.unserved_requests, "unserved_requests");
  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  for (std::size_t i = 0; i < reference.apps.size(); ++i) {
    EXPECT_EQ(fast.apps[i].qos_stats.violation_seconds,
              reference.apps[i].qos_stats.violation_seconds)
        << names[i];
    expect_close(fast.apps[i].compute_energy,
                 reference.apps[i].compute_energy, names[i].c_str());
    expect_close(fast.apps[i].reconfiguration_energy,
                 reference.apps[i].reconfiguration_energy, names[i].c_str());
  }
}

// Runtime crash/repair faults are first-class fast-path events: the next
// scheduled failure or repair bounds a span exactly like a machine
// transition, so the equivalence contract (bit-exact integer counters,
// 1e-9 on the integrals) must hold with an active runtime FaultModel too.
SimulatorOptions runtime_fault_options(std::uint64_t seed) {
  SimulatorOptions options;
  options.faults.mtbf = 2400.0;
  options.faults.mttr = 700.0;
  options.faults.seed = seed;
  return options;
}

void expect_fault_accounting_equivalent(const SimulationResult& fast,
                                        const SimulationResult& reference) {
  EXPECT_EQ(fast.machine_failures, reference.machine_failures);
  EXPECT_EQ(fast.unavailable_seconds, reference.unavailable_seconds);
  EXPECT_EQ(fast.availability, reference.availability);  // integer-derived
  expect_close(fast.lost_capacity, reference.lost_capacity, "lost_capacity");
}

TEST(SimulatorFastPath, RuntimeFaultsSteadyTrace) {
  const LoadTrace trace = constant_trace(2100.0, 86'400.0);
  const SimulatorOptions options = runtime_fault_options(5);

  SimulatorOptions fast_options = options;
  fast_options.event_driven = true;
  SimulatorOptions reference_options = options;
  reference_options.event_driven = false;
  const Simulator fast_sim(design()->candidates(), fast_options);
  const Simulator reference_sim(design()->candidates(), reference_options);
  auto fast_scheduler = oracle_bml();
  auto reference_scheduler = oracle_bml();
  const SimulationResult fast = fast_sim.run(*fast_scheduler, trace);
  const SimulationResult reference =
      reference_sim.run(*reference_scheduler, trace);

  ASSERT_GT(reference.machine_failures, 0);
  expect_fault_accounting_equivalent(fast, reference);
  expect_equivalent(oracle_bml, trace, options);
}

TEST(SimulatorFastPath, RuntimeFaultsNoisyWorldCup) {
  expect_equivalent(oracle_bml, noisy_worldcup_trace(),
                    runtime_fault_options(13));
}

TEST(SimulatorFastPath, RuntimeFaultsWithBootFaultsAndImmediateOff) {
  SimulatorOptions options = runtime_fault_options(17);
  options.faults.boot_time_jitter = 0.3;
  options.faults.boot_failure_prob = 0.2;
  options.graceful_off = false;
  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, RuntimeFaultsReactiveScheduler) {
  const LoadTrace trace = step_trace(
      {{150.0, 7200.0}, {2400.0, 14400.0}, {300.0, 7200.0}});
  expect_equivalent(
      [] { return std::make_unique<ReactiveScheduler>(design()); }, trace,
      runtime_fault_options(23));
}

TEST(SimulatorFastPath, RuntimeFaultsMultiAppDomains) {
  // Three noisy apps, two sharing a fault domain: per-app counters and
  // integrals must match the per-second reference exactly / within 1e-9.
  DiurnalOptions web;
  web.peak = 1200.0;
  web.noise = 0.2;
  web.seed = 3;
  DiurnalOptions api;
  api.peak = 900.0;
  api.noise = 0.25;
  api.peak_hour = 6.0;
  api.seed = 4;
  const LoadTrace traces[] = {diurnal_trace(web, 1), diurnal_trace(api, 1),
                              constant_trace(500.0, 86'400.0)};
  const std::string names[] = {"web", "api", "batch"};
  const std::string domains[] = {"pool-a", "pool-a", ""};

  const auto run_with = [&](bool event_driven) {
    SimulatorOptions options = runtime_fault_options(29);
    options.event_driven = event_driven;
    const Simulator sim(design()->candidates(), options);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Simulator::WorkloadView> views;
    for (std::size_t i = 0; i < 3; ++i) {
      schedulers.push_back(std::make_unique<BmlScheduler>(
          design(), std::make_shared<OracleMaxPredictor>()));
      views.push_back(Simulator::WorkloadView{
          &names[i], &traces[i], schedulers[i].get(), QosClass::kTolerant,
          1.0, nullptr, &domains[i]});
    }
    return sim.run(views);
  };

  const MultiSimulationResult fast = run_with(true);
  const MultiSimulationResult reference = run_with(false);
  ASSERT_GT(reference.total.machine_failures, 0);
  expect_fault_accounting_equivalent(fast.total, reference.total);
  expect_close(fast.total.compute_energy, reference.total.compute_energy,
               "compute_energy");
  expect_close(fast.total.reconfiguration_energy,
               reference.total.reconfiguration_energy,
               "reconfiguration_energy");
  EXPECT_EQ(fast.total.reconfigurations, reference.total.reconfigurations);
  EXPECT_EQ(fast.total.qos.violation_seconds,
            reference.total.qos.violation_seconds);
  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  for (std::size_t i = 0; i < reference.apps.size(); ++i) {
    EXPECT_EQ(fast.apps[i].failures, reference.apps[i].failures) << names[i];
    EXPECT_EQ(fast.apps[i].unavailable_seconds,
              reference.apps[i].unavailable_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].availability, reference.apps[i].availability)
        << names[i];
    expect_close(fast.apps[i].lost_capacity, reference.apps[i].lost_capacity,
                 names[i].c_str());
    expect_close(fast.apps[i].compute_energy, reference.apps[i].compute_energy,
                 names[i].c_str());
    EXPECT_EQ(fast.apps[i].qos_stats.violation_seconds,
              reference.apps[i].qos_stats.violation_seconds)
        << names[i];
  }
  // Apps sharing a domain report the same domain slice; the private
  // domain's numbers are its own.
  EXPECT_EQ(reference.apps[0].failures, reference.apps[1].failures);
  EXPECT_EQ(reference.apps[0].unavailable_seconds,
            reference.apps[1].unavailable_seconds);
}

TEST(SimulatorFastPath, CorrelatedGroupStrikes) {
  // Rack-level strikes fell whole stripes of the fleet in one event; the
  // fast path must stay exact while group events bound its spans.
  SimulatorOptions options;
  options.faults.groups = 3;
  options.faults.group_mtbf = 4.0 * 3600.0;
  options.faults.group_mttr = 1200.0;
  options.faults.seed = 31;

  SimulatorOptions reference_options = options;
  reference_options.event_driven = false;
  const Simulator reference_sim(design()->candidates(), reference_options);
  auto reference_scheduler = oracle_bml();
  const SimulationResult reference =
      reference_sim.run(*reference_scheduler, noisy_worldcup_trace());
  ASSERT_GT(reference.group_strikes, 0);
  ASSERT_GT(reference.machine_failures, reference.group_strikes);

  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, CrewLimitedRepairs) {
  // With one repair crew, MTTR becomes queueing-dependent: repairs start
  // only when the crew frees up. The queue is part of the timeline, so
  // both strategies must drain it identically.
  SimulatorOptions options = runtime_fault_options(37);
  options.faults.mtbf = 1800.0;
  options.faults.mttr = 900.0;
  options.faults.crews = 1;
  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, GroupStrikesWithCrewsAndMachineFaults) {
  SimulatorOptions options = runtime_fault_options(41);
  options.faults.groups = 2;
  options.faults.group_mtbf = 6.0 * 3600.0;
  options.faults.group_mttr = 1800.0;
  options.faults.crews = 2;
  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, SloFeedbackProvisionsSpares) {
  // Two apps sharing a struck fault domain, one with an availability SLO:
  // the feedback loop must provision/release spares at the same instants
  // on both strategies, and the spare accounting must agree exactly.
  DiurnalOptions web;
  web.peak = 1400.0;
  web.noise = 0.15;
  web.seed = 9;
  const LoadTrace traces[] = {diurnal_trace(web, 1),
                              constant_trace(600.0, 86'400.0)};
  const std::string names[] = {"web", "batch"};
  const std::string domain = "rack-pool";

  const auto run_with = [&](bool event_driven) {
    SimulatorOptions options;
    options.event_driven = event_driven;
    options.faults.groups = 2;
    options.faults.group_mtbf = 3.0 * 3600.0;
    options.faults.group_mttr = 1500.0;
    options.faults.crews = 1;
    options.faults.seed = 43;
    options.slo_window = 7200.0;
    const Simulator sim(design()->candidates(), options);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Simulator::WorkloadView> views;
    for (std::size_t i = 0; i < 2; ++i) {
      schedulers.push_back(std::make_unique<BmlScheduler>(
          design(), std::make_shared<OracleMaxPredictor>()));
      Simulator::WorkloadView view{&names[i], &traces[i], schedulers[i].get(),
                                   QosClass::kTolerant, 1.0, nullptr, &domain};
      if (i == 0) {
        view.slo_availability = 0.999;
        view.slo_spare = 0.5;
      }
      views.push_back(view);
    }
    return sim.run(views);
  };

  const MultiSimulationResult fast = run_with(true);
  const MultiSimulationResult reference = run_with(false);
  ASSERT_GT(reference.total.group_strikes, 0);
  ASSERT_GT(reference.total.spare_seconds, 0);
  ASSERT_GT(reference.total.spare_energy, 0.0);
  EXPECT_EQ(fast.total.group_strikes, reference.total.group_strikes);
  EXPECT_EQ(fast.total.spare_seconds, reference.total.spare_seconds);
  expect_close(fast.total.spare_energy, reference.total.spare_energy,
               "spare_energy");
  expect_fault_accounting_equivalent(fast.total, reference.total);
  expect_close(fast.total.compute_energy, reference.total.compute_energy,
               "compute_energy");
  expect_close(fast.total.reconfiguration_energy,
               reference.total.reconfiguration_energy,
               "reconfiguration_energy");
  EXPECT_EQ(fast.total.reconfigurations, reference.total.reconfigurations);
  EXPECT_EQ(fast.total.qos.violation_seconds,
            reference.total.qos.violation_seconds);
  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  for (std::size_t i = 0; i < reference.apps.size(); ++i) {
    EXPECT_EQ(fast.apps[i].spare_seconds, reference.apps[i].spare_seconds)
        << names[i];
    expect_close(fast.apps[i].spare_energy, reference.apps[i].spare_energy,
                 names[i].c_str());
    expect_close(fast.apps[i].compute_energy, reference.apps[i].compute_energy,
                 names[i].c_str());
    EXPECT_EQ(fast.apps[i].failures, reference.apps[i].failures) << names[i];
  }
  // Only the SLO app accrues spare time; its slice carries the whole
  // cluster total.
  EXPECT_EQ(reference.apps[1].spare_seconds, 0);
  EXPECT_EQ(reference.apps[0].spare_seconds, reference.total.spare_seconds);
}

TEST(SimulatorFastPath, DegradedServingBoundsOverloadCrossings) {
  // A step trace against the reactive scheduler's boot lag drives offered
  // load above provisioned capacity with no fault anywhere: overload
  // entry/exit crossings alone must bound the fast-path spans, and the
  // degraded-mode accounting must match the reference exactly.
  SimulatorOptions options;
  options.degrade.overload_factor = 0.4;
  options.degrade.penalty = 0.3;
  const LoadTrace trace = step_trace({{90.0, 1500.0},
                                      {1700.0, 1500.0},
                                      {400.0, 1500.0},
                                      {2300.0, 1200.0},
                                      {150.0, 1800.0}});

  SimulatorOptions reference_options = options;
  reference_options.event_driven = false;
  const Simulator reference_sim(design()->candidates(), reference_options);
  ReactiveScheduler reference_scheduler(design());
  const SimulationResult reference =
      reference_sim.run(reference_scheduler, trace);
  ASSERT_GT(reference.overload_seconds, 0);
  ASSERT_GT(reference.penalty_lost_capacity, 0.0);

  expect_equivalent(
      [] { return std::make_unique<ReactiveScheduler>(design()); }, trace,
      options);
}

TEST(SimulatorFastPath, DegradedServingUnderRuntimeFaults) {
  // Strikes shrink the fleet under a noisy trace while the degrade model
  // absorbs the spill-over: fault spans and overload crossings bound the
  // same fast-path spans.
  SimulatorOptions options = runtime_fault_options(53);
  options.degrade.overload_factor = 0.5;
  options.degrade.penalty = 0.6;
  expect_equivalent(oracle_bml, noisy_worldcup_trace(), options);
}

TEST(SimulatorFastPath, FleetModeGracefulDegradationEverythingOn) {
  // The acceptance case of the graceful-degradation layer: four apps (the
  // fused k-way merge regime) with machine faults, rack strikes, a repair
  // crew, an availability SLO, the degrade model, and three priority
  // classes all active at once under the partitioned coordinator. Both
  // strategies must agree on every counter exactly and every integral
  // within 1e-9.
  DiurnalOptions web;
  web.peak = 1100.0;
  web.noise = 0.2;
  web.seed = 11;
  DiurnalOptions api;
  api.peak = 800.0;
  api.noise = 0.25;
  api.peak_hour = 7.0;
  api.seed = 12;
  const LoadTrace traces[] = {diurnal_trace(web, 1), diurnal_trace(api, 1),
                              constant_trace(450.0, 86'400.0),
                              constant_trace(350.0, 86'400.0)};
  const std::string names[] = {"web", "api", "batch", "scavenger"};
  const std::string domains[] = {"pool-a", "pool-a", "pool-a", "pool-b"};
  const int priorities[] = {2, 1, 0, 0};

  const auto run_with = [&](bool event_driven) {
    SimulatorOptions options;
    options.event_driven = event_driven;
    options.coordinator = CoordinatorMode::kPartitioned;
    options.coordinator_budget = design()->max_rate();
    options.faults.mtbf = 14'400.0;
    options.faults.mttr = 1200.0;
    options.faults.groups = 2;
    options.faults.group_mtbf = 4.0 * 3600.0;
    options.faults.group_mttr = 1500.0;
    options.faults.crews = 1;
    options.faults.seed = 47;
    options.slo_window = 7200.0;
    options.degrade.overload_factor = 0.5;
    options.degrade.penalty = 0.4;
    const Simulator sim(design()->candidates(), options);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Simulator::WorkloadView> views;
    for (std::size_t i = 0; i < 4; ++i) {
      schedulers.push_back(std::make_unique<BmlScheduler>(
          design(), std::make_shared<OracleMaxPredictor>()));
      Simulator::WorkloadView view{&names[i], &traces[i], schedulers[i].get(),
                                   QosClass::kTolerant, 1.0, nullptr,
                                   &domains[i]};
      if (i == 0) {
        view.slo_availability = 0.999;
        view.slo_spare = 0.5;
      }
      view.priority = priorities[i];
      views.push_back(view);
    }
    return sim.run(views);
  };

  const MultiSimulationResult fast = run_with(true);
  const MultiSimulationResult reference = run_with(false);
  // Every channel actually engaged.
  ASSERT_GT(reference.total.machine_failures, 0);
  ASSERT_GT(reference.total.group_strikes, 0);
  ASSERT_GT(reference.total.spare_seconds, 0);
  ASSERT_GT(reference.total.overload_seconds, 0);
  ASSERT_GT(reference.total.preemptions, 0);

  expect_fault_accounting_equivalent(fast.total, reference.total);
  EXPECT_EQ(fast.total.group_strikes, reference.total.group_strikes);
  EXPECT_EQ(fast.total.spare_seconds, reference.total.spare_seconds);
  EXPECT_EQ(fast.total.overload_seconds, reference.total.overload_seconds);
  EXPECT_EQ(fast.total.preemptions, reference.total.preemptions);
  EXPECT_EQ(fast.total.reconfigurations, reference.total.reconfigurations);
  EXPECT_EQ(fast.total.qos.violation_seconds,
            reference.total.qos.violation_seconds);
  expect_close(fast.total.compute_energy, reference.total.compute_energy,
               "compute_energy");
  expect_close(fast.total.reconfiguration_energy,
               reference.total.reconfiguration_energy,
               "reconfiguration_energy");
  expect_close(fast.total.penalty_lost_capacity,
               reference.total.penalty_lost_capacity,
               "penalty_lost_capacity");
  expect_close(fast.total.spare_energy, reference.total.spare_energy,
               "spare_energy");
  expect_close(fast.total.lost_capacity, reference.total.lost_capacity,
               "lost_capacity");

  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  for (std::size_t i = 0; i < reference.apps.size(); ++i) {
    EXPECT_EQ(fast.apps[i].overload_seconds,
              reference.apps[i].overload_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].domain_overload_seconds,
              reference.apps[i].domain_overload_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].preempted_seconds,
              reference.apps[i].preempted_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].spare_seconds, reference.apps[i].spare_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].qos_stats.violation_seconds,
              reference.apps[i].qos_stats.violation_seconds)
        << names[i];
    expect_close(fast.apps[i].penalty_lost_capacity,
                 reference.apps[i].penalty_lost_capacity, names[i].c_str());
    expect_close(fast.apps[i].domain_penalty_lost,
                 reference.apps[i].domain_penalty_lost, names[i].c_str());
    expect_close(fast.apps[i].compute_energy,
                 reference.apps[i].compute_energy, names[i].c_str());
  }
  // Priority semantics: the top class is never preempted, lower classes
  // bear the backfill; apps sharing pool-a report one domain slice.
  EXPECT_EQ(reference.apps[0].preempted_seconds, 0);
  EXPECT_GT(reference.apps[2].preempted_seconds +
                reference.apps[3].preempted_seconds,
            0);
  EXPECT_EQ(reference.apps[0].domain_overload_seconds,
            reference.apps[1].domain_overload_seconds);
  EXPECT_EQ(reference.apps[0].domain_overload_seconds,
            reference.apps[2].domain_overload_seconds);
}

TEST(SimulatorFastPath, FleetModeTenantChurnEverythingOn) {
  // The acceptance case of the tenant-lifecycle layer: six apps in the
  // fused k-way merge regime where two tenants arrive mid-run, one
  // departs early, and one both arrives and departs — on top of machine
  // faults, rack strikes, a repair crew, an availability SLO, the degrade
  // model, and priority classes, all under the partitioned coordinator.
  // Both strategies must agree on every counter exactly and every
  // integral within 1e-9; churn-free tenants keep their full-horizon
  // active window.
  DiurnalOptions web;
  web.peak = 1100.0;
  web.noise = 0.2;
  web.seed = 11;
  DiurnalOptions api;
  api.peak = 800.0;
  api.noise = 0.25;
  api.peak_hour = 7.0;
  api.seed = 12;
  const LoadTrace traces[] = {diurnal_trace(web, 1), diurnal_trace(api, 1),
                              constant_trace(450.0, 86'400.0),
                              constant_trace(350.0, 86'400.0),
                              constant_trace(500.0, 86'400.0),
                              constant_trace(280.0, 86'400.0)};
  const std::string names[] = {"web", "api",   "batch",
                               "scavenger", "burst", "visitor"};
  const std::string domains[] = {"pool-a", "pool-a", "pool-a",
                                 "pool-b", "pool-b", "pool-a"};
  const int priorities[] = {2, 1, 0, 0, 1, 0};
  const TimePoint arrives[] = {0, 0, 0, 0, 21'600, 28'800};
  const TimePoint departs[] = {-1, -1, 64'800, -1, -1, 57'600};

  const auto run_with = [&](bool event_driven) {
    SimulatorOptions options;
    options.event_driven = event_driven;
    options.coordinator = CoordinatorMode::kPartitioned;
    options.coordinator_budget = design()->max_rate();
    options.faults.mtbf = 14'400.0;
    options.faults.mttr = 1200.0;
    options.faults.groups = 2;
    options.faults.group_mtbf = 4.0 * 3600.0;
    options.faults.group_mttr = 1500.0;
    options.faults.crews = 1;
    options.faults.seed = 47;
    options.slo_window = 7200.0;
    options.degrade.overload_factor = 0.5;
    options.degrade.penalty = 0.4;
    const Simulator sim(design()->candidates(), options);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Simulator::WorkloadView> views;
    for (std::size_t i = 0; i < 6; ++i) {
      schedulers.push_back(std::make_unique<BmlScheduler>(
          design(), std::make_shared<OracleMaxPredictor>()));
      Simulator::WorkloadView view{&names[i], &traces[i], schedulers[i].get(),
                                   QosClass::kTolerant, 1.0, nullptr,
                                   &domains[i]};
      if (i == 0) {
        view.slo_availability = 0.999;
        view.slo_spare = 0.5;
      }
      view.priority = priorities[i];
      view.arrive = arrives[i];
      view.depart = departs[i];
      views.push_back(view);
    }
    return sim.run(views);
  };

  const MultiSimulationResult fast = run_with(true);
  const MultiSimulationResult reference = run_with(false);
  // Every channel actually engaged, including the lifecycle one.
  ASSERT_GT(reference.total.machine_failures, 0);
  ASSERT_GT(reference.total.group_strikes, 0);
  ASSERT_GT(reference.total.spare_seconds, 0);
  ASSERT_GT(reference.total.overload_seconds, 0);
  ASSERT_EQ(reference.total.arrivals, 2);
  ASSERT_EQ(reference.total.departures, 2);

  expect_fault_accounting_equivalent(fast.total, reference.total);
  EXPECT_EQ(fast.total.group_strikes, reference.total.group_strikes);
  EXPECT_EQ(fast.total.spare_seconds, reference.total.spare_seconds);
  EXPECT_EQ(fast.total.overload_seconds, reference.total.overload_seconds);
  EXPECT_EQ(fast.total.preemptions, reference.total.preemptions);
  EXPECT_EQ(fast.total.arrivals, reference.total.arrivals);
  EXPECT_EQ(fast.total.departures, reference.total.departures);
  EXPECT_EQ(fast.total.reconfigurations, reference.total.reconfigurations);
  EXPECT_EQ(fast.total.qos.total_seconds, reference.total.qos.total_seconds);
  EXPECT_EQ(fast.total.qos.violation_seconds,
            reference.total.qos.violation_seconds);
  expect_close(fast.total.compute_energy, reference.total.compute_energy,
               "compute_energy");
  expect_close(fast.total.reconfiguration_energy,
               reference.total.reconfiguration_energy,
               "reconfiguration_energy");
  expect_close(fast.total.penalty_lost_capacity,
               reference.total.penalty_lost_capacity,
               "penalty_lost_capacity");
  expect_close(fast.total.spare_energy, reference.total.spare_energy,
               "spare_energy");
  expect_close(fast.total.lost_capacity, reference.total.lost_capacity,
               "lost_capacity");

  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  for (std::size_t i = 0; i < reference.apps.size(); ++i) {
    EXPECT_EQ(fast.apps[i].active_seconds, reference.apps[i].active_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].overload_seconds,
              reference.apps[i].overload_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].domain_overload_seconds,
              reference.apps[i].domain_overload_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].preempted_seconds,
              reference.apps[i].preempted_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].spare_seconds, reference.apps[i].spare_seconds)
        << names[i];
    EXPECT_EQ(fast.apps[i].qos_stats.violation_seconds,
              reference.apps[i].qos_stats.violation_seconds)
        << names[i];
    expect_close(fast.apps[i].penalty_lost_capacity,
                 reference.apps[i].penalty_lost_capacity, names[i].c_str());
    expect_close(fast.apps[i].compute_energy,
                 reference.apps[i].compute_energy, names[i].c_str());
  }
  // Lifecycle attribution: always-on tenants cover the whole horizon,
  // bounded tenants exactly their window.
  EXPECT_EQ(reference.apps[0].active_seconds, 86'400);
  EXPECT_EQ(reference.apps[2].active_seconds, 64'800);
  EXPECT_EQ(reference.apps[4].active_seconds, 86'400 - 21'600);
  EXPECT_EQ(reference.apps[5].active_seconds, 57'600 - 28'800);
}

TEST(SimulatorFastPath, BootFaultScenario) {
  const LoadTrace trace = step_trace(
      {{100.0, 1200.0}, {2600.0, 1200.0}, {80.0, 1200.0}, {1900.0, 1200.0}});
  SimulatorOptions options;
  options.faults.boot_time_jitter = 0.3;   // fractional boot durations
  options.faults.boot_failure_prob = 0.2;  // retried boots
  options.faults.seed = 11;
  expect_equivalent(oracle_bml, trace, options);
}

TEST(SimulatorFastPath, StaticAndPerDayBaselines) {
  DiurnalOptions diurnal;
  diurnal.peak = 2400.0;
  diurnal.noise = 0.0;
  const LoadTrace trace = diurnal_trace(diurnal, 2);
  expect_equivalent(
      [] {
        return std::make_unique<StaticMaxScheduler>(design()->big(), 0);
      },
      trace);
  expect_equivalent(
      [] { return std::make_unique<PerDayScheduler>(design()->big(), 0); },
      trace);
}

TEST(SimulatorFastPath, ReactiveSchedulerOnStepTrace) {
  const LoadTrace trace =
      step_trace({{90.0, 1500.0}, {1700.0, 1500.0}, {400.0, 1500.0}});
  expect_equivalent(
      [] { return std::make_unique<ReactiveScheduler>(design()); }, trace);
}

TEST(SimulatorFastPath, MovingMaxPredictorBatches) {
  // Reactive moving-max now advertises real stability (pure function of
  // the trace); the fast path must stay exact while batching on it.
  const LoadTrace trace = step_trace({{150.0, 1500.0},
                                      {2400.0, 1200.0},
                                      {2300.0, 600.0},
                                      {90.0, 1800.0},
                                      {1200.0, 900.0}});
  expect_equivalent(
      [] {
        return std::make_unique<BmlScheduler>(
            design(), std::make_shared<MovingMaxPredictor>(378.0));
      },
      trace);
}

TEST(SimulatorFastPath, SeasonalPredictorBatches) {
  DiurnalOptions diurnal;
  diurnal.peak = 2000.0;
  diurnal.noise = 0.0;
  const LoadTrace trace = diurnal_trace(diurnal, 2);
  expect_equivalent(
      [] {
        return std::make_unique<BmlScheduler>(
            design(), std::make_shared<SeasonalPredictor>());
      },
      trace);
}

TEST(SimulatorFastPath, DecisionLevelStabilityStaysExact) {
  // Wiggles small enough that consecutive window maxima map to the same
  // combination: the decision-level bound merges those spans; results must
  // match the per-second reference regardless.
  std::vector<StepSegment> segments;
  for (int i = 0; i < 60; ++i)
    segments.push_back({1000.0 + 7.0 * (i % 5), 120.0});
  segments.push_back({2600.0, 1200.0});
  for (int i = 0; i < 30; ++i)
    segments.push_back({140.0 + 3.0 * (i % 4), 90.0});
  expect_equivalent(oracle_bml, step_trace(segments));
}

TEST(SimulatorFastPath, StatefulPredictorFallsBackToPerSecondConsults) {
  // The EWMA predictor updates internal state on every call, so its
  // stability bound stays at one second; the fast path must remain exact.
  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.03;
  diurnal.seed = 3;
  const LoadTrace trace = diurnal_trace(diurnal, 1);
  expect_equivalent(
      [] {
        return std::make_unique<BmlScheduler>(
            design(), std::make_shared<EwmaPredictor>(0.2, 1.3));
      },
      trace);
}

TEST(SimulatorFastPath, CostAwareScheduler) {
  const LoadTrace trace =
      step_trace({{250.0, 1400.0}, {2200.0, 1400.0}, {120.0, 1400.0}});
  expect_equivalent(
      [] {
        return std::make_unique<CostAwareScheduler>(
            design(), std::make_shared<OracleMaxPredictor>());
      },
      trace);
}

TEST(SimulatorFastPath, EventLoggingUsesReferencePath) {
  // record_events forces the per-second loop even when event_driven is on;
  // the event log must be populated as before.
  SimulatorOptions options;
  options.record_events = true;
  options.event_driven = true;
  const Simulator sim(design()->candidates(), options);
  auto scheduler = oracle_bml();
  const SimulationResult r =
      sim.run(*scheduler, step_trace({{100.0, 600.0}, {2000.0, 600.0}}));
  EXPECT_GT(r.events.total(), 0u);
}

}  // namespace
}  // namespace bml
