// Tests for experiments/: every table/figure runner reproduces the paper's
// qualitative claims on reduced-size configurations, and the control-plane
// comparisons beyond the paper hold as scenario specs.
#include "experiments/experiments.hpp"

#include <gtest/gtest.h>

#include "scenario/sweep.hpp"

namespace bml {
namespace {

TEST(Table1, ProfilesAllFiveMachinesWithinNoise) {
  const Table1Result r = run_table1(/*seed=*/7);
  ASSERT_EQ(r.rows.size(), 5u);
  for (const ProfiledArch& row : r.rows) {
    EXPECT_EQ(row.measured.name(), row.truth.name());
    EXPECT_LT(row.worst_relative_error(), 0.10)
        << row.truth.name() << " profiled too far from Table I";
    // Transition durations are deterministic in the testbed.
    EXPECT_DOUBLE_EQ(row.measured.on_cost().duration,
                     row.truth.on_cost().duration);
    EXPECT_DOUBLE_EQ(row.measured.off_cost().duration,
                     row.truth.off_cost().duration);
  }
}

TEST(Fig1, RemovesDAndKeepsABC) {
  const Fig1Result r = run_fig1();
  ASSERT_EQ(r.input.size(), 4u);
  ASSERT_EQ(r.kept.size(), 3u);
  ASSERT_EQ(r.removed.size(), 1u);
  EXPECT_EQ(r.removed[0].name, "arch-D");
  ASSERT_EQ(r.homogeneous_series.size(), 4u);
  // Series are sampled on the same grid, non-decreasing in rate.
  for (const auto& series : r.homogeneous_series) {
    ASSERT_EQ(series.size(),
              static_cast<std::size_t>(r.max_rate / r.rate_step) + 1);
    for (std::size_t i = 1; i < series.size(); ++i)
      EXPECT_GE(series[i], series[i - 1] - 1e-9);
  }
}

TEST(Fig2, Step4RaisesBigThreshold) {
  const Fig2Result r = run_fig2();
  ASSERT_EQ(r.names.size(), 3u);
  EXPECT_EQ(r.names[0], "arch-A");
  // Step 3's Big threshold sits at Medium's max perf (401); Step 4 raises it.
  EXPECT_NEAR(r.step3[0], 401.0, 1.0);
  EXPECT_GT(r.step4[0], r.step3[0]);
  // Little's threshold is 1 in both steps.
  EXPECT_DOUBLE_EQ(r.step3[2], 1.0);
  EXPECT_DOUBLE_EQ(r.step4[2], 1.0);
}

TEST(Fig3, FiveSeriesSpanIdleToPeak) {
  const Fig3Result r = run_fig3(11);
  ASSERT_EQ(r.series.size(), 5u);
  for (const Fig3Series& s : r.series) {
    ASSERT_EQ(s.rates.size(), 11u);
    EXPECT_DOUBLE_EQ(s.rates.front(), 0.0);
    const auto profile = find_profile(real_catalog(), s.name).value();
    EXPECT_DOUBLE_EQ(s.rates.back(), profile.max_perf());
    EXPECT_DOUBLE_EQ(s.powers.front(), profile.idle_power());
    EXPECT_DOUBLE_EQ(s.powers.back(), profile.max_power());
  }
  EXPECT_THROW((void)run_fig3(1), std::invalid_argument);
}

TEST(Fig4, BmlCurveDominatesBigOnlyAndTracksLinear) {
  const Fig4Result r = run_fig4(7.0);
  ASSERT_FALSE(r.rates.empty());
  double worst_gap_to_linear = 0.0;
  for (std::size_t i = 0; i < r.rates.size(); ++i) {
    if (r.rates[i] >= 1.0) {
      EXPECT_LE(r.bml[i], r.big_only[i] + 1e-9) << "rate " << r.rates[i];
    }
    worst_gap_to_linear =
        std::max(worst_gap_to_linear, r.bml[i] - r.linear[i]);
  }
  // "It represents an achievable goal, and how our solution approaches it":
  // the combination bulges above the straight line just below Big's
  // threshold (many Mediums vs the hypothetical machine), as in the
  // paper's figure, but stays within ~a quarter of Big's peak power.
  EXPECT_LT(worst_gap_to_linear, 0.25 * r.design.big().max_power());
}

TEST(Fig5, QuickRunReproducesOrderingAndQos) {
  Fig5Options options;
  options.trace.days = 3;
  options.trace.tournament_start_day = 1;
  options.trace.tournament_end_day = 2;
  options.trace.peak = 4000.0;
  options.trace.seed = 23;
  const Fig5Result r = run_fig5(options);

  ASSERT_EQ(r.lower_bound.size(), 3u);
  ASSERT_EQ(r.bml.size(), 3u);
  double per_day_total = 0.0, global_total = 0.0;
  for (std::size_t d = 0; d < 3; ++d) {
    // LowerBound <= BML <= UpperBound PerDay per day.
    EXPECT_LE(r.lower_bound[d], r.bml[d] + 1e-6) << "day " << d;
    EXPECT_LE(r.bml[d], r.per_day_bound[d]) << "day " << d;
    per_day_total += r.per_day_bound[d];
    global_total += r.global_bound[d];
  }
  // PerDay may briefly exceed Global on a scale-up morning (it pays boot
  // energy that the constant fleet never does); over the whole trace the
  // coarse planning still wins.
  EXPECT_LE(per_day_total, global_total + 1e-6);
  // BML satisfies QoS (the paper's headline constraint).
  EXPECT_DOUBLE_EQ(r.bml_sim.qos.served_fraction(), 1.0);
  EXPECT_EQ(r.bml_sim.qos.violation_seconds, 0);
  // Overheads are positive and in a sane band.
  EXPECT_GT(r.mean_overhead_pct(), 0.0);
  EXPECT_LT(r.mean_overhead_pct(), 200.0);
  EXPECT_LE(r.min_overhead_pct(), r.mean_overhead_pct());
  EXPECT_GE(r.max_overhead_pct(), r.mean_overhead_pct());
}

// Beyond the paper: control-plane comparisons stated as scenario specs,
// run by the scenario engine with one result per grid point.
std::vector<ScenarioResult> run_spec(const std::string& text) {
  return run_sweep(parse_scenario(text), {.keep_results = true}).results;
}

// A diurnal web frontend and a steady batch service, colocated on one pool
// sized for their aggregate peak or each alone on a pool sized for its own.
constexpr const char* kColocation = R"(seed = 7
[app]
name = frontend
trace = diurnal
trace.peak = 1500
trace.noise = 0.02
[app]
name = batch
trace = constant
trace.rate = 400
trace.duration = 86400
)";

TEST(Colocation, SharedPoolAttributesBothAppsAndSavesEnergy) {
  const ScenarioResult colocated = run_spec(kColocation).front();
  Joules isolated_total = 0.0;
  for (const AppSpec& app : colocated.spec.apps) {
    ScenarioSpec isolated = colocated.spec;
    isolated.apps = {app};
    isolated_total += run_scenario(isolated).sim.total_energy();
  }
  EXPECT_GT(isolated_total, 0.0);
  ASSERT_EQ(colocated.apps.size(), 2u);
  EXPECT_EQ(colocated.apps[0].name, "frontend");
  EXPECT_EQ(colocated.apps[1].name, "batch");
  EXPECT_GT(colocated.apps[0].compute_energy, 0.0);
  EXPECT_GT(colocated.apps[1].compute_energy, 0.0);
  EXPECT_GT(colocated.sim.total_energy(), 0.0);
  // Per-app shares sum back to the shared cluster's totals.
  EXPECT_NEAR(
      colocated.apps[0].compute_energy + colocated.apps[1].compute_energy,
      colocated.sim.compute_energy, 1e-9 * colocated.sim.compute_energy);
  // Pooling the fleet cannot do much worse than dedicated clusters (the
  // dispatcher fills the shared machines' cheapest slopes with both apps'
  // traffic); allow a small tolerance for reconfiguration timing.
  EXPECT_LT(colocated.sim.total_energy(), 1.10 * isolated_total);
}

// Web and batch share one rack-struck fault domain with a single repair
// crew. Strikes depend on the seed alone, so every grid point below replays
// the same outages; slo.* stays inert until a point sets a target.
constexpr const char* kRackPool = R"(seed = 7
faults.groups = 2
faults.group_mtbf = 10800
faults.group_mttr = 1800
faults.crews = 1
slo.window = 7200
[app]
name = frontend
trace = diurnal
trace.peak = 1500
trace.noise = 0.05
fault_domain = rack-pool
slo.spare = 0.5
[app]
name = batch
trace = constant
trace.rate = 500
trace.duration = 86400
fault_domain = rack-pool
)";

// Without (row 0) and with (row 1) the SLO feedback loop's spares.
const std::string kSloRackStrikes =
    std::string(kRackPool) + "sweep app0.slo.availability = 0,0.999\n";

TEST(SloRackStrikes, FeedbackRecoversServiceAtQuantifiedEnergyCost) {
  const std::vector<ScenarioResult> runs = run_spec(kSloRackStrikes);
  ASSERT_EQ(runs.size(), 2u);
  const ScenarioResult &baseline = runs[0], &aware = runs[1];
  ASSERT_EQ(aware.apps.size(), 2u);
  ASSERT_EQ(baseline.apps.size(), 2u);
  // Rack strikes landed, and the aware run actually provisioned spares.
  EXPECT_GT(baseline.sim.group_strikes, 0);
  EXPECT_GT(aware.sim.spare_seconds, 0);
  EXPECT_GT(aware.sim.spare_energy, 0.0);
  EXPECT_EQ(baseline.sim.spare_seconds, 0);
  EXPECT_DOUBLE_EQ(baseline.sim.spare_energy, 0.0);
  // The feedback loop bridges replacement-boot windows: the SLO app loses
  // fewer seconds of service than under the non-aware coordinator...
  const auto recovered_s = baseline.apps[0].qos_stats.violation_seconds -
                           aware.apps[0].qos_stats.violation_seconds;
  EXPECT_GT(recovered_s, 0);
  EXPECT_GE(aware.apps[0].qos_stats.served_fraction(),
            baseline.apps[0].qos_stats.served_fraction());
  // ...at a real, quantified energy cost (the spares idle).
  const Joules energy_cost =
      aware.sim.total_energy() - baseline.sim.total_energy();
  EXPECT_GT(energy_cost, 0.0);
  // The spare overlay is attribution, not double counting.
  EXPECT_LT(aware.sim.spare_energy, aware.sim.compute_energy);
  EXPECT_EQ(aware.apps[0].spare_seconds, aware.sim.spare_seconds);
  // Determinism: same seed, same deltas.
  const std::vector<ScenarioResult> again = run_spec(kSloRackStrikes);
  EXPECT_EQ(again[0].apps[0].qos_stats.violation_seconds -
                again[1].apps[0].qos_stats.violation_seconds,
            recovered_s);
  EXPECT_EQ(again[1].sim.total_energy() - again[0].sim.total_energy(),
            energy_cost);
}

// Brittle (row 0: spill-over dropped, no priorities) against graceful
// (row 3: spill-over absorbed at a penalty, and strikes preempt batch
// capacity for the priority-2 frontend); rows 1-2 switch on one each.
const std::string kDegradedPriority =
    std::string(kRackPool) +
    "sweep degrade.overload_factor = 0,0.5\nsweep app0.priority = 0,2\n";

TEST(DegradedPriority, LeanFleetTradesContentionForBootStorms) {
  const std::vector<ScenarioResult> runs = run_spec(kDegradedPriority);
  ASSERT_EQ(runs.size(), 4u);
  const ScenarioResult &baseline = runs[0], &aware = runs[3];
  ASSERT_EQ(aware.apps.size(), 2u);
  ASSERT_EQ(baseline.apps.size(), 2u);
  // Identical strike timeline in both runs.
  EXPECT_GT(aware.sim.group_strikes, 0);
  EXPECT_EQ(aware.sim.group_strikes, baseline.sim.group_strikes);
  // Strikes preempted low-priority capacity, and only the batch service
  // (priority 0) bears the preempted seconds.
  EXPECT_GT(aware.sim.preemptions, 0);
  EXPECT_EQ(baseline.sim.preemptions, 0);
  EXPECT_GT(aware.apps[1].preempted_seconds, 0);
  EXPECT_EQ(aware.apps[0].preempted_seconds, 0);
  // The lean fleet runs overloaded while repairs queue; the degrade model
  // accounts every contended second and the capacity the penalty burned.
  EXPECT_GT(aware.sim.overload_seconds, 0);
  EXPECT_GT(aware.sim.penalty_lost_capacity, 0.0);
  EXPECT_EQ(baseline.sim.overload_seconds, 0);
  EXPECT_DOUBLE_EQ(baseline.sim.penalty_lost_capacity, 0.0);
  // Per-app penalty shares are an exact decomposition of the cluster loss.
  EXPECT_NEAR(aware.apps[0].penalty_lost_capacity +
                  aware.apps[1].penalty_lost_capacity,
              aware.sim.penalty_lost_capacity,
              1e-9 * aware.sim.penalty_lost_capacity);
  // The frugal direction of the robustness trade: replacement boot-storms
  // skipped (energy saved) while spill-over absorption holds the web
  // app's service nearly flat.
  const Joules energy_saved =
      baseline.sim.total_energy() - aware.sim.total_energy();
  EXPECT_GT(energy_saved, 0.0);
  EXPECT_GT(aware.apps[0].qos_stats.served_fraction() -
                baseline.apps[0].qos_stats.served_fraction(),
            -0.002);
  // Determinism: same seed, same deltas.
  const std::vector<ScenarioResult> again = run_spec(kDegradedPriority);
  EXPECT_EQ(again[0].sim.total_energy() - again[3].sim.total_energy(),
            energy_saved);
  EXPECT_EQ(again[3].sim.preemptions, aware.sim.preemptions);
  EXPECT_EQ(again[3].sim.overload_seconds, aware.sim.overload_seconds);
}

// A diurnal web frontend under the partitioned coordinator (shares mirror
// the 1500 vs 500 req/s demand ratio, so the budget never chokes it) next
// to a batch visitor provisioned all day, or (with arrive/depart appended
// to its section, the last) resident for the middle half of the day only.
constexpr const char* kTenantChurn = R"(seed = 7
coordinator = partitioned
[app]
name = frontend
trace = diurnal
trace.peak = 1500
trace.noise = 0.05
share = 3
[app]
name = visitor
trace = constant
trace.rate = 500
trace.duration = 86400
)";

TEST(TenantChurn, AwareCoordinatorBeatsStaticOverProvisioning) {
  const std::string aware_text =
      std::string(kTenantChurn) + "arrive = 21600\ndepart = 64800\n";
  const ScenarioResult baseline = run_spec(kTenantChurn).front();
  const ScenarioResult aware = run_spec(aware_text).front();
  ASSERT_EQ(aware.apps.size(), 2u);
  ASSERT_EQ(baseline.apps.size(), 2u);
  // The aware run logs the visitor's residency; the static run has no
  // lifecycle at all.
  EXPECT_EQ(aware.sim.arrivals, 1);
  EXPECT_EQ(aware.sim.departures, 1);
  EXPECT_EQ(baseline.sim.arrivals, 0);
  EXPECT_EQ(baseline.sim.departures, 0);
  // Attribution integrates over the residency window only.
  EXPECT_EQ(aware.apps[1].active_seconds, 64'800 - 21'600);
  EXPECT_EQ(aware.apps[0].active_seconds, 86'400);
  EXPECT_EQ(baseline.apps[1].active_seconds, 86'400);
  // Draining the absent tenant's machines beats holding them all day,
  // without degrading the always-on frontend.
  const Joules energy_saved =
      baseline.sim.total_energy() - aware.sim.total_energy();
  EXPECT_GT(energy_saved, 0.0);
  EXPECT_GT(aware.apps[0].qos_stats.served_fraction() -
                baseline.apps[0].qos_stats.served_fraction(),
            -0.002);
  EXPECT_LT(aware.apps[1].compute_energy, baseline.apps[1].compute_energy);
  // Determinism: same seed, same deltas.
  const ScenarioResult again = run_spec(aware_text).front();
  EXPECT_EQ(run_spec(kTenantChurn).front().sim.total_energy() -
                again.sim.total_energy(),
            energy_saved);
  EXPECT_EQ(again.sim.reconfigurations, aware.sim.reconfigurations);
}

TEST(Fig5, StaticFleetNeverReconfigures) {
  Fig5Options options;
  options.trace.days = 1;
  options.trace.peak = 3000.0;
  const Fig5Result r = run_fig5(options);
  EXPECT_EQ(r.global_sim.reconfigurations, 0);
  EXPECT_DOUBLE_EQ(r.global_sim.reconfiguration_energy, 0.0);
  // Global bound: 3 bigs always on for a 3000 req/s peak.
  EXPECT_GE(r.global_bound[0], 3 * 69.9 * kSecondsPerDay * 0.99);
}

}  // namespace
}  // namespace bml
