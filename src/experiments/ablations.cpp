#include "experiments/ablations.hpp"
#include <cmath>
#include <stdexcept>

#include <memory>

#include "power/proportionality.hpp"
#include "power/rapl.hpp"
#include "predict/predictor.hpp"
#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/cost_aware.hpp"
#include "sched/lower_bound.hpp"
#include "util/parallel.hpp"

namespace bml {

namespace {

struct AblationContext {
  LoadTrace trace;
  std::shared_ptr<BmlDesign> design;
  Joules lower_bound = 0.0;
};

AblationContext make_context(const AblationOptions& options) {
  WorldCupOptions trace_options;
  trace_options.days = options.days;
  trace_options.peak = options.peak;
  trace_options.seed = options.seed;
  // Compress the tournament profile into the shortened replay window so a
  // week-long ablation still sees ramp + match days.
  trace_options.tournament_start_day = options.days / 3;
  trace_options.tournament_end_day = options.days - 1;

  AblationContext ctx{worldcup_like_trace(trace_options), nullptr, 0.0};
  BmlDesignOptions design_options;
  design_options.max_rate = std::max(ctx.trace.peak(), 1.0);
  ctx.design = std::make_shared<BmlDesign>(
      BmlDesign::build(real_catalog(), design_options));
  ctx.lower_bound = theoretical_lower_bound_total(*ctx.design, ctx.trace);
  return ctx;
}

AblationRow row_from(const std::string& label, const SimulationResult& sim,
                  Joules lower_bound) {
  AblationRow row;
  row.label = label;
  row.total_energy = sim.total_energy();
  row.overhead_vs_lower_bound_pct =
      percent_over(sim.total_energy(), lower_bound);
  row.served_fraction = sim.qos.served_fraction();
  row.reconfigurations = sim.reconfigurations;
  return row;
}

}  // namespace

std::vector<AblationRow> run_prediction_error_sweep(
    const std::vector<double>& sigmas, const AblationOptions& options) {
  const AblationContext ctx = make_context(options);
  const Simulator simulator(ctx.design->candidates());
  std::vector<AblationRow> rows(sigmas.size());
  // Sweep points are independent simulations: run them in parallel.
  parallel_for(sigmas.size(), [&](std::size_t i) {
    auto predictor = std::make_shared<ErrorInjectingPredictor>(
        std::make_unique<OracleMaxPredictor>(), sigmas[i], /*bias=*/0.0,
        /*seed=*/options.seed + 1);
    BmlScheduler scheduler(ctx.design, predictor);
    const SimulationResult sim = simulator.run(scheduler, ctx.trace);
    rows[i] = row_from("sigma=" + std::to_string(sigmas[i]), sim,
                       ctx.lower_bound);
  });
  return rows;
}

std::vector<AblationRow> run_window_sweep(
    const std::vector<double>& window_factors,
    const AblationOptions& options) {
  const AblationContext ctx = make_context(options);
  const Simulator simulator(ctx.design->candidates());
  const Seconds base = BmlScheduler::default_window(*ctx.design) / 2.0;
  std::vector<AblationRow> rows(window_factors.size());
  parallel_for(window_factors.size(), [&](std::size_t i) {
    BmlScheduler scheduler(ctx.design, std::make_shared<OracleMaxPredictor>(),
                           window_factors[i] * base);
    const SimulationResult sim = simulator.run(scheduler, ctx.trace);
    rows[i] = row_from("window=" + std::to_string(window_factors[i]) + "xOn",
                       sim, ctx.lower_bound);
  });
  return rows;
}

std::vector<AblationRow> run_policy_comparison(const AblationOptions& options) {
  const AblationContext ctx = make_context(options);
  Simulator simulator(ctx.design->candidates());
  std::vector<AblationRow> rows;

  {
    BmlScheduler scheduler(ctx.design, std::make_shared<OracleMaxPredictor>());
    rows.push_back(row_from("pro-active oracle (paper)",
                            simulator.run(scheduler, ctx.trace),
                            ctx.lower_bound));
  }
  {
    BmlScheduler scheduler(
        ctx.design,
        std::make_shared<MovingMaxPredictor>(
            BmlScheduler::default_window(*ctx.design)));
    rows.push_back(row_from("pro-active moving-max",
                            simulator.run(scheduler, ctx.trace),
                            ctx.lower_bound));
  }
  {
    BmlScheduler scheduler(ctx.design, std::make_shared<SeasonalPredictor>());
    rows.push_back(row_from("pro-active seasonal (same time yesterday)",
                            simulator.run(scheduler, ctx.trace),
                            ctx.lower_bound));
  }
  {
    ReactiveScheduler scheduler(ctx.design, /*headroom=*/1.0);
    rows.push_back(row_from("reactive", simulator.run(scheduler, ctx.trace),
                            ctx.lower_bound));
  }
  {
    auto inner = std::make_shared<ReactiveScheduler>(ctx.design, 1.0);
    HysteresisScheduler scheduler(inner, ctx.design, /*hold=*/600.0);
    rows.push_back(row_from("reactive + 600s hysteresis",
                            simulator.run(scheduler, ctx.trace),
                            ctx.lower_bound));
  }
  return rows;
}

std::vector<ProportionalityRow> run_proportionality_metrics() {
  std::vector<ProportionalityRow> rows;
  auto add = [&rows](const std::string& name, Watts idle, Watts peak,
                     const PowerCurve& curve) {
    ProportionalityRow row;
    row.name = name;
    row.ipr = ideal_to_peak_ratio(idle, peak);
    row.ldr = linear_deviation_ratio(curve);
    row.score = proportionality_score(curve);
    rows.push_back(row);
  };

  for (const ArchitectureProfile& arch : real_catalog()) {
    add(arch.name(), arch.idle_power(), arch.max_power(),
        [&arch](double u) { return arch.power_at(u * arch.max_perf()); });
  }

  const BmlDesign design = BmlDesign::build(real_catalog());
  const ReqRate big_perf = design.big().max_perf();
  add("BML combination", design.ideal_power(0.0), design.ideal_power(big_perf),
      [&design, big_perf](double u) {
        return design.ideal_power(u * big_perf);
      });
  const BmlLinearReference linear = design.linear_reference();
  add("BML linear (ref)", linear.power(0.0), linear.power(big_perf),
      [&linear, big_perf](double u) { return linear.power(u * big_perf); });
  return rows;
}

std::vector<AblationRow> run_cost_aware_comparison(
    const AblationOptions& options) {
  const AblationContext ctx = make_context(options);
  const Simulator simulator(ctx.design->candidates());
  std::vector<AblationRow> rows(4);

  parallel_invoke({
      [&] {
        BmlScheduler scheduler(ctx.design,
                               std::make_shared<OracleMaxPredictor>());
        rows[0] = row_from("plain pro-active (paper)",
                           simulator.run(scheduler, ctx.trace),
                           ctx.lower_bound);
      },
      [&] {
        CostAwareScheduler scheduler(ctx.design,
                                     std::make_shared<OracleMaxPredictor>());
        rows[1] = row_from("cost-aware, payback = window",
                           simulator.run(scheduler, ctx.trace),
                           ctx.lower_bound);
      },
      [&] {
        CostAwareScheduler scheduler(ctx.design,
                                     std::make_shared<OracleMaxPredictor>(),
                                     ApplicationModel{}, MigrationModel{},
                                     /*window=*/0.0,
                                     /*payback_window=*/1800.0);
        rows[2] = row_from("cost-aware, payback = 30 min",
                           simulator.run(scheduler, ctx.trace),
                           ctx.lower_bound);
      },
      [&] {
        CostAwareScheduler scheduler(ctx.design,
                                     std::make_shared<OracleMaxPredictor>(),
                                     ApplicationModel{}, MigrationModel{},
                                     /*window=*/0.0,
                                     /*payback_window=*/30.0);
        rows[3] = row_from("cost-aware, payback = 30 s",
                           simulator.run(scheduler, ctx.trace),
                           ctx.lower_bound);
      },
  });
  return rows;
}

std::vector<RaplRow> run_rapl_comparison(ReqRate fleet_rate, int points) {
  if (points < 2)
    throw std::invalid_argument("run_rapl_comparison: points must be >= 2");
  BmlDesignOptions design_options;
  design_options.max_rate = fleet_rate;
  const BmlDesign design = BmlDesign::build(real_catalog(), design_options);
  const ArchitectureProfile& big = design.big();
  const int fleet = std::max(
      1, static_cast<int>(std::ceil(fleet_rate / big.max_perf())));

  std::vector<RaplRow> rows;
  for (int i = 0; i < points; ++i) {
    RaplRow row;
    row.rate = fleet_rate * static_cast<double>(i) / (points - 1);
    row.bml = design.ideal_power(row.rate);
    row.rapl_big = rapl_homogeneous_power(big, fleet, row.rate);
    // Without capping the fleet still spreads load evenly; with linear
    // curves the draw equals the capped value — the distinction shows up
    // for non-linear profiles, kept here as the reference column.
    row.uncapped_big = rapl_homogeneous_power(big, fleet, row.rate);
    rows.push_back(row);
  }
  return rows;
}

std::vector<AblationRow> run_fault_injection_sweep(
    const std::vector<double>& jitter_sigmas, const AblationOptions& options) {
  const AblationContext ctx = make_context(options);
  std::vector<AblationRow> rows(jitter_sigmas.size());
  // One immutable dispatch plan shared by every worker; each worker's
  // simulator differs only in its fault model.
  const auto plan =
      std::make_shared<const DispatchPlan>(ctx.design->candidates());
  parallel_for(jitter_sigmas.size(), [&](std::size_t i) {
    SimulatorOptions sim_options;
    sim_options.faults.boot_time_jitter = jitter_sigmas[i];
    sim_options.faults.boot_failure_prob =
        jitter_sigmas[i] > 0.0 ? 0.02 : 0.0;
    sim_options.faults.seed = options.seed + 13;
    const Simulator simulator(ctx.design->candidates(), plan, sim_options);
    BmlScheduler scheduler(ctx.design,
                           std::make_shared<OracleMaxPredictor>());
    rows[i] = row_from("boot jitter sigma=" + std::to_string(jitter_sigmas[i]),
                       simulator.run(scheduler, ctx.trace), ctx.lower_bound);
  });
  return rows;
}

}  // namespace bml
