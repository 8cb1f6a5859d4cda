#include "experiments/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/crossing.hpp"
#include "predict/predictor.hpp"
#include "profiling/profiler.hpp"
#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/lower_bound.hpp"
#include "scenario/sweep.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace bml {

// ---------------------------------------------------------------- Table I

double ProfiledArch::worst_relative_error() const {
  const double perf =
      std::abs(measured.max_perf() - truth.max_perf()) / truth.max_perf();
  const double idle =
      std::abs(measured.idle_power() - truth.idle_power()) /
      truth.idle_power();
  const double peak =
      std::abs(measured.max_power() - truth.max_power()) / truth.max_power();
  return std::max({perf, idle, peak});
}

Table1Result run_table1(std::uint64_t seed) {
  Table1Result result;
  const Catalog truth = real_catalog();
  Profiler profiler;
  std::uint64_t machine_seed = seed;
  for (const ArchitectureProfile& arch : truth) {
    SimulatedMachine machine(MachineSpec(arch), machine_seed++);
    result.rows.push_back(ProfiledArch{profiler.profile(machine), arch});
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 1

Fig1Result run_fig1() {
  Fig1Result result;
  result.input = illustrative_catalog();
  FilterResult filtered = filter_candidates(result.input);
  result.kept = std::move(filtered.candidates);
  result.removed = std::move(filtered.removed);
  for (const ArchitectureProfile& arch : result.input) {
    std::vector<Watts> series;
    for (ReqRate r = 0.0; r <= result.max_rate; r += result.rate_step)
      series.push_back(homogeneous_cost(arch, r));
    result.homogeneous_series.push_back(std::move(series));
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 2

Fig2Result run_fig2() {
  Fig2Result result{BmlDesign::build(illustrative_catalog()), {}, {}, {}};
  const BmlDesign& design = result.design;
  for (std::size_t i = 0; i < design.candidates().size(); ++i) {
    result.names.push_back(design.candidates()[i].name());
    result.step3.push_back(design.step3_thresholds()[i]);
    result.step4.push_back(design.thresholds()[i]);
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 3

Fig3Result run_fig3(int points) {
  if (points < 2) throw std::invalid_argument("run_fig3: points must be >= 2");
  Fig3Result result;
  for (const ArchitectureProfile& arch : real_catalog()) {
    Fig3Series series;
    series.name = arch.name();
    for (int i = 0; i < points; ++i) {
      const ReqRate r =
          arch.max_perf() * static_cast<double>(i) / (points - 1);
      series.rates.push_back(r);
      series.powers.push_back(arch.power_at(r));
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 4

Fig4Result run_fig4(ReqRate rate_step) {
  if (rate_step <= 0.0)
    throw std::invalid_argument("run_fig4: rate_step must be > 0");
  Fig4Result result{BmlDesign::build(real_catalog()), {}, {}, {}, {}};
  const BmlDesign& design = result.design;
  const ArchitectureProfile& big = design.big();
  const BmlLinearReference linear = design.linear_reference();
  for (ReqRate r = 0.0; r <= big.max_perf(); r += rate_step) {
    result.rates.push_back(r);
    result.bml.push_back(design.ideal_power(r));
    result.big_only.push_back(big.power_at(r));
    result.linear.push_back(linear.power(r));
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 5

double Fig5Result::mean_overhead_pct() const {
  return bml_overhead_pct.empty() ? 0.0 : mean_of(bml_overhead_pct);
}

double Fig5Result::min_overhead_pct() const {
  return bml_overhead_pct.empty()
             ? 0.0
             : *std::min_element(bml_overhead_pct.begin(),
                                 bml_overhead_pct.end());
}

double Fig5Result::max_overhead_pct() const {
  return bml_overhead_pct.empty()
             ? 0.0
             : *std::max_element(bml_overhead_pct.begin(),
                                 bml_overhead_pct.end());
}

namespace {

/// Serialises every WorldCupOptions knob into scenario `trace.*`
/// parameters, so the registry's generator reproduces the trace
/// bit-exactly (17 significant digits round-trip any double).
std::map<std::string, std::string> worldcup_trace_params(
    const WorldCupOptions& o) {
  std::map<std::string, std::string> params;
  const auto num = [](double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  params["days"] = std::to_string(o.days);
  params["peak"] = num(o.peak);
  params["base_fraction"] = num(o.base_fraction);
  params["tournament_start_day"] = std::to_string(o.tournament_start_day);
  params["tournament_end_day"] = std::to_string(o.tournament_end_day);
  params["diurnal_trough"] = num(o.diurnal_trough);
  std::string hours;
  for (double h : o.match_hours) hours += (hours.empty() ? "" : ";") + num(h);
  params["match_hours"] = hours;
  params["match_boost"] = num(o.match_boost);
  params["match_duration"] = num(o.match_duration);
  params["news_burst_prob_per_day"] = num(o.news_burst_prob_per_day);
  params["news_burst_min_amplitude"] = num(o.news_burst_min_amplitude);
  params["news_burst_max_amplitude"] = num(o.news_burst_max_amplitude);
  params["news_burst_min_duration"] = num(o.news_burst_min_duration);
  params["news_burst_max_duration"] = num(o.news_burst_max_duration);
  params["news_burst_ramp"] = num(o.news_burst_ramp);
  params["micro_bursts_per_day"] = num(o.micro_bursts_per_day);
  params["micro_burst_min_amplitude"] = num(o.micro_burst_min_amplitude);
  params["micro_burst_max_amplitude"] = num(o.micro_burst_max_amplitude);
  params["micro_burst_min_duration"] = num(o.micro_burst_min_duration);
  params["micro_burst_max_duration"] = num(o.micro_burst_max_duration);
  params["noise"] = num(o.noise);
  params["poisson_arrivals"] = o.poisson_arrivals ? "true" : "false";
  params["seed"] = std::to_string(o.seed);
  return params;
}

/// A BML design over `catalog` sized to answer `peak` (at least 1 req/s).
std::shared_ptr<BmlDesign> design_for_peak(const Catalog& catalog,
                                           ReqRate peak) {
  BmlDesignOptions options;
  options.max_rate = std::max(peak, 1.0);
  return std::make_shared<BmlDesign>(BmlDesign::build(catalog, options));
}

}  // namespace

Fig5Result run_fig5(const Fig5Options& options) {
  const LoadTrace trace = worldcup_like_trace(options.trace);

  BmlDesignOptions design_options;
  design_options.max_rate = std::max(trace.peak(), 1.0);
  auto design = std::make_shared<BmlDesign>(
      BmlDesign::build(real_catalog(), design_options));

  Fig5Result result;

  // The figure's three simulated scenarios, expressed as data and executed
  // by the scenario engine: Big-Medium-Little (the pro-active scheduler,
  // paper's window), UpperBound PerDay (homogeneous Big fleet resized at
  // midnight), and UpperBound Global (constant fleet for the global peak).
  ScenarioSpec spec;
  spec.name = "fig5";
  spec.trace = "worldcup_like";
  spec.trace_params = worldcup_trace_params(options.trace);
  spec.sweeps.push_back(
      SweepAxis{"scheduler", {"bml", "per-day", "static-max"}});
  SweepOptions sweep_options;
  sweep_options.keep_results = true;
  // The lower bound needed the trace anyway; share it so the three
  // scenarios replay it instead of regenerating 87 days each.
  sweep_options.shared_trace = &trace;

  // The analytic lower bound (ideal combination every second, no On/Off
  // cost) is independent of the sweep; run them fork-join in parallel.
  SweepReport report;
  parallel_invoke({
      [&] {
        result.lower_bound =
            theoretical_lower_bound_per_day(*design, trace);
      },
      [&] { report = run_sweep(spec, sweep_options); },
  });

  result.bml_sim = std::move(report.results[0].sim);
  result.per_day_sim = std::move(report.results[1].sim);
  result.global_sim = std::move(report.results[2].sim);
  result.bml = result.bml_sim.per_day_total();
  result.per_day_bound = result.per_day_sim.per_day_total();
  result.global_bound = result.global_sim.per_day_total();

  const std::size_t days =
      std::min({result.lower_bound.size(), result.bml.size(),
                result.per_day_bound.size(), result.global_bound.size()});
  for (std::size_t d = options.skip_days; d < days; ++d)
    result.bml_overhead_pct.push_back(
        percent_over(result.bml[d], result.lower_bound[d]));
  return result;
}

// ------------------------------------------------------------- Colocation

Joules ColocationResult::isolated_total() const {
  Joules total = 0.0;
  for (const SimulationResult& r : isolated) total += r.total_energy();
  return total;
}

ColocationResult run_colocation(std::size_t days, std::uint64_t seed) {
  if (days == 0) throw std::invalid_argument("run_colocation: days == 0");
  const Catalog catalog = real_catalog();

  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.02;
  diurnal.seed = seed;
  LoadTrace frontend = diurnal_trace(diurnal, days);
  LoadTrace batch =
      constant_trace(400.0, static_cast<double>(days) * 86'400.0);

  const auto make_workloads = [&](std::shared_ptr<const BmlDesign> design) {
    std::vector<Workload> workloads;
    Workload web;
    web.name = "frontend";
    web.trace = frontend;
    web.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    workloads.push_back(std::move(web));
    Workload steady;
    steady.name = "batch";
    steady.trace = batch;
    steady.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    workloads.push_back(std::move(steady));
    return workloads;
  };

  ColocationResult result;
  {
    // Shared pool, designed for the aggregate demand.
    const ReqRate peak =
        combined_trace(std::vector<const LoadTrace*>{&frontend, &batch})
            .peak();
    auto design = design_for_peak(catalog, peak);
    const Simulator simulator(design->candidates());
    std::vector<Workload> workloads = make_workloads(design);
    result.colocated = simulator.run(workloads);
  }
  for (const LoadTrace* trace : {&frontend, &batch}) {
    // One dedicated cluster per app, each sized for its own peak.
    auto design = design_for_peak(catalog, trace->peak());
    const Simulator simulator(design->candidates());
    BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
    result.isolated.push_back(simulator.run(scheduler, *trace));
  }
  return result;
}

SloRackStrikeResult run_slo_rackstrikes(std::size_t days,
                                        std::uint64_t seed) {
  if (days == 0) throw std::invalid_argument("run_slo_rackstrikes: days == 0");
  const Catalog catalog = real_catalog();

  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.05;
  diurnal.seed = seed;
  LoadTrace frontend = diurnal_trace(diurnal, days);
  LoadTrace batch =
      constant_trace(500.0, static_cast<double>(days) * 86'400.0);

  const ReqRate peak =
      combined_trace(std::vector<const LoadTrace*>{&frontend, &batch}).peak();
  auto design = design_for_peak(catalog, peak);

  // Both runs replay the identical strike timeline: the fault streams are
  // functions of the seed alone, never of cluster state, so the aware run
  // differs only in how the coordinator responds.
  SimulatorOptions options;
  options.faults.groups = 2;
  options.faults.group_mtbf = 3.0 * 3600.0;
  options.faults.group_mttr = 1800.0;
  options.faults.crews = 1;  // one crew: repairs queue, outages stretch
  options.faults.seed = seed;
  options.slo_window = 7200.0;

  SloRackStrikeResult result;
  result.target = 0.999;

  const auto run_with = [&](double target) {
    std::vector<Workload> workloads;
    Workload web;
    web.name = "frontend";
    web.trace = frontend;
    web.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    web.fault_domain = "rack-pool";
    web.slo_availability = target;
    web.slo_spare = 0.5;
    workloads.push_back(std::move(web));
    Workload steady;
    steady.name = "batch";
    steady.trace = batch;
    steady.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    steady.fault_domain = "rack-pool";
    workloads.push_back(std::move(steady));
    const Simulator simulator(design->candidates(), options);
    return simulator.run(workloads);
  };

  result.aware = run_with(result.target);
  result.baseline = run_with(0.0);
  return result;
}

DegradedPriorityResult run_degraded_priority(std::size_t days,
                                             std::uint64_t seed) {
  if (days == 0)
    throw std::invalid_argument("run_degraded_priority: days == 0");
  const Catalog catalog = real_catalog();

  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.05;
  diurnal.seed = seed;
  LoadTrace frontend = diurnal_trace(diurnal, days);
  LoadTrace batch =
      constant_trace(500.0, static_cast<double>(days) * 86'400.0);

  const ReqRate peak =
      combined_trace(std::vector<const LoadTrace*>{&frontend, &batch}).peak();
  auto design = design_for_peak(catalog, peak);

  DegradedPriorityResult result;
  result.overload_factor = 0.5;
  result.penalty = 0.5;

  // Both runs replay the identical strike timeline (the fault streams are
  // functions of the seed alone); `graceful` toggles the whole degradation
  // stack at once — spill-over absorption and the priority ranking.
  const auto run_with = [&](bool graceful) {
    SimulatorOptions options;
    options.faults.groups = 2;
    options.faults.group_mtbf = 3.0 * 3600.0;
    options.faults.group_mttr = 1800.0;
    options.faults.crews = 1;  // one crew: repairs queue, outages stretch
    options.faults.seed = seed;
    if (graceful) {
      options.degrade.overload_factor = result.overload_factor;
      options.degrade.penalty = result.penalty;
    }
    std::vector<Workload> workloads;
    Workload web;
    web.name = "frontend";
    web.trace = frontend;
    web.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    web.fault_domain = "rack-pool";
    web.priority = graceful ? 2 : 0;
    workloads.push_back(std::move(web));
    Workload steady;
    steady.name = "batch";
    steady.trace = batch;
    steady.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    steady.fault_domain = "rack-pool";
    workloads.push_back(std::move(steady));
    const Simulator simulator(design->candidates(), options);
    return simulator.run(workloads);
  };

  result.aware = run_with(true);
  result.baseline = run_with(false);
  return result;
}

TenantChurnResult run_tenant_churn(std::size_t days, std::uint64_t seed) {
  if (days == 0) throw std::invalid_argument("run_tenant_churn: days == 0");
  const Catalog catalog = real_catalog();

  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.05;
  diurnal.seed = seed;
  LoadTrace frontend = diurnal_trace(diurnal, days);
  const auto horizon = static_cast<TimePoint>(days) * 86'400;
  LoadTrace batch = constant_trace(500.0, static_cast<double>(horizon));

  // The pool is designed for the combined peak either way — the question
  // is what the control plane does with the visitor's capacity while the
  // visitor is not resident.
  const ReqRate peak =
      combined_trace(std::vector<const LoadTrace*>{&frontend, &batch}).peak();
  auto design = design_for_peak(catalog, peak);

  TenantChurnResult result;
  result.arrive = horizon / 4;
  result.depart = 3 * horizon / 4;

  const auto run_with = [&](bool aware) {
    SimulatorOptions options;
    options.coordinator = CoordinatorMode::kPartitioned;
    options.coordinator_budget = design->max_rate();
    std::vector<Workload> workloads;
    Workload web;
    web.name = "frontend";
    web.trace = frontend;
    web.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    // Shares mirror the demand ratio (1500 peak vs 500 steady), so the
    // partitioned budget never chokes the frontend while the visitor is
    // resident; what the aware run changes is only the visitor's window.
    web.share = 3.0;
    workloads.push_back(std::move(web));
    Workload visitor;
    visitor.name = "visitor";
    visitor.trace = batch;
    visitor.scheduler = std::make_unique<BmlScheduler>(
        design, std::make_shared<OracleMaxPredictor>());
    visitor.share = 1.0;
    if (aware) {
      visitor.arrive = result.arrive;
      visitor.depart = result.depart;
    }
    workloads.push_back(std::move(visitor));
    const Simulator simulator(design->candidates(), options);
    return simulator.run(workloads);
  };

  result.aware = run_with(true);
  result.baseline = run_with(false);
  return result;
}

}  // namespace bml
