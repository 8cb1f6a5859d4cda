// bmlbench — the measuring half of the end-to-end sweep benchmark.
//
// Each invocation runs ONE sample of one workload and prints one JSON
// object on stdout; perfbench/run.py spawns it in a closed loop, one
// process at a time, and aggregates the samples. The spec file is the only
// input: run.py writes the workload seed into it.
//
//   bmlbench sample <spec.scn> <threads>
//       One end-to-end sample through the library: load_scenario ->
//       run_sweep -> SweepReport::to_csv, timed as a whole (wall_s) and
//       split into set-up (spec load, expand_sweep and the build the sweep
//       shares across grid points) and replay. Reports peak RSS, per-row
//       CSV digests, the metrics-text digest (non-empty when the spec sets
//       obs.metrics, as `bmlsim sweep --metrics` does), the row values the
//       traced replay must reproduce, and the energy-conservation check.
//
//   bmlbench traced <spec.scn>
//       One layer-split sample. Replays the spec's grid points (the spec
//       must set obs.metrics) through the public calls — make_catalog,
//       make_trace, CompiledTrace, BmlDesign::build, DispatchPlan,
//       make_predictor, make_scheduler, Simulator::run — with timing
//       decorators around every Predictor and Scheduler, on one thread.
//       Reports the layer times and counts, plus the row values and the
//       metrics-text digest, which run.py compares with a library sample
//       of the same spec: any difference fails the sample, because the
//       split would then describe a different program.
//
// Only public headers of libbml are used. The replay mirrors exactly two
// private helpers of scenario/sweep.cpp — the per-app seed derivation and
// the `replicas` expansion — plus the rules the registry header documents
// (build sharing, trace deduplication, design sizing). Specs that use the
// stochastic churn.* generator are refused in traced mode: its timeline is
// private, and workloads write explicit arrive/depart keys instead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/workload.hpp"
#include "core/bml_design.hpp"
#include "core/dispatch_plan.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "sched/coordinator.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/qos.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"

namespace {

using bml::AppSpec;
using bml::ScenarioSpec;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a 64-bit digest as 16 hex digits: a compact fingerprint for
/// output checks (regression detection, not adversarial integrity).
std::string digest(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Appends `item` to a comma-separated JSON list body.
void append_item(std::string& list, const std::string& item) {
  if (!list.empty()) list += ',';
  list += item;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Header and row digests of a rendered sweep CSV (one line per row; the
/// CSV writer never quotes, so a newline always ends a row).
std::string csv_digests_json(const std::string& csv) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < csv.size()) {
    std::size_t end = csv.find('\n', begin);
    if (end == std::string::npos) end = csv.size();
    lines.push_back(digest(std::string_view(csv).substr(begin, end - begin)));
    begin = end + 1;
  }
  std::string rows;
  for (std::size_t i = 1; i < lines.size(); ++i)
    append_item(rows, json_string(lines[i]));
  std::string out = "\"csv_header\":";
  out += json_string(lines.empty() ? "" : lines.front());
  out += ",\"rows\":[";
  out += rows;
  out += ']';
  return out;
}

/// Rows whose per-app compute energies do not sum to the cluster compute
/// energy within 1e-9 relative.
std::vector<std::size_t> conservation_failures(const bml::SweepReport& r) {
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const bml::SweepRow& row = r.rows[i];
    double sum = 0.0;
    for (const bml::SweepAppRow& app : row.apps) sum += app.compute_energy;
    const double scale = std::max(std::abs(row.compute_energy), 1.0);
    if (row.apps.empty() ||
        !(std::abs(sum - row.compute_energy) <= 1e-9 * scale))
      bad.push_back(i);
  }
  return bad;
}

/// The row fields the traced replay must reproduce exactly, at full
/// precision (%.17g round-trips every double).
std::string row_values_json(double total_energy, double compute_energy,
                            double reconfiguration_energy, int reconfigurations,
                            std::int64_t qos_violation_seconds,
                            double served_fraction, std::size_t peak_machines) {
  std::string out = "[";
  out += json_number(total_energy) + ',' + json_number(compute_energy) + ',' +
         json_number(reconfiguration_energy) + ',' +
         std::to_string(reconfigurations) + ',' +
         std::to_string(qos_violation_seconds) + ',' +
         json_number(served_fraction) + ',' + std::to_string(peak_machines);
  return out + ']';
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// ---------------------------------------------------------------------------
// Untraced sample.

int cmd_sample(const std::string& path, unsigned threads) {
  const auto t0 = Clock::now();
  const ScenarioSpec spec = bml::load_scenario(path);
  const double load_s = since(t0);
  const auto t_expand = Clock::now();
  const std::size_t scenarios = bml::expand_sweep(spec).size();
  const double expand_s = since(t_expand);
  bml::SweepOptions options;
  options.threads = threads;
  const bml::SweepReport report = bml::run_sweep(spec, options);
  const auto t_csv = Clock::now();
  const std::string csv = report.to_csv();
  const double csv_s = since(t_csv);
  const double wall_s = since(t0);

  double rows_wall = 0.0;
  double app_seconds = 0.0;
  for (const bml::SweepRow& row : report.rows) {
    rows_wall += row.wall_seconds;
    for (const bml::SweepAppRow& app : row.apps)
      app_seconds += static_cast<double>(app.active_seconds);
  }
  // A shared build runs inside run_sweep before any row starts; per-point
  // builds are part of each row's own wall time.
  const bool shared = report.builds == 1 && scenarios > 0;
  const double shared_build_s = shared ? report.wall_seconds - rows_wall : 0.0;

  std::string bad;
  for (const std::size_t i : conservation_failures(report))
    append_item(bad, std::to_string(i));
  std::string results;
  for (const bml::SweepRow& r : report.rows)
    append_item(results, row_values_json(r.total_energy, r.compute_energy,
                                         r.reconfiguration_energy,
                                         r.reconfigurations,
                                         r.qos_violation_seconds,
                                         r.served_fraction, r.peak_machines));
  std::printf(
      "{\"scenarios\":%zu,\"threads\":%u,\"builds\":%zu,"
      "\"build_reuses\":%zu,\"wall_s\":%s,"
      "\"setup_s\":%s,\"sweep_s\":%s,"
      "\"rows_wall_s\":%s,\"csv_s\":%s,\"app_seconds\":%s,"
      "\"peak_rss_kb\":%s,\"conservation_failures\":[%s],"
      "\"metrics_text\":%s,\"results\":[%s],%s}\n",
      report.rows.size(), report.threads, report.builds,
      report.build_cache_reuses,
      json_number(wall_s).c_str(),
      json_number(load_s + expand_s + shared_build_s).c_str(),
      json_number(report.wall_seconds).c_str(), json_number(rows_wall).c_str(),
      json_number(csv_s).c_str(), json_number(app_seconds).c_str(),
      json_number(peak_rss_kb()).c_str(), bad.c_str(),
      json_string(digest(report.metrics.to_text())).c_str(), results.c_str(),
      csv_digests_json(csv).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced sample: timing decorators over the public interfaces.

/// What timing one call costs. `inside` is the part of the two clock
/// reads that falls within the measured interval; `full` is the whole cost
/// as an enclosing measurement sees it. Both are removed from the layer
/// times, so that the split describes the program, not the timers.
struct TimerCost {
  double inside = 0.0;
  double full = 0.0;

  /// Medians over a few rounds of back-to-back empty measurements.
  static TimerCost calibrate() {
    constexpr int kRounds = 5;
    constexpr int kPairs = 20000;
    std::vector<double> inside(kRounds);
    std::vector<double> full(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      double measured = 0.0;
      const auto t0 = Clock::now();
      for (int i = 0; i < kPairs; ++i) measured += since(Clock::now());
      full[r] = since(t0) / kPairs;
      inside[r] = measured / kPairs;
    }
    std::sort(inside.begin(), inside.end());
    std::sort(full.begin(), full.end());
    return TimerCost{inside[kRounds / 2], full[kRounds / 2]};
  }
};

/// One in kSchedulerSample scheduler calls also times every predictor call
/// it makes. A fleet day makes about a million scheduler calls but tens of
/// millions of predictor calls of ~100 ns each, about as long as a clock
/// read: timing them all would add half again to the work measured, and
/// would serialise every call around its clock reads.
constexpr std::uint64_t kSchedulerSample = 16;

/// Host time of the decorated layers, timer cost removed. Every scheduler
/// call, every predictor call outside a scheduler call, and every
/// predictor's first call (its lazy cache build) is timed. Predictor time
/// inside the other scheduler calls is estimated: the sampled scheduler
/// calls give the share of scheduler time spent in predictor calls, and
/// that share is applied to all scheduler time. The traced replay is
/// single-threaded, so plain fields suffice.
struct LayerClock {
  enum Method { kPredict, kStableUntil };

  TimerCost cost = TimerCost::calibrate();
  /// Calls and time of one scheduler method.
  struct SchedMethod {
    std::uint64_t calls = 0;
    double s = 0.0;
  };

  std::uint64_t calls[2] = {0, 0};
  SchedMethod decide, sched_stable, sched_initial;
  /// First predictor calls, by method and in total inside scheduler calls.
  double first_s[2] = {0.0, 0.0};
  double first_in_sched_s = 0.0;
  /// Other predictor calls made outside any scheduler call.
  double outer_s[2] = {0.0, 0.0};
  /// Sampled scheduler calls: their time, and the first and other
  /// predictor time inside them.
  double sampled_sched_s = 0.0;
  double sampled_first_s = 0.0;
  double sampled_regular_s[2] = {0.0, 0.0};
  std::uint64_t timed_calls = 0;

  // State of the scheduler call in progress.
  bool in_sched = false;
  bool sampling = false;
  std::uint64_t call_nested_timed = 0;
  double call_first_s = 0.0;
  double call_regular_s[2] = {0.0, 0.0};

  template <class F>
  auto predictor_call(Method method, bool first, F&& call) {
    ++calls[method];
    if (!first && in_sched && !sampling) return call();
    const auto t0 = Clock::now();
    auto result = call();
    const double dt = since(t0) - cost.inside;
    ++timed_calls;
    if (in_sched) ++call_nested_timed;
    if (first) {
      first_s[method] += dt;
      if (in_sched) call_first_s += dt;
    } else {
      (in_sched ? call_regular_s : outer_s)[method] += dt;
    }
    return result;
  }

  template <class F>
  auto scheduler_call(SchedMethod& method, F&& call) {
    in_sched = true;
    sampling = method.calls++ % kSchedulerSample == 0;
    call_nested_timed = 0;
    call_first_s = 0.0;
    call_regular_s[kPredict] = call_regular_s[kStableUntil] = 0.0;
    struct Leave {
      bool& flag;
      ~Leave() { flag = false; }
    } leave{in_sched};
    const auto t0 = Clock::now();
    auto result = call();
    const double dt = since(t0) - cost.inside -
                      static_cast<double>(call_nested_timed) * cost.full;
    ++timed_calls;
    method.s += dt;
    first_in_sched_s += call_first_s;
    if (sampling) {
      sampled_sched_s += dt;
      sampled_first_s += call_first_s;
      sampled_regular_s[kPredict] += call_regular_s[kPredict];
      sampled_regular_s[kStableUntil] += call_regular_s[kStableUntil];
    }
    return result;
  }

  [[nodiscard]] double sched_s() const {
    return decide.s + sched_stable.s + sched_initial.s;
  }
  /// Estimated time of non-first predictor calls inside scheduler calls,
  /// by method.
  [[nodiscard]] double regular_in_sched_s(Method method) const {
    const double base = sampled_sched_s - sampled_first_s;
    if (!(base > 0.0)) return 0.0;
    return sampled_regular_s[method] / base * (sched_s() - first_in_sched_s);
  }
  [[nodiscard]] double predictor_s(Method method) const {
    return first_s[method] + outer_s[method] + regular_in_sched_s(method);
  }
  [[nodiscard]] double predictor_in_sched_s() const {
    return first_in_sched_s + regular_in_sched_s(kPredict) +
           regular_in_sched_s(kStableUntil);
  }
  [[nodiscard]] double predictor_s() const {
    return predictor_s(kPredict) + predictor_s(kStableUntil);
  }
};

class TimedPredictor final : public bml::Predictor {
 public:
  TimedPredictor(std::shared_ptr<bml::Predictor> inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  bml::ReqRate predict(const bml::LoadTrace& trace, bml::TimePoint now,
                       bml::Seconds horizon) override {
    return clock_.predictor_call(LayerClock::kPredict, take_first(), [&] {
      return inner_->predict(trace, now, horizon);
    });
  }
  bml::TimePoint stable_until(const bml::LoadTrace& trace, bml::TimePoint now,
                              bml::Seconds horizon) override {
    return clock_.predictor_call(LayerClock::kStableUntil, take_first(), [&] {
      return inner_->stable_until(trace, now, horizon);
    });
  }
  bool pure() const override { return inner_->pure(); }
  std::string name() const override { return inner_->name(); }

 private:
  bool take_first() { return std::exchange(first_, false); }

  std::shared_ptr<bml::Predictor> inner_;
  LayerClock& clock_;
  bool first_ = true;
};

class TimedScheduler final : public bml::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<bml::Scheduler> inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  std::optional<bml::Combination> decide(
      bml::TimePoint now, const bml::LoadTrace& trace,
      const bml::ClusterSnapshot& snapshot) override {
    return clock_.scheduler_call(
        clock_.decide, [&] { return inner_->decide(now, trace, snapshot); });
  }
  bml::Combination initial_combination(const bml::LoadTrace& trace) override {
    return clock_.scheduler_call(clock_.sched_initial, [&] {
      return inner_->initial_combination(trace);
    });
  }
  bml::TimePoint decision_stable_until(bml::TimePoint now,
                                       const bml::LoadTrace& trace) override {
    return clock_.scheduler_call(clock_.sched_stable, [&] {
      return inner_->decision_stable_until(now, trace);
    });
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<bml::Scheduler> inner_;
  LayerClock& clock_;
};

// ---------------------------------------------------------------------------
// Traced sample: the replay through the public calls.

/// Mirror of scenario/sweep.cpp app_seed: golden-ratio stepping off the
/// master seed, masked to 63 bits.
std::uint64_t app_seed(const ScenarioSpec& spec, std::size_t i) {
  return (spec.seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i)) &
         0x7FFF'FFFF'FFFF'FFFFULL;
}

/// Mirror of scenario/sweep.cpp effective_apps: the [app] sections (or the
/// classic top-level workload) with `replicas` stamped out, copies named
/// `<name>-<r>`.
std::vector<AppSpec> effective_apps(const ScenarioSpec& spec) {
  std::vector<AppSpec> raw;
  if (!spec.apps.empty()) {
    raw = spec.apps;
  } else {
    AppSpec app;
    app.trace = spec.trace;
    app.trace_params = spec.trace_params;
    app.scheduler = spec.scheduler;
    app.scheduler_params = spec.scheduler_params;
    app.predictor = spec.predictor;
    app.predictor_params = spec.predictor_params;
    app.qos = spec.qos;
    app.slo_availability = spec.slo_availability;
    app.slo_spare = spec.slo_spare;
    app.priority = spec.priority;
    raw.push_back(std::move(app));
  }
  std::vector<AppSpec> out;
  for (const AppSpec& app : raw) {
    if (app.replicas == 1) {
      out.push_back(app);
      continue;
    }
    for (int r = 0; r < app.replicas; ++r) {
      AppSpec copy = app;
      copy.replicas = 1;
      if (!copy.name.empty()) {
        copy.name += '-';
        copy.name += std::to_string(r);
      }
      out.push_back(std::move(copy));
    }
  }
  return out;
}

/// The registry's build-sharing rule: an axis naming a catalog, design,
/// seed or trace input forces per-point builds.
bool axis_blocks_shared_build(std::string_view key) {
  if (key == "catalog" || key.starts_with("catalog.") ||
      key.starts_with("design.") || key == "seed")
    return true;
  if (key.starts_with("app")) {
    std::size_t pos = 3;
    while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') ++pos;
    if (pos > 3 && pos < key.size() && key[pos] == '.')
      key.remove_prefix(pos + 1);
  }
  return key == "trace" || key.starts_with("trace.");
}

/// Layer totals of one traced sample (summed over builds and scenarios).
struct LayerTotals {
  double load_s = 0.0;
  double expand_s = 0.0;
  double catalog_s = 0.0;
  double trace_s = 0.0;
  double dedup_s = 0.0;
  std::uint64_t trace_calls = 0;
  std::uint64_t trace_samples = 0;
  std::uint64_t trace_distinct = 0;
  double trace_bytes = 0.0;  // largest single build
  double compile_s = 0.0;
  std::uint64_t compile_runs = 0;
  double compiled_bytes = 0.0;  // largest single build
  double design_s = 0.0;
  double plan_s = 0.0;
  std::uint64_t threshold_buckets = 0;
  std::uint64_t builds = 0;
  double run_s = 0.0;
};

/// The shared immutable artifacts of a grid point, built through the public
/// factories with each phase timed.
struct TracedBuild {
  TracedBuild(const ScenarioSpec& spec, LayerTotals& t) {
    ++t.builds;
    auto t0 = Clock::now();
    catalog = bml::make_catalog(spec.catalog, spec.catalog_params);
    t.catalog_s += since(t0);

    // Identical traces are materialised and compiled once, as the sweep
    // build does (exact sample equality; the FNV hash only shortlists).
    const std::vector<AppSpec> apps = effective_apps(spec);
    own_traces.reserve(apps.size());
    own_compiled.reserve(apps.size());
    traces.resize(apps.size());
    compiled.resize(apps.size());
    std::map<std::uint64_t, std::vector<std::size_t>> by_hash;
    double trace_bytes = 0.0;
    double compiled_bytes = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      t0 = Clock::now();
      bml::LoadTrace trace = bml::make_trace(
          apps[i].trace, apps[i].trace_params, app_seed(spec, i));
      t.trace_s += since(t0);
      ++t.trace_calls;
      t.trace_samples += trace.size();
      t0 = Clock::now();
      const std::span<const double> v = trace.series().values();
      std::uint64_t h =
          1469598103934665603ULL ^ static_cast<std::uint64_t>(v.size());
      for (const double x : v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        h = (h ^ bits) * 1099511628211ULL;
      }
      std::size_t found = apps.size();
      for (const std::size_t j : by_hash[h]) {
        const std::span<const double> w = own_traces[j].series().values();
        if (w.size() == v.size() && std::equal(v.begin(), v.end(), w.begin())) {
          found = j;
          break;
        }
      }
      t.dedup_s += since(t0);
      if (found == apps.size()) {
        trace_bytes += static_cast<double>(
            v.size() * sizeof(double) +
            trace.change_points().size() * sizeof(std::size_t));
        own_traces.push_back(std::move(trace));
        t0 = Clock::now();
        own_compiled.emplace_back(own_traces.back());
        t.compile_s += since(t0);
        ++t.compile_runs;
        compiled_bytes += static_cast<double>(
            own_compiled.back().segment_count() *
            (sizeof(std::uint32_t) + sizeof(bml::ReqRate)));
        found = own_traces.size() - 1;
        by_hash[h].push_back(found);
      }
      traces[i] = &own_traces[found];
      compiled[i] = &own_compiled[found];
    }
    t.trace_distinct += own_traces.size();
    t.trace_bytes = std::max(t.trace_bytes, trace_bytes);
    t.compiled_bytes = std::max(t.compiled_bytes, compiled_bytes);

    // Design sizing (the aggregate trace peak) counts as design time.
    t0 = Clock::now();
    bml::BmlDesignOptions design_options;
    if (spec.design_max_rate == "trace-peak") {
      const bml::ReqRate peak = traces.size() == 1
                                    ? traces.front()->peak()
                                    : bml::combined_trace(traces).peak();
      design_options.max_rate = std::max(peak, 1.0);
    } else if (spec.design_max_rate != "default") {
      design_options.max_rate = bml::parse_double(spec.design_max_rate);
    }
    design_options.solver = spec.design_solver == "exact-dp"
                                ? bml::SolverKind::kExactDp
                                : bml::SolverKind::kGreedyThreshold;
    design = std::make_shared<bml::BmlDesign>(
        bml::BmlDesign::build(catalog, design_options));
    t.design_s += since(t0);
    if (const bml::DecisionThresholds* dt = design->decision_thresholds())
      t.threshold_buckets += dt->bucket_count();

    t0 = Clock::now();
    plan = std::make_shared<bml::DispatchPlan>(design->candidates());
    t.plan_s += since(t0);
  }
  TracedBuild(const TracedBuild&) = delete;
  TracedBuild& operator=(const TracedBuild&) = delete;

  bml::Catalog catalog;
  std::vector<bml::LoadTrace> own_traces;
  std::vector<bml::CompiledTrace> own_compiled;
  std::vector<const bml::LoadTrace*> traces;
  std::vector<const bml::CompiledTrace*> compiled;
  std::shared_ptr<const bml::BmlDesign> design;
  std::shared_ptr<const bml::DispatchPlan> plan;
};

/// Replays one grid point over `build`, every predictor and scheduler
/// wrapped in a timing decorator.
bml::MultiSimulationResult replay(const ScenarioSpec& spec,
                                  const TracedBuild& build, LayerClock& clock,
                                  LayerTotals& t) {
  const std::vector<AppSpec> apps = effective_apps(spec);
  std::vector<std::string> names(apps.size());
  std::vector<bml::QosClass> qos(apps.size());
  std::vector<std::unique_ptr<bml::Scheduler>> schedulers;
  schedulers.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    names[i] = apps[i].name.empty() ? std::string("app") + std::to_string(i)
                                    : apps[i].name;
    qos[i] = bml::parse_qos_class(apps[i].qos);
    auto predictor = std::make_shared<TimedPredictor>(
        bml::make_predictor(apps[i].predictor, apps[i].predictor_params,
                            app_seed(spec, i)),
        clock);
    schedulers.push_back(std::make_unique<TimedScheduler>(
        bml::make_scheduler(apps[i].scheduler, apps[i].scheduler_params,
                            build.design, std::move(predictor), qos[i]),
        clock));
  }

  bml::SimulatorOptions options;
  options.graceful_off = spec.graceful_off;
  options.event_driven = spec.event_driven;
  options.coordinator = bml::parse_coordinator_mode(spec.coordinator);
  options.coordinator_budget = spec.coordinator_budget == "design-max"
                                   ? build.design->max_rate()
                                   : bml::parse_double(spec.coordinator_budget);
  options.faults.boot_time_jitter = spec.boot_time_jitter;
  options.faults.boot_failure_prob = spec.boot_failure_prob;
  options.faults.mtbf = spec.fault_mtbf;
  options.faults.mttr = spec.fault_mttr;
  options.faults.groups = spec.fault_groups;
  options.faults.group_mtbf = spec.fault_group_mtbf;
  options.faults.group_mttr = spec.fault_group_mttr;
  options.faults.crews = spec.fault_crews;
  options.faults.seed = spec.fault_seed >= 0
                            ? static_cast<std::uint64_t>(spec.fault_seed)
                            : spec.seed;
  options.slo_window = spec.slo_window;
  options.degrade.overload_factor = spec.degrade_overload_factor;
  options.degrade.penalty = spec.degrade_penalty;
  options.collect_metrics = spec.obs_metrics;

  const bml::Simulator simulator(build.design->candidates(), build.plan,
                                 options);
  std::vector<bml::Simulator::WorkloadView> views;
  views.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    bml::Simulator::WorkloadView view{
        &names[i],         build.traces[i], schedulers[i].get(), qos[i],
        apps[i].share,     build.compiled[i], &apps[i].fault_domain};
    view.slo_availability = apps[i].slo_availability;
    view.slo_spare = apps[i].slo_spare;
    view.priority = apps[i].priority;
    view.arrive = apps[i].arrive;
    view.depart = apps[i].depart;
    views.push_back(view);
  }
  const auto t0 = Clock::now();
  bml::MultiSimulationResult result = simulator.run(views);
  t.run_s += since(t0);
  return result;
}

int cmd_traced(const std::string& path) {
  LayerTotals t;
  LayerClock c;
  const auto t0 = Clock::now();
  const ScenarioSpec spec = bml::load_scenario(path);
  t.load_s = since(t0);
  if (spec.churn_interarrival > 0.0 || spec.churn_lifetime > 0.0)
    throw std::runtime_error(
        "traced mode does not mirror the churn.* generator; write explicit "
        "arrive/depart keys instead");
  if (!spec.obs_metrics)
    throw std::runtime_error("traced mode needs a spec with obs.metrics");
  const auto t_expand = Clock::now();
  const std::vector<ScenarioSpec> points = bml::expand_sweep(spec);
  t.expand_s = since(t_expand);

  bool shareable = true;
  for (const bml::SweepAxis& axis : spec.sweeps)
    if (axis_blocks_shared_build(axis.key)) shareable = false;
  std::optional<TracedBuild> shared;
  if (shareable && !points.empty()) shared.emplace(spec, t);
  std::vector<bml::SimulationResult> rows;
  for (const ScenarioSpec& point : points) {
    std::optional<TracedBuild> own;
    if (!shared) own.emplace(point, t);
    rows.push_back(replay(point, shared ? *shared : *own, c, t).total);
  }
  const std::size_t build_reuses =
      shareable && !points.empty() ? points.size() - 1 : 0;
  const double wall_s = since(t0);

  // The sweep-level metrics text, assembled as run_sweep assembles it.
  bml::SimMetrics merged;
  for (const bml::SimulationResult& row : rows) merged.merge(row.metrics);
  bml::MetricsRegistry registry;
  merged.export_to(registry);
  registry.add_counter("sweep.scenarios", rows.size());
  registry.add_counter("sweep.build_cache.hits", build_reuses);
  registry.add_counter("sweep.build_cache.misses", t.builds);
  std::string mismatches;
  if (c.decide.calls != merged.scheduler_consults)
    append_item(mismatches,
                json_string("decide calls differ from sim.scheduler_consults"));

  const double sched_self = c.sched_s() - c.predictor_in_sched_s();
  const double predict_total = c.predictor_s();
  const double sim_self = t.run_s - c.sched_s() -
                          (predict_total - c.predictor_in_sched_s()) -
                          static_cast<double>(c.timed_calls) * c.cost.full;
  const double layer_self = t.load_s + t.expand_s + t.catalog_s + t.trace_s +
                            t.dedup_s + t.compile_s + t.design_s + t.plan_s +
                            predict_total + sched_self + sim_self;

  std::vector<std::pair<std::string, double>> m = {
      {"scenario.load_s", t.load_s},
      {"scenario.expand_s", t.expand_s},
      {"trace.generate_s", t.trace_s},
      {"trace.dedup_s", t.dedup_s},
      {"trace.calls", static_cast<double>(t.trace_calls)},
      {"trace.samples", static_cast<double>(t.trace_samples)},
      {"trace.distinct", static_cast<double>(t.trace_distinct)},
      {"mem.trace_bytes", t.trace_bytes},
      {"compile.s", t.compile_s},
      {"compile.runs", static_cast<double>(t.compile_runs)},
      {"mem.compiled_bytes", t.compiled_bytes},
      {"core.catalog_s", t.catalog_s},
      {"core.design_s", t.design_s},
      {"core.plan_s", t.plan_s},
      {"core.threshold_buckets", static_cast<double>(t.threshold_buckets)},
      {"predict.calls", static_cast<double>(c.calls[LayerClock::kPredict])},
      {"predict.s", c.predictor_s(LayerClock::kPredict)},
      {"predict.stable_until_calls",
       static_cast<double>(c.calls[LayerClock::kStableUntil])},
      {"predict.stable_until_s", c.predictor_s(LayerClock::kStableUntil)},
      {"predict.first_call_s",
       c.first_s[LayerClock::kPredict] + c.first_s[LayerClock::kStableUntil]},
      {"sched.decide_calls", static_cast<double>(c.decide.calls)},
      {"sched.decide_s", c.decide.s},
      {"sched.stable_until_calls", static_cast<double>(c.sched_stable.calls)},
      {"sched.stable_until_s", c.sched_stable.s},
      {"sched.self_s", sched_self},
      {"sched.consults_per_applied",
       merged.decisions_applied > 0
           ? static_cast<double>(c.decide.calls) /
                 static_cast<double>(merged.decisions_applied)
           : 0.0},
      {"sim.run_s", t.run_s},
      {"sim.self_s", sim_self},
      {"sim.self_us_per_span",
       merged.spans > 0 ? 1e6 * sim_self / static_cast<double>(merged.spans)
                        : 0.0},
      {"sim.spans", static_cast<double>(merged.spans)},
      {"sim.decisions_applied", static_cast<double>(merged.decisions_applied)},
      {"sim.merge_frontier_advances",
       static_cast<double>(merged.merge_frontier_advances)},
      {"sim.preemptions", static_cast<double>(merged.preemptions)},
      {"sim.apps_active", static_cast<double>(merged.apps_active_max)},
      {"bench.unattributed_s", wall_s - layer_self},
  };
  for (std::size_t i = 0; i < bml::kSpanEndCauseCount; ++i)
    m.emplace_back(std::string("sim.span_end.") +
                       bml::to_string(static_cast<bml::SpanEndCause>(i)),
                   static_cast<double>(merged.span_end_causes[i]));

  std::string layers;
  for (const auto& [name, value] : m)
    append_item(layers, json_string(name) + ':' + json_number(value));
  std::string results;
  for (const bml::SimulationResult& r : rows)
    append_item(results,
                row_values_json(r.total_energy(), r.compute_energy,
                                r.reconfiguration_energy, r.reconfigurations,
                                r.qos.violation_seconds,
                                r.qos.served_fraction(), r.peak_machines));
  std::printf(
      "{\"scenarios\":%zu,\"builds\":%zu,\"build_reuses\":%zu,"
      "\"wall_s\":%s,\"mismatches\":[%s],\"metrics_text\":%s,"
      "\"results\":[%s],\"layers\":{%s}}\n",
      rows.size(), static_cast<std::size_t>(t.builds), build_reuses,
      json_number(wall_s).c_str(), mismatches.c_str(),
      json_string(digest(registry.to_text())).c_str(), results.c_str(),
      layers.c_str());
  return 0;
}

unsigned parse_threads(const char* text) {
  const std::int64_t n = bml::parse_int(text);
  if (n < 1 || n > 64)
    throw std::runtime_error("threads must be in [1, 64], got " +
                             std::string(text));
  return static_cast<unsigned>(n);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "sample" && argc == 4)
      return cmd_sample(argv[2], parse_threads(argv[3]));
    if (mode == "traced" && argc == 3) return cmd_traced(argv[2]);
  } catch (const std::exception& e) {
    std::printf("{\"error\":%s}\n", json_string(e.what()).c_str());
    return 1;
  }
  std::fprintf(stderr,
               "usage: %s sample <spec.scn> <threads>\n"
               "       %s traced <spec.scn>\n",
               argv[0], argv[0]);
  return 2;
}
