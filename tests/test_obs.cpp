// Tests for obs/: histogram bucket edges, deterministic registry
// rendering, the simulator's span-cause accounting, thread-count
// independence of sweep metrics, CSV byte-identity with observability on
// or off, and the pinned golden Chrome trace-event export.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/trace_export.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"

namespace bml {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // exactly on a bound lands in that bound's bucket
  h.observe(1.0000001);  // just past a bound falls to the next bucket
  h.observe(2.0);   // <= 2
  h.observe(4.0);   // <= 4 (last finite bucket, inclusive)
  h.observe(4.0000001);  // overflow
  h.observe(-3.0);  // below everything still lands in the first bucket

  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 3u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total_count(), 7u);
}

TEST(Histogram, RejectsEmptyOrNonIncreasingBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(Histogram, UnconfiguredDropsObservations) {
  Histogram h;
  EXPECT_FALSE(h.configured());
  h.observe(1.0);
  EXPECT_EQ(h.total_count(), 0u);
}

TEST(Histogram, MergeAddsAdoptsAndRejectsMismatches) {
  Histogram a(std::vector<double>{1.0, 2.0});
  a.observe(0.5);
  Histogram b(std::vector<double>{1.0, 2.0});
  b.observe(1.5);
  b.observe(5.0);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 3u);
  EXPECT_EQ(a.counts()[1], 1u);
  EXPECT_EQ(a.counts()[2], 1u);

  // Merging into an unconfigured histogram adopts the source's bounds;
  // merging an unconfigured source is a no-op.
  Histogram empty;
  empty.merge(a);
  EXPECT_EQ(empty.upper_bounds(), a.upper_bounds());
  EXPECT_EQ(empty.total_count(), 3u);
  a.merge(Histogram{});
  EXPECT_EQ(a.total_count(), 3u);

  Histogram other(std::vector<double>{1.0, 3.0});
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(Histogram, ExponentialLadderCoversADayOfSpanSeconds) {
  const Histogram h = Histogram::exponential(1.0, 2.0, 18);
  ASSERT_EQ(h.upper_bounds().size(), 18u);
  EXPECT_DOUBLE_EQ(h.upper_bounds().front(), 1.0);
  // The span-length ladder must reach past 86400 s so a whole quiet day
  // never lands in the overflow bucket.
  EXPECT_GT(h.upper_bounds().back(), 86400.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, RendersSortedDeterministicText) {
  MetricsRegistry r;
  r.add_counter("zeta", 2);
  r.add_counter("alpha", 1);
  r.add_counter("alpha", 4);
  r.max_gauge("gauge", 1.5);
  r.max_gauge("gauge", 0.5);  // max keeps 1.5
  Histogram h(std::vector<double>{1.0, 2.0});
  h.observe(1.0);
  r.merge_histogram("hist", h);

  EXPECT_EQ(r.counter("alpha"), 5u);
  EXPECT_EQ(r.counter("absent"), 0u);
  const std::string text = r.to_text();
  EXPECT_EQ(text,
            "alpha 5\n"
            "zeta 2\n"
            "gauge 1.5\n"
            "hist count=1 mean=1 le1:1\n");

  // Merging the same shards in the same order is associative on the text.
  MetricsRegistry copy;
  copy.merge(r);
  EXPECT_EQ(copy.to_text(), text);
}

TEST(SpanEndCause, NamesAreStable) {
  EXPECT_STREQ(to_string(SpanEndCause::kSchedulerStable), "scheduler-stable");
  EXPECT_STREQ(to_string(SpanEndCause::kTraceChange), "trace-change");
  EXPECT_STREQ(to_string(SpanEndCause::kTransitionComplete),
               "transition-complete");
  EXPECT_STREQ(to_string(SpanEndCause::kFault), "fault");
  EXPECT_STREQ(to_string(SpanEndCause::kCrewCompletion), "crew-completion");
  EXPECT_STREQ(to_string(SpanEndCause::kSloCrossing), "slo-crossing");
  EXPECT_STREQ(to_string(SpanEndCause::kDayBoundary), "day-boundary");
  EXPECT_STREQ(to_string(SpanEndCause::kTraceEnd), "trace-end");
}

// ---------------------------------------------------------------------------
// Simulator instrumentation through the scenario engine

constexpr const char* kTinySpec = R"(name = tiny
catalog = illustrative
trace = step
trace.segments = 120:300;4000:300
scheduler = bml
predictor = oracle-max
seed = 7
)";

TEST(SimMetrics, SpanEndCausesSumToSpans) {
  ScenarioSpec spec = parse_scenario(kTinySpec);
  spec.obs_metrics = true;
  const ScenarioResult result = run_scenario(spec);
  const SimMetrics& m = result.sim.metrics;
  ASSERT_TRUE(m.enabled);
  EXPECT_GT(m.spans, 0u);
  EXPECT_EQ(m.ticks, 0u);  // event-driven path
  const std::uint64_t cause_sum = std::accumulate(
      m.span_end_causes.begin(), m.span_end_causes.end(), std::uint64_t{0});
  EXPECT_EQ(cause_sum, m.spans);
  EXPECT_EQ(m.span_seconds.total_count(), m.spans);
  EXPECT_GT(m.scheduler_consults, 0u);
  // The tiny step forces exactly one reconfiguration.
  EXPECT_EQ(m.decisions_applied, 1u);
  EXPECT_EQ(m.span_end_causes[static_cast<std::size_t>(
                SpanEndCause::kTraceEnd)],
            1u);
}

TEST(SimMetrics, MetricsCollectionDoesNotChangeResults) {
  const ScenarioSpec off = parse_scenario(kTinySpec);
  ScenarioSpec on = off;
  on.obs_metrics = true;
  const ScenarioResult a = run_scenario(off);
  const ScenarioResult b = run_scenario(on);
  EXPECT_EQ(a.sim.compute_energy, b.sim.compute_energy);
  EXPECT_EQ(a.sim.reconfiguration_energy, b.sim.reconfiguration_energy);
  EXPECT_EQ(a.sim.reconfigurations, b.sim.reconfigurations);
  EXPECT_FALSE(a.sim.metrics.enabled);
}

// Four effective apps (3 replicas + 1) put the event-driven path in
// fleet mode: the fused k-way merge is active and the consult cache
// carries unexpired bounds across spans.
constexpr const char* kFleetSpec = R"(name = fleet
catalog = illustrative
seed = 7
[app]
name = a
replicas = 3
trace = step
trace.segments = 120:300;2000:300
scheduler = bml
predictor = oracle-max
[app]
name = b
trace = constant
trace.rate = 400
trace.duration = 600
scheduler = reactive
)";

TEST(SimMetrics, FleetModeKeepsCauseSumAndCountsMergeWork) {
  ScenarioSpec spec = parse_scenario(kFleetSpec);
  spec.obs_metrics = true;
  const ScenarioResult result = run_scenario(spec);
  const SimMetrics& m = result.sim.metrics;
  ASSERT_TRUE(m.enabled);
  EXPECT_GT(m.spans, 0u);
  EXPECT_EQ(m.ticks, 0u);
  // The span-cause ledger must stay exact through the fused merge: every
  // span names exactly one ending cause.
  const std::uint64_t cause_sum = std::accumulate(
      m.span_end_causes.begin(), m.span_end_causes.end(), std::uint64_t{0});
  EXPECT_EQ(cause_sum, m.spans);
  EXPECT_EQ(m.span_seconds.total_count(), m.spans);
  EXPECT_EQ(m.merge_apps_max, 4u);
  // Every span seeds one frontier cursor per app before consuming runs.
  EXPECT_GE(m.merge_frontier_advances, m.spans * 4);
}

TEST(SimMetrics, ConsultCadenceIsPinnedOnBothSidesOfTheFleetThreshold) {
  // Exact consult and span counts, so a change to the consult cache (its
  // invalidation sites or the app count where it starts to carry bounds
  // across spans) shows up as a counter change rather than only as an
  // equivalence-preserving speed change.
  const auto metrics = [](ScenarioSpec spec) {
    spec.obs_metrics = true;
    return run_scenario(spec).sim.metrics;
  };
  // 4 apps: the cache carries unexpired bounds across spans.
  const ScenarioSpec fleet = parse_scenario(kFleetSpec);
  const SimMetrics four = metrics(fleet);
  EXPECT_EQ(four.scheduler_consults, 11u);
  EXPECT_EQ(four.spans, 5u);
  // 3 apps: every span starts with an empty cache, the reference cadence.
  ScenarioSpec small = fleet;
  small.apps[0].replicas = 2;
  const SimMetrics three = metrics(small);
  EXPECT_EQ(three.scheduler_consults, 9u);
  EXPECT_EQ(three.spans, 5u);
  // The per-second reference consults every app at every second that has
  // no reconfiguration in flight: 3 apps x 466 of the 600 seconds.
  small.event_driven = false;
  const SimMetrics reference = metrics(small);
  EXPECT_EQ(reference.scheduler_consults, 1398u);
  EXPECT_EQ(reference.ticks, 600u);
}

TEST(SimMetrics, MergeCountersExportUnderSimMergeNames) {
  ScenarioSpec spec = parse_scenario(kFleetSpec);
  spec.obs_metrics = true;
  const ScenarioResult result = run_scenario(spec);
  MetricsRegistry registry;
  result.sim.metrics.export_to(registry);
  EXPECT_EQ(registry.counter("sim.merge.frontier_advances"),
            result.sim.metrics.merge_frontier_advances);
  EXPECT_NE(registry.to_text().find("sim.merge.apps_max 4"),
            std::string::npos);
}

constexpr const char* kSweepSpec = R"(name = grid
catalog = illustrative
trace = step
trace.segments = 120:300;4000:300
scheduler = bml
predictor = oracle-max
seed = 7
sweep scheduler.window = 400,800
sweep predictor = oracle-max,moving-max
)";

TEST(SweepMetrics, TextIsIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = parse_scenario(kSweepSpec);
  spec.obs_metrics = true;
  SweepOptions one;
  one.threads = 1;
  SweepOptions four;
  four.threads = 4;
  const SweepReport a = run_sweep(spec, one);
  const SweepReport b = run_sweep(spec, four);
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics.to_text(), b.metrics.to_text());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.metrics.counter("sweep.scenarios"), 4u);
  // scheduler.window / predictor axes are runtime components — the build
  // stays shared, so the cache takes every grid point but the first.
  EXPECT_EQ(a.metrics.counter("sweep.build_cache.hits"), 3u);
  EXPECT_EQ(a.metrics.counter("sweep.build_cache.misses"), 1u);
}

TEST(SweepMetrics, CsvIsByteIdenticalWithObservabilityOnOrOff) {
  const ScenarioSpec off = parse_scenario(kSweepSpec);
  ScenarioSpec on = off;
  on.obs_metrics = true;
  const SweepReport a = run_sweep(off, {});
  const SweepReport b = run_sweep(on, {});
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_TRUE(a.metrics.empty());
  EXPECT_FALSE(b.metrics.empty());
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

TEST(TraceExport, GoldenTimelineJson) {
  ScenarioSpec spec = parse_scenario(kTinySpec);
  spec.obs_trace = true;
  spec.obs_sample = 120;
  const ScenarioResult result = run_scenario(spec);
  // Pinned output of this exact scenario: 5 counter samples at 120 s, one
  // reconfiguration rendered as a ph:"X" duration, three boot-complete
  // instants. Regenerate with
  //   bmlsim run <tiny.scn> --trace-out out.json --trace-sample 120
  // if the exporter's format deliberately changes.
  const std::string golden = R"({"displayTimeUnit":"ms",
"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"bmlsim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"events"}},
{"name":"machines on","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":4}},
{"name":"machines booting","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":0,"pid":1,"args":{"offered":120,"served":120}},
{"name":"slo spares","ph":"C","ts":0,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":4}},
{"name":"machines booting","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":120000000,"pid":1,"args":{"offered":120,"served":120}},
{"name":"slo spares","ph":"C","ts":120000000,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines booting","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":240000000,"pid":1,"args":{"offered":120,"served":120}},
{"name":"slo spares","ph":"C","ts":240000000,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines booting","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":360000000,"pid":1,"args":{"offered":4000,"served":4000}},
{"name":"slo spares","ph":"C","ts":360000000,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines booting","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":480000000,"pid":1,"args":{"offered":4000,"served":4000}},
{"name":"slo spares","ph":"C","ts":480000000,"pid":1,"args":{"machines":0}},
{"name":"boot-complete","ph":"i","ts":120000000,"pid":1,"tid":1,"s":"g","args":{"detail":"1 transitions"}},
{"name":"boot-complete","ph":"i","ts":180000000,"pid":1,"tid":1,"s":"g","args":{"detail":"6 transitions"}},
{"name":"boot-complete","ph":"i","ts":195000000,"pid":1,"tid":1,"s":"g","args":{"detail":"4 transitions"}},
{"name":"reconfiguration","ph":"X","ts":61000000,"dur":135000000,"pid":1,"tid":1,"args":{"target":"6xarch-A + 1xarch-B"}}
]}
)";
  EXPECT_EQ(chrome_trace_json(result.sim.timeline), golden);
}

TEST(TraceExport, EventCountsExportOnlyRecordedKinds) {
  ScenarioSpec spec = parse_scenario(kTinySpec);
  spec.obs_trace = true;
  const ScenarioResult result = run_scenario(spec);
  MetricsRegistry registry;
  export_event_counts(result.sim.events, registry);
  EXPECT_EQ(registry.counter("events.total"), result.sim.events.total());
  EXPECT_GT(registry.counter("events.boot-complete"), 0u);
  EXPECT_EQ(registry.counter("events.qos-violation"), 0u);
}

TEST(TraceExport, TimelineRecordingPreservesSimulationResults) {
  const ScenarioSpec off = parse_scenario(kTinySpec);
  ScenarioSpec on = off;
  on.obs_trace = true;
  const ScenarioResult a = run_scenario(off);
  const ScenarioResult b = run_scenario(on);
  // Recording replays on the per-second reference path; the equivalence
  // contract keeps integer counters exact and energies within 1e-9.
  EXPECT_EQ(a.sim.reconfigurations, b.sim.reconfigurations);
  EXPECT_EQ(a.sim.qos.violation_seconds, b.sim.qos.violation_seconds);
  EXPECT_NEAR(a.sim.compute_energy, b.sim.compute_energy, 1e-9);
}

TEST(TraceExport, RejectsZeroSamplePeriod) {
  EXPECT_THROW(parse_scenario(std::string(kTinySpec) + "obs.sample = 0\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace bml
