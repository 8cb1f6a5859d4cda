#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "sim/fault_timeline.hpp"
#include "util/logging.hpp"

namespace bml {

std::vector<Joules> SimulationResult::per_day_total() const {
  std::vector<Joules> out(per_day_compute.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = per_day_compute[i];
    if (i < per_day_reconfiguration.size())
      out[i] += per_day_reconfiguration[i];
  }
  return out;
}

Simulator::Simulator(Catalog candidates, SimulatorOptions options)
    : candidates_(std::move(candidates)), options_(options) {
  if (candidates_.empty())
    throw std::invalid_argument("Simulator: empty candidate catalog");
  plan_ = std::make_shared<DispatchPlan>(candidates_);
}

Simulator::Simulator(Catalog candidates,
                     std::shared_ptr<const DispatchPlan> plan,
                     SimulatorOptions options)
    : candidates_(std::move(candidates)),
      plan_(std::move(plan)),
      options_(options) {
  if (candidates_.empty())
    throw std::invalid_argument("Simulator: empty candidate catalog");
  if (!plan_ || plan_->arch_kinds() != candidates_.size())
    throw std::invalid_argument("Simulator: plan does not match catalog");
}

SimulationResult Simulator::run(Scheduler& scheduler,
                                const LoadTrace& trace) const {
  static const std::string kSingleAppName = "app";
  const std::vector<WorkloadView> views{WorkloadView{
      &kSingleAppName, &trace, &scheduler, QosClass::kTolerant, 1.0}};
  MultiSimulationResult multi = run_views(views);
  return std::move(multi.total);
}

MultiSimulationResult Simulator::run(std::vector<Workload>& workloads) const {
  if (workloads.empty())
    throw std::invalid_argument("Simulator: no workloads");
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (Workload& w : workloads) {
    if (!w.scheduler)
      throw std::invalid_argument("Simulator: workload '" + w.name +
                                  "' has no scheduler");
    WorkloadView v{&w.name, &w.trace, w.scheduler.get(), w.qos,
                   w.share,  nullptr,  &w.fault_domain};
    v.slo_availability = w.slo_availability;
    v.slo_spare = w.slo_spare;
    v.priority = w.priority;
    v.arrive = w.arrive;
    v.depart = w.depart;
    views.push_back(v);
  }
  return run_views(views);
}

MultiSimulationResult Simulator::run(
    const std::vector<WorkloadView>& views) const {
  if (views.empty()) throw std::invalid_argument("Simulator: no workloads");
  for (const WorkloadView& v : views)
    if (!v.name || !v.trace || !v.scheduler)
      throw std::invalid_argument("Simulator: null workload view field");
  return run_views(views);
}

MultiSimulationResult Simulator::run_views(
    const std::vector<WorkloadView>& views) const {
  // Event logs and timeline recordings are inherently per-second
  // artifacts; everything else goes through the event-driven path.
  if (options_.event_driven && !options_.record_events &&
      !options_.record_timeline)
    return run_event_driven(views);
  return run_per_second(views);
}

namespace {

/// The consult cache: `Run::consult_until[i]` holds app i's last
/// decision_stable_until, and consult_and_apply only calls decide() on
/// apps whose entry is <= now. Only the event-driven loop fills entries
/// (the per-second reference leaves them at -1, so it consults every
/// active app every second), and every change to the cluster underneath
/// the schedulers empties the cache (invalidate_consults). Runs with fewer
/// than kFleetModeApps apps also empty it at every span start, which keeps
/// the small-k runs — every example spec but the fleet ones — on the
/// reference's exact consult cadence, so their outputs stay bit-for-bit
/// unchanged. From kFleetModeApps apps on, an unexpired (conservative)
/// entry is reused across spans: extra span boundaries for O(changed apps)
/// consult work, inside the 1e-9 equivalence contract.
constexpr std::size_t kFleetModeApps = 4;

/// Reconfiguration bookkeeping shared by both execution strategies; the
/// helpers below are the single copy of the decision and settle logic, so
/// the per-second reference and the event-driven fast path cannot drift
/// apart.
struct ReconfigState {
  Combination current_target;
  bool reconfiguring = false;
  TimePoint started = 0;
  std::vector<int> deferred_offs;
};

/// Runtime-fault state of one run: the event timeline plus per-domain
/// bookkeeping. Present only when FaultModel::runtime_active(). All of it
/// is driven by the shared apply/account helpers, so the per-second
/// reference and the event-driven fast path see the exact same failure
/// history.
struct FaultRun {
  FaultTimeline timeline;
  /// Workload index -> fault-domain index (views sharing a
  /// WorkloadView::fault_domain name share an index; unnamed views get
  /// private domains).
  std::vector<std::size_t> domain_of;
  std::size_t domains = 0;
  /// Currently failed machines per [domain][arch], and integer per-domain
  /// / cluster totals — downtime gating keys off these counts, never off
  /// the capacity doubles (whose incremental sums can retain a rounding
  /// residue after every machine is repaired).
  std::vector<std::vector<int>> failed;
  std::vector<int> failed_machines;
  int total_failed_machines = 0;
  /// Serving capacity currently down per domain (req/s) and its total;
  /// snapped back to exactly 0 whenever the matching count reaches 0.
  std::vector<ReqRate> failed_capacity;
  ReqRate total_failed_capacity = 0.0;
  /// Accounting integrals, per domain and cluster-wide (the cluster-wide
  /// downtime is the union over domains, not the sum).
  std::vector<TimePoint> unavailable_seconds;
  std::vector<double> lost_capacity;
  std::vector<int> failures;
  TimePoint total_unavailable = 0;
  double total_lost = 0.0;
  int total_failures = 0;
  /// Correlated-strike topology: racks per domain (0 = channel off) and
  /// the count of rack strikes that felled at least one machine.
  int groups = 0;
  int group_strikes = 0;
  /// Per-domain outage history for the SLO trailing windows: closed
  /// intervals [start, end) of past whole-domain downtime (pruned once
  /// they leave every window), plus the start of the running outage (-1
  /// while the domain is fully up). "Down" means >= 1 machine failed —
  /// the same predicate unavailable_seconds integrates.
  struct Outage {
    TimePoint start;
    TimePoint end;
  };
  std::vector<std::vector<Outage>> outages;
  std::vector<TimePoint> down_since;
  /// Degraded-mode accounting per domain (sized only when the degrade
  /// model is enabled): seconds the cluster ran overloaded while any of
  /// the domain's apps offered load, and the domain's apps' summed share
  /// of penalty-lost capacity (req·s).
  std::vector<std::int64_t> overload_seconds;
  std::vector<double> penalty_lost;
};

/// Mutable state of one simulation run, shared by both execution
/// strategies so that setup and result assembly exist exactly once. The
/// per-app vectors are parallel to the workload views.
struct Run {
  Run(Cluster cluster_in, Coordinator coordinator_in)
      : cluster(std::move(cluster_in)),
        coordinator(std::move(coordinator_in)) {}

  SimulationResult result;
  Cluster cluster;
  Coordinator coordinator;
  EnergyMeter meter{1.0};
  QosTracker qos;
  ReconfigState state;
  /// Last proposal returned by each app's scheduler (its initial
  /// combination until the first real decision).
  std::vector<Combination> proposals;
  /// Post-clamp slice of the current cluster target attributed to each
  /// app (see Coordinator::merge).
  std::vector<Combination> contributions;
  std::vector<Combination> contributions_scratch;
  /// Reconfiguration-power attribution weights, derived from the
  /// contributions' capacities (equal split when all are empty).
  std::vector<double> transition_shares;
  std::vector<EnergyMeter> app_meters;
  std::vector<QosTracker> app_qos;
  /// Scratch: per-app offered load / capacity allocation this span.
  std::vector<ReqRate> loads;
  std::vector<ReqRate> alloc;
  /// Scratch for the event-driven path: the constant-value sub-runs of the
  /// current span (one row per trace segment — load for the QoS kernel,
  /// compute power for the energy kernel), and the On fleet's compiled
  /// power curve (fixed within a span).
  struct SegmentRun {
    ReqRate load;
    Watts compute;
    TimePoint seconds;
    /// Effective serving capacity of this sub-run (degraded-mode spans
    /// only — QosTracker::record_runs_var keys off it; otherwise unused).
    ReqRate cap;
  };
  std::vector<SegmentRun> span_runs;
  /// Fused k-way merge frontier (multi-app fast path): each app's current
  /// run end, parallel to `loads` (which doubles as the frontier's value
  /// array inside advance_span).
  std::vector<TimePoint> run_ends;
  /// Decision-point snapshot buffer: refreshed via Cluster::snapshot_into
  /// so fleet-scale runs do not allocate four vectors per consult.
  ClusterSnapshot snap;
  /// Consult cache, see kFleetModeApps.
  std::vector<TimePoint> consult_until;
  FleetPowerCurve power_curve;
  /// Runtime crash/repair state; disengaged unless the fault model's
  /// runtime channel is active.
  std::optional<FaultRun> faults;
  /// SLO feedback state (any view with slo_availability > 0). The spare
  /// flags are a pure function of the outage history — flag i is set iff
  /// the app's domain's trailing-window downtime exceeds its error budget
  /// — evaluated at consult time; `spares` / `spare_flags` hold what the
  /// last merge actually provisioned, so accrual and attribution only
  /// change at merge instants (identical in both execution strategies).
  bool slo_enabled = false;
  TimePoint slo_window = 0;
  /// Per-app error budget (1 - target) * window in seconds; -1 = no SLO.
  std::vector<double> slo_budget;
  std::vector<Combination> spares;
  std::vector<char> spare_flags;
  std::vector<char> flags_scratch;
  /// Idle power of each app's provisioned spares (W), refreshed at merge.
  std::vector<Watts> spare_power;
  std::vector<Joules> app_spare_energy;
  std::vector<std::int64_t> app_spare_seconds;
  Joules total_spare_energy = 0.0;
  std::int64_t total_spare_seconds = 0;
  /// Which spares the last merge actually provisioned, post priority
  /// ordering (high-priority-first withholding); parallel to `spares`.
  std::vector<char> spare_granted;
  /// Degraded-mode serving (options.degrade.enabled()): the model plus
  /// the overload accounting — cluster-wide, per app, and (in FaultRun)
  /// per domain. The integrands only change at sub-run boundaries, and
  /// overload entry/exit crossings bound fast-path spans, so both
  /// execution strategies integrate the exact same piecewise signal.
  DegradeModel degrade;
  std::int64_t overload_seconds = 0;
  double penalty_lost = 0.0;
  std::vector<std::int64_t> app_overload_seconds;
  std::vector<double> app_penalty_lost;
  /// Scratch: per-domain "accrued this sub-run" flags for the overload
  /// accounting (sized with the fault domains).
  std::vector<char> domain_hit;
  /// Per-second path only: last second's overload state, for the
  /// enter/exit events.
  bool overloaded_now = false;
  /// Priority/preemption state (any two view priorities differ): victim
  /// order for the preemption pass (ascending priority, descending
  /// index — matches the coordinator's trim order), the machines
  /// currently preempted away from each app (recomputed at every fault
  /// batch, cleared at every consult merge), and the per-app
  /// preempted-seconds integrals.
  bool priority_enabled = false;
  std::vector<std::size_t> victim_order;
  std::vector<Combination> preempted;
  std::vector<Combination> preempted_scratch;
  std::vector<std::int64_t> app_preempted_seconds;
  /// Tenant-lifecycle state (any view with arrive > 0 or depart >= 0):
  /// the current active mask, the pre-sorted arrival/departure timeline
  /// (consumed front to back — events bound fast-path spans exactly like
  /// faults, so the active set is constant inside one), and the per-app
  /// active-seconds integrals. `lifecycle_dirty` forces a merge at the
  /// next consult so churn re-partitions capacity through the normal
  /// decision path; fixed-tenant runs leave all of this disengaged.
  bool lifecycle_enabled = false;
  std::vector<char> active;
  std::size_t active_count = 0;
  struct LifecycleEvent {
    TimePoint time;
    std::size_t app;
    bool departure;
  };
  std::vector<LifecycleEvent> lifecycle_events;
  std::size_t next_lifecycle = 0;
  bool lifecycle_dirty = false;
  std::vector<std::int64_t> app_active_seconds;
};

using WorkloadView = Simulator::WorkloadView;

/// Empties the consult cache: the next consult calls decide() on every
/// active app.
void invalidate_consults(Run& run) {
  std::fill(run.consult_until.begin(), run.consult_until.end(),
            static_cast<TimePoint>(-1));
}

void update_transition_shares(const Catalog& candidates, Run& run) {
  double total = 0.0;
  for (const Combination& c : run.contributions)
    total += capacity(candidates, c);
  if (run.lifecycle_enabled && total <= 0.0) {
    // Equal split makes no sense over departed tenants: spread the
    // (attribution-only) weight over the active set instead.
    for (std::size_t i = 0; i < run.contributions.size(); ++i)
      run.transition_shares[i] =
          run.active[i] && run.active_count > 0
              ? 1.0 / static_cast<double>(run.active_count)
              : 0.0;
    return;
  }
  const auto n = static_cast<double>(run.contributions.size());
  for (std::size_t i = 0; i < run.contributions.size(); ++i)
    run.transition_shares[i] =
        total > 0.0 ? capacity(candidates, run.contributions[i]) / total
                    : 1.0 / n;
}

/// Trailing-window downtime of domain `d` over [t - window, t), assuming
/// the current up/down state persists — exact inside a span, where fault
/// events cannot land.
TimePoint window_unavailable(const FaultRun& fr, std::size_t d, TimePoint t,
                             TimePoint window) {
  const TimePoint lo = t - window;
  TimePoint total = 0;
  for (const FaultRun::Outage& o : fr.outages[d]) {
    const TimePoint start = o.start > lo ? o.start : lo;
    if (o.end > start) total += o.end - start;
  }
  if (fr.down_since[d] >= 0) {
    const TimePoint start = fr.down_since[d] > lo ? fr.down_since[d] : lo;
    if (t > start) total += t - start;
  }
  return total;
}

/// Evaluates every SLO app's spare flag at `t` — set iff the app's
/// domain's trailing-window downtime exceeds its error budget. A pure
/// function of the outage history, so both execution strategies get
/// identical flags from identical timelines. Prunes outage intervals that
/// have left every window (pruned intervals contribute 0, so pruning
/// cadence cannot affect results). Fault-free runs keep all flags clear.
void current_spare_flags(Run& run, TimePoint t, std::vector<char>& flags) {
  flags.assign(run.slo_budget.size(), 0);
  if (!run.faults.has_value()) return;
  FaultRun& fr = *run.faults;
  const TimePoint lo = t - run.slo_window;
  for (std::vector<FaultRun::Outage>& history : fr.outages) {
    std::size_t drop = 0;
    while (drop < history.size() && history[drop].end <= lo) ++drop;
    if (drop > 0)
      history.erase(history.begin(),
                    history.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  for (std::size_t i = 0; i < run.slo_budget.size(); ++i) {
    if (run.slo_budget[i] < 0.0) continue;
    // A departed (or not-yet-arrived) tenant's flag is pinned clear: no
    // spares are held for apps that are not serving.
    if (run.lifecycle_enabled && !run.active[i]) continue;
    const std::size_t d = fr.domain_of[i];
    flags[i] = static_cast<double>(window_unavailable(
                   fr, d, t, run.slo_window)) > run.slo_budget[i];
  }
}

/// Earliest second in (t, limit] where some SLO app's spare flag would
/// differ from its value at `t`, assuming the failure set stays fixed
/// (the caller already bounds `limit` by the next fault event). The
/// window downtime is monotone while the up/down state is fixed —
/// non-decreasing while down, non-increasing while up — so each budget
/// crosses at most once inside the span and exact binary search finds it.
TimePoint next_slo_crossing(const Run& run, TimePoint t, TimePoint limit) {
  const FaultRun& fr = *run.faults;
  TimePoint bound = limit;
  for (std::size_t i = 0; i < run.slo_budget.size(); ++i) {
    const double budget = run.slo_budget[i];
    if (budget < 0.0) continue;
    // Inactive tenants' flags are pinned clear, so they cannot cross.
    if (run.lifecycle_enabled && !run.active[i]) continue;
    const std::size_t d = fr.domain_of[i];
    // A clean window stays clean: no downtime can enter it inside a span.
    if (fr.down_since[d] < 0 && fr.outages[d].empty()) continue;
    const auto over_at = [&](TimePoint s) {
      return static_cast<double>(
                 window_unavailable(fr, d, s, run.slo_window)) > budget;
    };
    const bool over = over_at(t);
    if (over_at(bound) == over) continue;
    TimePoint lo = t;
    TimePoint hi = bound;
    while (hi - lo > 1) {
      const TimePoint mid = lo + (hi - lo) / 2;
      if (over_at(mid) == over)
        lo = mid;
      else
        hi = mid;
    }
    bound = hi;
  }
  return bound;
}

/// Per-arch ceil(fraction * count) headroom of `proposal` — the spare
/// capacity provisioned while the app's SLO is violated.
void spare_of(const Combination& proposal, double fraction, std::size_t kinds,
              Combination& out) {
  out = Combination{};
  out.resize(kinds);
  for (std::size_t a = 0; a < kinds; ++a) {
    const int n = proposal.count(a);
    if (n > 0)
      out.add(a, static_cast<int>(
                     std::ceil(static_cast<double>(n) * fraction)));
  }
}

Watts idle_power_of(const Catalog& candidates, const Combination& c) {
  Watts w = 0.0;
  for (std::size_t a = 0; a < candidates.size(); ++a)
    w += candidates[a].idle_power() * c.count(a);
  return w;
}

/// The coordinator merge both decision sites share: the proposals plus
/// the currently provisioned SLO spares (none when the loop is off).
Combination merge_current(Run& run) {
  return run.slo_enabled
             ? run.coordinator.merge(run.proposals, run.spares,
                                     run.contributions_scratch)
             : run.coordinator.merge(run.proposals, run.contributions_scratch);
}

/// Accrues the provisioned spares' idle energy and active seconds over a
/// span. The spare set only changes at merge instants — span starts in
/// both strategies — so the accrual integrand is constant inside one.
void account_spare_span(Run& run, TimePoint span) {
  bool any = false;
  for (std::size_t i = 0; i < run.spares.size(); ++i) {
    if (run.spares[i].total_machines() == 0) continue;
    any = true;
    const Joules e = run.spare_power[i] * static_cast<double>(span);
    run.app_spare_seconds[i] += span;
    run.app_spare_energy[i] += e;
    run.total_spare_energy += e;
  }
  if (any) run.total_spare_seconds += span;
}

/// Serving state of one constant-load slice under the degrade model:
/// spill-over above rated capacity is absorbed up to
/// `overload_factor * capacity`, each absorbed req/s serving only
/// (1 - penalty) effectively; spill beyond the absorption limit is simply
/// unserved. Power is untouched — the fleet curve already saturates at
/// rated capacity, so the contention penalty is capacity-side only.
struct DegradedCap {
  ReqRate effective;  // capacity QoS is scored against
  ReqRate lost_rate;  // capacity lost to the contention penalty, req/s
  bool overloaded;    // offered load exceeded rated capacity
};

DegradedCap degraded_capacity(const DegradeModel& model, ReqRate load,
                              ReqRate capacity) {
  if (!(load > capacity)) return DegradedCap{capacity, 0.0, false};
  const ReqRate over = load - capacity;
  const ReqRate limit = capacity * model.overload_factor;
  const ReqRate absorbed = over < limit ? over : limit;
  return DegradedCap{capacity + absorbed * (1.0 - model.penalty),
                     absorbed * model.penalty, true};
}

/// Accrues the overload accounting over `span` seconds of a slice with
/// constant loads, called only while the cluster is overloaded (so
/// total_load > 0): cluster-wide, per app offering load (penalty loss
/// split load-proportionally), and per fault domain — a domain accrues
/// overload seconds while any of its apps offers load. The integrand is
/// constant inside a slice, so both execution strategies integrate the
/// same piecewise signal.
void account_overload(const std::vector<WorkloadView>& views, Run& run,
                      ReqRate total_load, ReqRate lost_rate, TimePoint span) {
  const auto seconds = static_cast<double>(span);
  run.overload_seconds += span;
  run.penalty_lost += lost_rate * seconds;
  FaultRun* fr = run.faults.has_value() ? &*run.faults : nullptr;
  if (fr) std::fill(run.domain_hit.begin(), run.domain_hit.end(), 0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!(run.loads[i] > 0.0)) continue;
    run.app_overload_seconds[i] += span;
    const double lost = lost_rate * seconds * (run.loads[i] / total_load);
    run.app_penalty_lost[i] += lost;
    if (fr) {
      const std::size_t d = fr->domain_of[i];
      if (!run.domain_hit[d]) {
        run.domain_hit[d] = 1;
        fr->overload_seconds[d] += span;
      }
      fr->penalty_lost[d] += lost;
    }
  }
}

/// Accrues preempted-seconds over a span: an app accrues while at least
/// one of its provisioned machines is preempted away. The preempted set
/// only changes at fault batches and consult merges — span starts in both
/// strategies — so the integrand is constant inside one.
void account_preemption_span(Run& run, TimePoint span) {
  for (std::size_t i = 0; i < run.preempted.size(); ++i)
    if (run.preempted[i].total_machines() > 0)
      run.app_preempted_seconds[i] += span;
}

/// Applies every tenant arrival / departure due at `now` (shared verbatim
/// by both execution strategies — churn events bound fast-path spans, so
/// the active set is constant inside one). An arrival re-seeds the app's
/// proposal from its scheduler's initial combination; a departure clears
/// it. Either way the coordinator re-partitions its capacity shares over
/// the new active set and `lifecycle_dirty` forces a merge at the next
/// consult — departures release their machines through the normal
/// (graceful) transition path, never by teleporting fleet state.
bool apply_lifecycle_events(const std::vector<WorkloadView>& views,
                            TimePoint now, const Catalog& candidates,
                            Run& run, EventLog* events) {
  bool changed = false;
  while (run.next_lifecycle < run.lifecycle_events.size() &&
         run.lifecycle_events[run.next_lifecycle].time <= now) {
    const Run::LifecycleEvent e = run.lifecycle_events[run.next_lifecycle];
    ++run.next_lifecycle;
    const std::size_t i = e.app;
    if (e.departure) {
      if (!run.active[i]) continue;
      run.active[i] = 0;
      --run.active_count;
      run.proposals[i] = Combination{};
      run.proposals[i].resize(candidates.size());
      ++run.result.departures;
      changed = true;
      if (events)
        events->record(now, EventKind::kAppDeparture, *views[i].name);
    } else {
      if (run.active[i]) continue;
      run.active[i] = 1;
      ++run.active_count;
      Combination c = views[i].scheduler->initial_combination(*views[i].trace);
      c.resize(candidates.size());
      run.proposals[i] = std::move(c);
      // Force a real consult for the newcomer at the next decision point.
      run.consult_until[i] = -1;
      ++run.result.arrivals;
      changed = true;
      if (events)
        events->record(now, EventKind::kAppArrival, *views[i].name);
    }
  }
  if (changed) {
    run.coordinator.set_active(run.active);
    run.lifecycle_dirty = true;
    if (run.result.metrics.enabled &&
        static_cast<std::uint64_t>(run.active_count) >
            run.result.metrics.apps_active_max)
      run.result.metrics.apps_active_max = run.active_count;
  }
  return changed;
}

/// Integrates per-tenant active seconds over a span whose active set is
/// constant (1 s in the reference loop; a whole span on the fast path).
void account_lifecycle_span(Run& run, TimePoint span) {
  for (std::size_t i = 0; i < run.active.size(); ++i)
    if (run.active[i]) run.app_active_seconds[i] += span;
}

Run make_run(const Catalog& candidates, const SimulatorOptions& options,
             std::shared_ptr<const DispatchPlan> plan,
             const std::vector<WorkloadView>& views) {
  const std::size_t kinds = candidates.size();
  std::vector<double> shares;
  std::vector<int> priorities;
  shares.reserve(views.size());
  priorities.reserve(views.size());
  bool lifecycle = false;
  for (const WorkloadView& v : views) {
    shares.push_back(v.share);
    if (v.priority < 0)
      throw std::invalid_argument("Simulator: priority must be >= 0");
    priorities.push_back(v.priority);
    if (v.arrive < 0)
      throw std::invalid_argument("Simulator: arrive must be >= 0");
    if (v.depart >= 0 && v.depart <= v.arrive)
      throw std::invalid_argument("Simulator: depart must be > arrive");
    if (v.arrive > 0 || v.depart >= 0) lifecycle = true;
  }
  Coordinator coordinator(candidates, options.coordinator, std::move(shares),
                          options.coordinator_budget, priorities);
  std::vector<char> active;
  if (lifecycle) {
    active.assign(views.size(), 1);
    for (std::size_t i = 0; i < views.size(); ++i)
      if (views[i].arrive > 0) active[i] = 0;
    coordinator.set_active(active);
  }

  std::vector<Combination> proposals;
  proposals.reserve(views.size());
  for (const WorkloadView& v : views) {
    // A tenant that has not arrived yet proposes nothing: the initial
    // fleet is sized for the apps serving at t = 0 only.
    Combination c;
    if (v.arrive <= 0) c = v.scheduler->initial_combination(*v.trace);
    c.resize(kinds);
    proposals.push_back(std::move(c));
  }
  std::vector<Combination> contributions;
  Combination initial = coordinator.merge(proposals, contributions);

  Run run(Cluster(candidates, initial, options.faults, std::move(plan)),
          std::move(coordinator));
  std::string joined;
  for (const WorkloadView& v : views) {
    if (!joined.empty()) joined += '+';
    joined += v.scheduler->name();
  }
  run.result.scheduler_name = std::move(joined);
  run.state.current_target = std::move(initial);
  run.state.deferred_offs.assign(kinds, 0);
  run.proposals = std::move(proposals);
  run.contributions = std::move(contributions);
  run.lifecycle_enabled = lifecycle;
  run.active_count = views.size();
  if (lifecycle) {
    run.active = std::move(active);
    run.active_count = 0;
    for (const char a : run.active)
      if (a) ++run.active_count;
    run.app_active_seconds.assign(views.size(), 0);
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (views[i].arrive > 0)
        run.lifecycle_events.push_back(
            Run::LifecycleEvent{views[i].arrive, i, false});
      if (views[i].depart >= 0)
        run.lifecycle_events.push_back(
            Run::LifecycleEvent{views[i].depart, i, true});
    }
    // Deterministic timeline: by time, arrivals before departures, by app
    // index within a kind — all events at one instant land in one batch
    // before any merge, so the order only shapes the event log.
    std::sort(run.lifecycle_events.begin(), run.lifecycle_events.end(),
              [](const Run::LifecycleEvent& a, const Run::LifecycleEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.departure != b.departure) return !a.departure;
                return a.app < b.app;
              });
  }
  run.transition_shares.assign(views.size(), 0.0);
  update_transition_shares(candidates, run);
  run.app_meters.assign(views.size(), EnergyMeter(1.0));
  run.app_qos.resize(views.size());
  run.loads.assign(views.size(), 0.0);
  run.alloc.assign(views.size(), 0.0);
  run.run_ends.assign(views.size(), 0);
  run.consult_until.assign(views.size(), -1);
  run.slo_budget.assign(views.size(), -1.0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const double target = views[i].slo_availability;
    if (target < 0.0 || target > 1.0)
      throw std::invalid_argument(
          "Simulator: slo_availability must be in [0, 1]");
    if (target <= 0.0) continue;
    if (!(views[i].slo_spare > 0.0))
      throw std::invalid_argument("Simulator: slo_spare must be > 0");
    if (!(options.slo_window >= 1.0))
      throw std::invalid_argument("Simulator: slo_window must be >= 1");
    run.slo_enabled = true;
    run.slo_window = static_cast<TimePoint>(std::llround(options.slo_window));
    run.slo_budget[i] =
        (1.0 - target) * static_cast<double>(run.slo_window);
  }
  if (run.slo_enabled) {
    run.spares.assign(views.size(), Combination{});
    for (Combination& c : run.spares) c.resize(kinds);
    run.spare_flags.assign(views.size(), 0);
    run.flags_scratch.assign(views.size(), 0);
    run.spare_power.assign(views.size(), 0.0);
    run.app_spare_energy.assign(views.size(), 0.0);
    run.app_spare_seconds.assign(views.size(), 0);
    run.spare_granted.assign(views.size(), 0);
  }
  run.degrade = options.degrade;
  if (!std::isfinite(run.degrade.overload_factor) ||
      run.degrade.overload_factor < 0.0)
    throw std::invalid_argument(
        "Simulator: degrade.overload_factor must be >= 0");
  if (!(run.degrade.penalty >= 0.0 && run.degrade.penalty <= 1.0))
    throw std::invalid_argument("Simulator: degrade.penalty must be in [0, 1]");
  if (run.degrade.enabled()) {
    run.app_overload_seconds.assign(views.size(), 0);
    run.app_penalty_lost.assign(views.size(), 0.0);
  }
  for (std::size_t i = 1; i < views.size(); ++i)
    if (views[i].priority != views[0].priority) {
      run.priority_enabled = true;
      break;
    }
  if (run.priority_enabled) {
    run.victim_order.resize(views.size());
    std::iota(run.victim_order.begin(), run.victim_order.end(),
              std::size_t{0});
    std::stable_sort(run.victim_order.begin(), run.victim_order.end(),
                     [&views](std::size_t a, std::size_t b) {
                       if (views[a].priority != views[b].priority)
                         return views[a].priority < views[b].priority;
                       return a > b;
                     });
    run.preempted.assign(views.size(), Combination{});
    for (Combination& c : run.preempted) c.resize(kinds);
    run.preempted_scratch = run.preempted;
    run.app_preempted_seconds.assign(views.size(), 0);
  }
  if (options.faults.runtime_active()) {
    FaultRun faults;
    // Map views to fault domains: same non-empty name = shared domain,
    // first-appearance order; unnamed views fail independently.
    std::map<std::string, std::size_t> named;
    faults.domain_of.reserve(views.size());
    for (const WorkloadView& v : views) {
      if (v.fault_domain == nullptr || v.fault_domain->empty()) {
        faults.domain_of.push_back(faults.domains++);
      } else {
        const auto [it, inserted] =
            named.try_emplace(*v.fault_domain, faults.domains);
        if (inserted) ++faults.domains;
        faults.domain_of.push_back(it->second);
      }
    }
    faults.timeline =
        FaultTimeline(options.faults, kinds, faults.domains);
    faults.failed.assign(faults.domains, std::vector<int>(kinds, 0));
    faults.failed_machines.assign(faults.domains, 0);
    faults.failed_capacity.assign(faults.domains, 0.0);
    faults.unavailable_seconds.assign(faults.domains, 0);
    faults.lost_capacity.assign(faults.domains, 0.0);
    faults.failures.assign(faults.domains, 0);
    faults.groups = options.faults.group_active() ? options.faults.groups : 0;
    faults.outages.assign(faults.domains, {});
    faults.down_since.assign(faults.domains, -1);
    if (run.degrade.enabled()) {
      faults.overload_seconds.assign(faults.domains, 0);
      faults.penalty_lost.assign(faults.domains, 0.0);
      run.domain_hit.assign(faults.domains, 0);
    }
    run.faults.emplace(std::move(faults));
  }
  return run;
}

/// Copies the cluster-wide and per-app meters into the result.
void finalize_run(Run& run, const std::vector<WorkloadView>& views,
                  MultiSimulationResult& out) {
  SimulationResult& r = run.result;
  r.compute_energy = run.meter.compute_energy();
  r.reconfiguration_energy = run.meter.reconfiguration_energy();
  r.per_day_compute = run.meter.per_day_compute();
  r.per_day_reconfiguration = run.meter.per_day_reconfiguration();
  r.qos = run.qos.stats();
  if (run.faults.has_value()) {
    const FaultRun& fr = *run.faults;
    r.machine_failures = fr.total_failures;
    r.unavailable_seconds = fr.total_unavailable;
    r.lost_capacity = fr.total_lost;
    r.group_strikes = fr.group_strikes;
    r.availability =
        r.qos.total_seconds > 0
            ? 1.0 - static_cast<double>(fr.total_unavailable) /
                        static_cast<double>(r.qos.total_seconds)
            : 1.0;
  }
  if (run.slo_enabled) {
    r.spare_seconds = run.total_spare_seconds;
    r.spare_energy = run.total_spare_energy;
  }
  if (run.degrade.enabled()) {
    r.overload_seconds = run.overload_seconds;
    r.penalty_lost_capacity = run.penalty_lost;
  }
  out.total = std::move(run.result);
  out.apps.resize(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    WorkloadResult& app = out.apps[i];
    app.name = *views[i].name;
    app.scheduler_name = views[i].scheduler->name();
    app.qos = views[i].qos;
    app.qos_stats = run.app_qos[i].stats();
    app.compute_energy = run.app_meters[i].compute_energy();
    app.reconfiguration_energy = run.app_meters[i].reconfiguration_energy();
    if (run.faults.has_value()) {
      const FaultRun& fr = *run.faults;
      const std::size_t d = fr.domain_of[i];
      app.failures = fr.failures[d];
      app.unavailable_seconds = fr.unavailable_seconds[d];
      app.lost_capacity = fr.lost_capacity[d];
      app.availability =
          app.qos_stats.total_seconds > 0
              ? 1.0 - static_cast<double>(fr.unavailable_seconds[d]) /
                          static_cast<double>(app.qos_stats.total_seconds)
              : 1.0;
    }
    if (run.slo_enabled) {
      app.spare_seconds = run.app_spare_seconds[i];
      app.spare_energy = run.app_spare_energy[i];
    }
    if (run.degrade.enabled()) {
      app.overload_seconds = run.app_overload_seconds[i];
      app.penalty_lost_capacity = run.app_penalty_lost[i];
      if (run.faults.has_value()) {
        const std::size_t d = run.faults->domain_of[i];
        app.domain_overload_seconds = run.faults->overload_seconds[d];
        app.domain_penalty_lost = run.faults->penalty_lost[d];
      }
    }
    if (run.priority_enabled)
      app.preempted_seconds = run.app_preempted_seconds[i];
    app.active_seconds = run.lifecycle_enabled ? run.app_active_seconds[i]
                                               : app.qos_stats.total_seconds;
  }
}

/// Applies the merged decision at `now`: a target change switches machines
/// on (and off — deferred in graceful mode) and starts a reconfiguration.
/// `events` is null when event logging is off; `metrics` when
/// self-metrics are off.
void apply_decision(Combination decision, TimePoint now,
                    const Catalog& candidates, bool graceful_off,
                    Cluster& cluster, ReconfigState& state,
                    SimulationResult& result, EventLog* events,
                    SimMetrics* metrics) {
  if (decision == state.current_target) return;
  if (metrics) ++metrics->decisions_applied;

  const std::vector<int> d = delta(state.current_target, decision);
  bool any_on = false;
  for (std::size_t a = 0; a < d.size(); ++a)
    if (d[a] > 0) {
      cluster.switch_on(a, d[a]);
      any_on = true;
    }
  for (std::size_t a = 0; a < d.size(); ++a)
    if (d[a] < 0) {
      // Graceful mode keeps surplus machines serving until the
      // replacements are up; otherwise they power down immediately.
      if (graceful_off && any_on)
        state.deferred_offs[a] += -d[a];
      else
        cluster.switch_off(a, -d[a]);
    }
  state.reconfiguring = true;
  state.started = now;
  ++result.reconfigurations;
  log_debug() << "t=" << now << " reconfigure -> "
              << to_string(candidates, decision);
  if (events)
    events->record(now, EventKind::kReconfigurationStart,
                   to_string(candidates, decision));
  state.current_target = std::move(decision);
}

/// Consults the scheduler of every active app whose consult-cache entry
/// has expired (every active app unless the event-driven loop filled the
/// cache, see kFleetModeApps) at `now` and applies the coordinator's
/// merged decision. A scheduler returning std::nullopt keeps its previous
/// proposal; when no proposal changed — and no SLO spare flag flipped —
/// the merged target cannot have changed either and the merge is skipped.
/// A merge that starts a reconfiguration empties the cache.
void consult_and_apply(const std::vector<WorkloadView>& views, TimePoint now,
                       const Catalog& candidates, bool graceful_off, Run& run,
                       EventLog* events, SimMetrics* metrics) {
  run.cluster.snapshot_into(run.snap);
  bool any_new = false;
  std::uint64_t consults = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (run.lifecycle_enabled && !run.active[i]) continue;
    if (run.consult_until[i] > now) continue;
    ++consults;
    std::optional<Combination> d =
        views[i].scheduler->decide(now, *views[i].trace, run.snap);
    if (d.has_value()) {
      d->resize(candidates.size());
      if (*d != run.proposals[i]) {
        run.proposals[i] = std::move(*d);
        any_new = true;
      }
    }
  }
  if (metrics) metrics->scheduler_consults += consults;
  bool slo_changed = false;
  if (run.slo_enabled) {
    current_spare_flags(run, now, run.flags_scratch);
    slo_changed = run.flags_scratch != run.spare_flags;
  }
  if (!any_new && !slo_changed && !run.lifecycle_dirty) return;
  run.lifecycle_dirty = false;
  if (run.slo_enabled) {
    // Refresh the provisioned spares from the *current* proposals: an
    // active flag rides on whatever the app now asks for. With priority
    // classes, spares are provisioned high-priority-first: while any
    // higher-priority app's flag is active, lower-priority apps' spares
    // are withheld (their flags keep being evaluated, so provisioning
    // resumes the moment the top class recovers).
    int top = std::numeric_limits<int>::min();
    if (run.priority_enabled)
      for (std::size_t i = 0; i < views.size(); ++i)
        if (run.flags_scratch[i] != 0 && views[i].priority > top)
          top = views[i].priority;
    for (std::size_t i = 0; i < views.size(); ++i) {
      const bool granted =
          run.flags_scratch[i] != 0 &&
          (!run.priority_enabled || views[i].priority >= top);
      if (events && granted != (run.spare_granted[i] != 0))
        events->record(now,
                       granted ? EventKind::kSpareProvision
                               : EventKind::kSpareRelease,
                       *views[i].name);
      if (granted) {
        spare_of(run.proposals[i], views[i].slo_spare, candidates.size(),
                 run.spares[i]);
      } else if (run.spares[i].total_machines() > 0) {
        run.spares[i] = Combination{};
        run.spares[i].resize(candidates.size());
      }
      run.spare_power[i] = idle_power_of(candidates, run.spares[i]);
      run.spare_flags[i] = run.flags_scratch[i];
      run.spare_granted[i] = granted ? 1 : 0;
    }
  }
  Combination merged = merge_current(run);
  run.contributions.swap(run.contributions_scratch);
  update_transition_shares(candidates, run);
  const int reconfigs_before = run.result.reconfigurations;
  apply_decision(std::move(merged), now, candidates, graceful_off,
                 run.cluster, run.state, run.result, events, metrics);
  // A consult that re-merged has re-provisioned every app's full
  // entitlement (apply_decision boots the difference vs the preemption-
  // reduced target), so any outstanding preemption ends here.
  if (run.priority_enabled)
    for (Combination& c : run.preempted)
      if (c.total_machines() > 0) {
        c = Combination{};
        c.resize(candidates.size());
      }
  if (run.result.reconfigurations != reconfigs_before)
    invalidate_consults(run);
}

/// Post-step bookkeeping while a reconfiguration is in flight: once all
/// boots drained, issues the deferred switch-offs; once those drained too,
/// clears the flag (the next decision happens the following second).
void settle_reconfiguration(TimePoint now, Cluster& cluster,
                            ReconfigState& state, EventLog* events) {
  if (cluster.booting_total() != 0) return;
  const bool was_shutting = cluster.shutting_down_total() != 0;
  bool issued = false;
  for (std::size_t a = 0; a < state.deferred_offs.size(); ++a)
    if (state.deferred_offs[a] > 0) {
      cluster.switch_off(a, state.deferred_offs[a]);
      state.deferred_offs[a] = 0;
      issued = true;
    }
  if (!issued && !was_shutting) {
    state.reconfiguring = false;  // completed; next decision at t + 1
    if (events)
      events->record(now, EventKind::kReconfigurationComplete,
                     std::to_string(now - state.started + 1) + " s");
  }
}

/// Re-merges the current proposals against the surviving fleet after a
/// failure and boots replacements for any deficit vs the merged target —
/// the coordinator's answer to lost capacity. The merge is pure in the
/// proposals, so the target itself is unchanged; what changes is the
/// fleet underneath it, and the refreshed contributions / transition
/// shares keep reconfiguration-energy attribution consistent while the
/// replacements boot.
///
/// With priority classes, a preemption pass runs between the merge and
/// the deficit boots: instead of waiting out replacement boots, a strike
/// that leaves a high-priority app short takes provisioned machines from
/// lower-priority apps' contributions (the serving capacity is pooled, so
/// the transfer shifts entitlement — strike exposure, transition shares,
/// preempted-seconds — to the class the control plane protects).
/// Preemption is recomputed from scratch at every fault batch: the fresh
/// merge forgot the previous pass, and the new pass re-takes only what
/// the *currently failed* machines still justify, so repairs release
/// preempted machines unit-for-unit and the freed deficit boots below.
void restore_after_failure(TimePoint now, const Catalog& candidates,
                           const std::vector<WorkloadView>& views, Run& run,
                           EventLog* events) {
  // The merge includes the spares the last consult provisioned (the flags
  // themselves only change at consult instants, shared by both paths).
  Combination merged = merge_current(run);
  run.contributions.swap(run.contributions_scratch);
  if (run.priority_enabled && run.faults.has_value()) {
    // Victims: apps with priority strictly below the highest priority
    // among apps whose domain currently holds a failed machine, shed in
    // trim order (lowest priority first, descending index). Per arch, at
    // most the currently-failed machine count may be preempted — deficit
    // beyond that predates the failures and is the decision loop's to fix.
    const FaultRun& fr = *run.faults;
    int top = std::numeric_limits<int>::min();
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (run.lifecycle_enabled && !run.active[i]) continue;
      if (fr.failed_machines[fr.domain_of[i]] > 0 && views[i].priority > top)
        top = views[i].priority;
    }
    for (Combination& c : run.preempted_scratch) {
      c = Combination{};
      c.resize(candidates.size());
    }
    if (top > std::numeric_limits<int>::min()) {
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        const int have = run.cluster.on_count(a) +
                         run.cluster.booting_count(a) -
                         run.state.deferred_offs[a];
        int deficit = merged.count(a) - have;
        int takeable = 0;
        for (std::size_t d = 0; d < fr.domains; ++d)
          takeable += fr.failed[d][a];
        if (deficit > takeable) deficit = takeable;
        for (std::size_t victim : run.victim_order) {
          if (deficit <= 0) break;
          if (views[victim].priority >= top) continue;
          const int give =
              std::min(deficit, run.contributions[victim].count(a));
          if (give <= 0) continue;
          run.contributions[victim].add(a, -give);
          merged.add(a, -give);
          run.preempted_scratch[victim].add(a, give);
          deficit -= give;
        }
      }
    }
    int newly = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      int app_new = 0;
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        const int diff = run.preempted_scratch[i].count(a) -
                         run.preempted[i].count(a);
        if (diff > 0) app_new += diff;
      }
      if (app_new > 0 && events)
        events->record(now, EventKind::kPreemption,
                       std::to_string(app_new) + " from " + *views[i].name);
      newly += app_new;
    }
    if (newly > 0) {
      run.result.preemptions += newly;
      if (run.result.metrics.enabled)
        run.result.metrics.preemptions += static_cast<std::uint64_t>(newly);
    }
    run.preempted.swap(run.preempted_scratch);
  }
  update_transition_shares(candidates, run);
  run.state.current_target = std::move(merged);

  bool any = false;
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    // Machines already earmarked for this target: serving + booting,
    // minus the surplus that graceful mode will switch off later.
    const int have = run.cluster.on_count(a) + run.cluster.booting_count(a) -
                     run.state.deferred_offs[a];
    const int deficit = run.state.current_target.count(a) - have;
    if (deficit > 0) {
      run.cluster.switch_on(a, deficit);
      any = true;
    }
  }
  if (!any) return;
  if (!run.state.reconfiguring) {
    run.state.reconfiguring = true;
    run.state.started = now;
    ++run.result.reconfigurations;
    if (events)
      events->record(now, EventKind::kReconfigurationStart,
                     "replace failed: " +
                         to_string(candidates, run.state.current_target));
  }
  log_debug() << "t=" << now << " failure restore -> "
              << to_string(candidates, run.state.current_target);
}

/// Applies every fault event due at `now` (shared verbatim by both
/// execution strategies — the fast path guarantees events only ever land
/// on span starts). A failure strike fells one On machine of its arch if
/// the domain's coordinator contributions still entitle it to one; a
/// group (rack) strike fells the struck rack's whole stripe of the
/// domain's surviving entitlement, every arch at once. Landed failures
/// first consume a matching deferred switch-off (the surplus machine the
/// decision was about to power down is simply dead instead), otherwise
/// the fleet is restored against the merged target.
/// Any landed event changed the cluster, so it empties the consult cache.
void apply_fault_events(TimePoint now, const Catalog& candidates,
                        const std::vector<WorkloadView>& views, Run& run,
                        EventLog* events) {
  FaultRun& fr = *run.faults;
  bool need_restore = false;
  bool any_event = false;
  // One landed failure, any strike kind: cluster + counters + repair job
  // (through the crew queue) + deferred-off consumption.
  const auto fell_one = [&](std::size_t d, std::size_t a,
                            TimePoint repair_seconds) {
    const ReqRate machine_capacity = candidates[a].max_perf();
    if (run.slo_enabled && fr.failed_machines[d] == 0) fr.down_since[d] = now;
    run.cluster.fail_one(a);
    ++fr.failed[d][a];
    ++fr.failed_machines[d];
    ++fr.total_failed_machines;
    fr.failed_capacity[d] += machine_capacity;
    fr.total_failed_capacity += machine_capacity;
    ++fr.failures[d];
    ++fr.total_failures;
    fr.timeline.schedule_repair(now, repair_seconds, d, a);
    if (run.state.deferred_offs[a] > 0)
      --run.state.deferred_offs[a];
    else
      need_restore = true;
  };
  while (std::optional<FaultEvent> e = fr.timeline.pop(now)) {
    any_event = true;
    if (e->repair) {
      const ReqRate machine_capacity = candidates[e->arch].max_perf();
      run.cluster.repair_one(e->arch);
      --fr.failed[e->domain][e->arch];
      --fr.failed_machines[e->domain];
      --fr.total_failed_machines;
      fr.failed_capacity[e->domain] -= machine_capacity;
      fr.total_failed_capacity -= machine_capacity;
      // Kill any incremental-sum residue once everything is back up, so
      // the availability integrand is exactly 0 between outages.
      if (fr.failed_machines[e->domain] == 0) {
        fr.failed_capacity[e->domain] = 0.0;
        // The domain's outage closes; the interval feeds the SLO windows.
        if (run.slo_enabled) {
          fr.outages[e->domain].push_back(
              FaultRun::Outage{fr.down_since[e->domain], now});
          fr.down_since[e->domain] = -1;
        }
      }
      if (fr.total_failed_machines == 0) fr.total_failed_capacity = 0.0;
      if (events)
        events->record(now, EventKind::kMachineRepair,
                       candidates[e->arch].name());
      continue;
    }
    if (e->group_strike) {
      // The rack holds a deterministic round-robin stripe of the domain's
      // surviving entitlement per arch; the strike fells the whole stripe
      // (clamped by what is actually On). All casualties share the
      // strike's single pre-drawn repair duration.
      int felled = 0;
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        int entitled = 0;
        for (std::size_t i = 0; i < views.size(); ++i)
          if (fr.domain_of[i] == e->domain)
            entitled += run.contributions[i].count(a);
        const int available =
            std::max(0, entitled - fr.failed[e->domain][a]);
        int stripe = available / fr.groups;
        if (static_cast<int>(e->group) < available % fr.groups) ++stripe;
        stripe = std::min(stripe, run.cluster.on_count(a));
        for (int k = 0; k < stripe; ++k)
          fell_one(e->domain, a, e->repair_seconds);
        felled += stripe;
      }
      if (felled > 0) {
        ++fr.group_strikes;
        if (events)
          events->record(now, EventKind::kGroupStrike,
                         std::to_string(felled) + " machines");
      }
      continue;
    }
    int entitled = 0;
    for (std::size_t i = 0; i < views.size(); ++i)
      if (fr.domain_of[i] == e->domain)
        entitled += run.contributions[i].count(e->arch);
    if (fr.failed[e->domain][e->arch] >= entitled ||
        run.cluster.on_count(e->arch) == 0)
      continue;  // the strike found nothing of this domain's to kill
    fell_one(e->domain, e->arch, e->repair_seconds);
    if (events)
      events->record(now, EventKind::kMachineFailure,
                     candidates[e->arch].name());
  }
  // Priority runs recompute the preemption pass at *every* landed batch
  // (repairs release preempted machines and boot their replacements);
  // priority-free runs only restore when a strike left a deficit,
  // byte-identical to a preemption-unaware build.
  if (any_event) invalidate_consults(run);
  if (need_restore || (any_event && run.priority_enabled))
    restore_after_failure(now, candidates, views, run, events);
}

/// Integrates the fault-accounting state over a span whose failure set is
/// constant (1 s in the reference loop; a whole span on the fast path —
/// fault events bound spans, so the set cannot change inside one).
void account_fault_span(FaultRun& fr, TimePoint span) {
  if (fr.total_failed_machines == 0) return;
  for (std::size_t d = 0; d < fr.domains; ++d) {
    if (fr.failed_machines[d] == 0) continue;
    fr.unavailable_seconds[d] += span;
    fr.lost_capacity[d] +=
        fr.failed_capacity[d] * static_cast<double>(span);
  }
  fr.total_unavailable += span;
  fr.total_lost +=
      fr.total_failed_capacity * static_cast<double>(span);
}

/// Sums this span's per-app loads into `run.loads`; returns the total.
ReqRate gather_loads(const std::vector<WorkloadView>& views, TimePoint now,
                     Run& run) {
  ReqRate total = 0.0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    // Inactive tenants offer exactly 0.0: summing the zero in app order
    // keeps the total bit-identical to a gather over the active subset.
    run.loads[i] = run.lifecycle_enabled && !run.active[i]
                       ? 0.0
                       : views[i].trace->at(now);
    total += run.loads[i];
  }
  return total;
}

/// Per-app QoS and energy attribution for a constant-load span (1 s in
/// the reference loop). Only touches per-app accumulators — the
/// cluster-wide aggregates are recorded by the callers, unchanged from
/// the single-workload simulator. `capacity` is the caller's On capacity
/// for the span (constant across a fixed-fleet span, so hoisted into the
/// capacity-parameterized Cluster::split_capacity overload). Tenant-
/// lifecycle runs attribute over the active subset only: inactive apps
/// integrate nothing (their loads are pinned to 0.0), and an idle-cluster
/// equal split spreads over the tenants present (`active_count` is the
/// app count when lifecycle is off).
void attribute_span(const std::vector<WorkloadView>& views, Run& run,
                    ReqRate total_load, const ClusterPower& power,
                    TimePoint span, ReqRate capacity) {
  const auto n = static_cast<double>(run.active_count);
  Cluster::split_capacity(run.loads, total_load, capacity, run.alloc);
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (run.lifecycle_enabled && !run.active[i]) continue;
    run.app_qos[i].record_span(run.loads[i], run.alloc[i], span);
    const double compute_share =
        total_load > 0.0 ? run.loads[i] / total_load : 1.0 / n;
    run.app_meters[i].add_span(power.compute * compute_share,
                               power.transition * run.transition_shares[i],
                               static_cast<std::size_t>(span));
  }
}

std::size_t longest_trace(const std::vector<WorkloadView>& views) {
  std::size_t n = 0;
  for (const WorkloadView& v : views) n = std::max(n, v.trace->size());
  return n;
}

/// Advances [begin, end) with a fixed fleet (no transition completes and no
/// decision is applied inside): walks the intersection of the workloads'
/// compiled-trace runs, so a span over a per-second-noisy trace costs one
/// iteration per constant-value sub-run instead of one per second. Each
/// sub-run's power / QoS / per-app attribution is closed-form; the
/// cluster-wide piecewise kernels (EnergyMeter::add_runs,
/// QosTracker::record_runs) then each consume the whole run list in one
/// call.
///
/// Returns the time actually advanced to (== `end` normally). With the
/// degrade model enabled, an overload entry/exit inside the span stops
/// the walk at the crossing — which lands exactly on an RLE run boundary
/// — and the caller ends the span there (SpanEndCause::kOverloadCrossing),
/// so the per-span accounting downstream integrates a constant overload
/// state, exactly like the per-second reference.
TimePoint advance_span(const std::vector<WorkloadView>& views, Run& run,
                       const std::vector<const CompiledTrace*>& compiled,
                       std::vector<CompiledTrace::Cursor>& cursors,
                       TimePoint begin, TimePoint end, SimMetrics* metrics) {
  run.span_runs.clear();
  // Fixed fleet for the whole span: capacity and transition power are
  // constant, and the compute power is the compiled fleet curve of the
  // per-run load (within a few ulp of Cluster::compute_power — inside
  // the 1e-9 equivalence contract).
  const ReqRate capacity_now = run.cluster.on_capacity();
  const Watts transition = run.cluster.transition_power();
  run.cluster.compile_power_curve(run.power_curve);
  const bool deg = run.degrade.enabled();
  bool first = true;
  bool span_over = false;

  // Kernel flushes happen in L1-sized chunks: a quiet day can be one span
  // of 86400 per-second runs, and producing the whole list before walking
  // it twice (QoS kernel, energy kernel) would stream megabytes through
  // the cache instead of kilobytes. Chunk boundaries only affect
  // floating-point summation order; day attribution is unaffected (spans
  // never straddle days — the caller clamps them).
  constexpr std::size_t kFlushChunk = 512;
  const auto flush = [&run, capacity_now, transition, deg] {
    if (run.span_runs.empty()) return;
    if (deg)
      run.qos.record_runs_var(run.span_runs);
    else
      run.qos.record_runs(run.span_runs, capacity_now);
    run.meter.add_runs(run.span_runs, transition);
    run.span_runs.clear();
  };

  // Single-workload runs skip per-run attribution entirely: with one app
  // the capacity, compute and transition shares are all exactly 1.0, so
  // the per-app accumulators would replay the cluster-wide streams
  // bit-for-bit — run_event_driven copies them at the end instead.
  if (views.size() == 1 && !run.lifecycle_enabled) {
    // Fully fused single-workload walk — the innermost loop of the whole
    // simulator on noisy traces. QoS totals and the compute-energy
    // integral accumulate in registers and flush once per span through
    // the aggregate kernels; no scratch rows, no second pass. (The meter
    // runs at step 1.0, so power * seconds is the integrated energy.)
    const CompiledTrace& trace = *compiled[0];
    CompiledTrace::Cursor& cursor = cursors[0];
    QosSpanTotals totals;
    Joules compute_e = 0.0;
    TimePoint cur = begin;
    while (cur < end) {
      const CompiledTrace::Run r = trace.run_at(cursor, cur);
      const TimePoint sub_end = r.end < end ? r.end : end;
      const TimePoint len = sub_end - cur;
      const auto seconds = static_cast<double>(len);
      ReqRate cap_eff = capacity_now;
      if (deg) {
        const DegradedCap dc =
            degraded_capacity(run.degrade, r.value, capacity_now);
        if (first) {
          span_over = dc.overloaded;
          first = false;
        } else if (dc.overloaded != span_over) {
          end = cur;
          break;
        }
        cap_eff = dc.effective;
        if (dc.overloaded) {
          run.loads[0] = r.value;
          account_overload(views, run, r.value, dc.lost_rate, len);
        }
      }
      totals.seconds += len;
      totals.offered += r.value * seconds;
      if (r.value > cap_eff) {
        const double shortfall = r.value - cap_eff;
        totals.violation_seconds += len;
        totals.unserved += shortfall * seconds;
        if (shortfall > totals.worst_shortfall)
          totals.worst_shortfall = shortfall;
      }
      compute_e += run.power_curve.power_at(r.value) * seconds;
      cur = sub_end;
    }
    run.qos.record_totals(totals);
    run.meter.add_integrated_span(compute_e, transition,
                                  static_cast<std::size_t>(totals.seconds));
    return end;
  }
  // Fused k-way merge over the apps' compiled RLE streams: one frontier
  // entry per app (current value in run.loads, current run end in
  // run.run_ends). Each shared sub-run is the intersection of the apps'
  // current runs, and only the cursors whose run ends exactly at the
  // sub-run boundary advance — so each app's stream is consumed once
  // per span instead of being re-probed once per sub-run. The sub-run
  // arithmetic (total summed fresh in app order, per-app attribution via
  // attribute_span) is operation-for-operation the per-sub-run walk it
  // replaces, so every accumulator stays bit-identical.
  const std::size_t k = views.size();
  std::uint64_t advances = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // Inactive tenants hold a zero-load frontier entry pinned to the
    // span end: their cursor is never probed, the 0.0 still sums in app
    // order (bit-identical to the reference gather), and the advance
    // loop below can never re-seat them (run end == span end).
    if (run.lifecycle_enabled && !run.active[i]) {
      run.loads[i] = 0.0;
      run.run_ends[i] = end;
      continue;
    }
    const CompiledTrace::Run r = compiled[i]->run_at(cursors[i], begin);
    run.loads[i] = r.value;
    run.run_ends[i] = r.end;
    ++advances;
  }
  TimePoint cur = begin;
  while (cur < end) {
    TimePoint sub_end = end;
    ReqRate total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      total += run.loads[i];
      if (run.run_ends[i] < sub_end) sub_end = run.run_ends[i];
    }
    const TimePoint len = sub_end - cur;
    ReqRate cap_eff = capacity_now;
    if (deg) {
      const DegradedCap dc =
          degraded_capacity(run.degrade, total, capacity_now);
      if (first) {
        span_over = dc.overloaded;
        first = false;
      } else if (dc.overloaded != span_over) {
        end = cur;
        break;
      }
      cap_eff = dc.effective;
      if (dc.overloaded) account_overload(views, run, total, dc.lost_rate, len);
    }
    const Watts compute = run.power_curve.power_at(total);
    run.span_runs.push_back(Run::SegmentRun{total, compute, len, cap_eff});
    if (run.span_runs.size() == kFlushChunk) flush();
    attribute_span(views, run, total, ClusterPower{compute, transition},
                   len, cap_eff);
    cur = sub_end;
    if (cur >= end) break;
    for (std::size_t i = 0; i < k; ++i) {
      if (run.run_ends[i] == cur) {
        const CompiledTrace::Run r = compiled[i]->run_at(cursors[i], cur);
        run.loads[i] = r.value;
        run.run_ends[i] = r.end;
        ++advances;
      }
    }
  }
  if (metrics) {
    metrics->merge_frontier_advances += advances;
    if (k > metrics->merge_apps_max) metrics->merge_apps_max = k;
  }
  flush();
  return end;
}

}  // namespace

MultiSimulationResult Simulator::run_per_second(
    const std::vector<WorkloadView>& views) const {
  Run run = make_run(candidates_, options_, plan_, views);
  // The timeline recorder consumes the event stream too, so recording a
  // timeline turns event logging on even when the caller did not ask for
  // the log itself.
  EventLog events(options_.event_log_capacity);
  const bool log_events = options_.record_events || options_.record_timeline;
  EventLog* events_ptr = log_events ? &events : nullptr;

  SimMetrics* metrics = nullptr;
  if (options_.collect_metrics) {
    run.result.metrics.enable();
    metrics = &run.result.metrics;
    metrics->apps_active_max = static_cast<std::uint64_t>(run.active_count);
  }
  TraceRecording* timeline = nullptr;
  if (options_.record_timeline) {
    if (options_.timeline_sample_every == 0)
      throw std::invalid_argument(
          "Simulator: timeline_sample_every must be >= 1");
    run.result.timeline.enabled = true;
    run.result.timeline.sample_every =
        static_cast<TimePoint>(options_.timeline_sample_every);
    for (std::size_t a = 0; a < candidates_.size(); ++a)
      run.result.timeline.arch_names.push_back(candidates_[a].name());
    timeline = &run.result.timeline;
  }

  const std::size_t n = longest_trace(views);
  for (std::size_t t = 0; t < n; ++t) {
    const auto now = static_cast<TimePoint>(t);

    // Tenant arrivals and departures land first: the fault engine, the
    // schedulers and the dispatcher all see the post-churn tenant set.
    if (run.lifecycle_enabled)
      apply_lifecycle_events(views, now, candidates_, run, events_ptr);

    // Fault events land at the start of the second, before any decision:
    // the scheduler and the dispatcher see the post-failure fleet.
    if (run.faults.has_value()) {
      apply_fault_events(now, candidates_, views, run, events_ptr);
      account_fault_span(*run.faults, 1);
    }

    if (!run.state.reconfiguring)
      consult_and_apply(views, now, candidates_, options_.graceful_off, run,
                        events_ptr, metrics);
    if (run.slo_enabled) account_spare_span(run, 1);
    if (run.priority_enabled) account_preemption_span(run, 1);
    if (run.lifecycle_enabled) account_lifecycle_span(run, 1);
    if (metrics) ++metrics->ticks;

    const ReqRate load = gather_loads(views, now, run);
    const ClusterPower power = run.cluster.step_power(load);
    const ReqRate capacity_now = run.cluster.on_capacity();
    // Degraded-mode serving: QoS (cluster-wide and per-app) is scored
    // against the effective capacity; the power draw is unchanged (the
    // fleet curve already saturates at rated capacity).
    ReqRate cap_eff = capacity_now;
    if (run.degrade.enabled()) {
      const DegradedCap dc =
          degraded_capacity(run.degrade, load, capacity_now);
      cap_eff = dc.effective;
      if (dc.overloaded) account_overload(views, run, load, dc.lost_rate, 1);
      if (log_events && dc.overloaded != run.overloaded_now)
        events.record(now,
                      dc.overloaded ? EventKind::kOverloadEnter
                                    : EventKind::kOverloadExit,
                      dc.overloaded
                          ? std::to_string(load - capacity_now) + " req/s over"
                          : "");
      run.overloaded_now = dc.overloaded;
    }
    run.qos.record(load, cap_eff);
    if (log_events && load > cap_eff)
      events.record(now, EventKind::kQosViolation,
                    std::to_string(load - cap_eff));

    if (timeline && now % timeline->sample_every == 0) {
      const ClusterSnapshot snap = run.cluster.snapshot();
      TimelineSample sample;
      sample.time = now;
      sample.on.reserve(candidates_.size());
      for (std::size_t a = 0; a < candidates_.size(); ++a) {
        sample.on.push_back(snap.on.count(a));
        sample.booting.push_back(snap.booting.count(a));
        sample.shutting_down.push_back(snap.shutting_down.count(a));
        sample.failed.push_back(snap.failed.count(a));
      }
      sample.offered = load;
      sample.served = load < cap_eff ? load : cap_eff;
      if (run.slo_enabled)
        for (const Combination& c : run.spares)
          sample.spare_machines += static_cast<int>(c.total_machines());
      timeline->samples.push_back(std::move(sample));
    }
    run.meter.add_compute_sample(power.compute);
    if (power.transition > 0.0)
      run.meter.add_reconfiguration_energy(power.transition * 1.0);
    run.meter.tick();
    attribute_span(views, run, load, power, 1, cap_eff);
    if (run.state.reconfiguring) ++run.result.reconfiguring_seconds;

    const int completed = run.cluster.step(1.0);
    if (log_events && completed > 0)
      events.record(now, EventKind::kBootComplete,
                    std::to_string(completed) + " transitions");

    if (run.state.reconfiguring)
      settle_reconfiguration(now, run.cluster, run.state, events_ptr);

    run.result.peak_machines =
        std::max(run.result.peak_machines, run.cluster.machine_count());
  }
  if (timeline)
    timeline->events.assign(events.events().begin(), events.events().end());
  MultiSimulationResult out;
  finalize_run(run, views, out);
  if (log_events) out.total.events = std::move(events);
  return out;
}

MultiSimulationResult Simulator::run_event_driven(
    const std::vector<WorkloadView>& views) const {
  Run run = make_run(candidates_, options_, plan_, views);
  // Self-metrics ride a nullable pointer: with metrics off the span loop
  // pays one branch per span and the classification work below is
  // skipped entirely.
  SimMetrics* metrics = nullptr;
  if (options_.collect_metrics) {
    run.result.metrics.enable();
    metrics = &run.result.metrics;
    metrics->apps_active_max = static_cast<std::uint64_t>(run.active_count);
  }

  // Compiled (RLE) form of every trace: supplied by the caller (sweeps
  // share one compilation across all scenarios and worker threads) or
  // compiled here once per run.
  std::vector<CompiledTrace> owned;
  owned.reserve(views.size());
  std::vector<const CompiledTrace*> compiled(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (views[i].compiled != nullptr) {
      compiled[i] = views[i].compiled;
    } else {
      owned.emplace_back(*views[i].trace);
      compiled[i] = &owned.back();
    }
  }
  std::vector<CompiledTrace::Cursor> cursors(views.size());

  const auto n = static_cast<TimePoint>(longest_trace(views));
  TimePoint t = 0;
  while (t < n) {
    // 0. Tenant arrivals/departures due now, then fault events — exactly
    //    as in the reference loop. Events can only be due at span starts:
    //    step 2 bounds every span by the timelines' next events, so both
    //    the active set and the failure set are constant inside one.
    //    Small-k runs empty the consult cache first (see kFleetModeApps).
    if (views.size() < kFleetModeApps) invalidate_consults(run);
    if (run.lifecycle_enabled)
      apply_lifecycle_events(views, t, candidates_, run, nullptr);
    if (run.faults.has_value())
      apply_fault_events(t, candidates_, views, run, nullptr);

    // 1. Scheduler decisions, exactly as in the reference loop. While no
    //    reconfiguration is in flight the cluster state cannot change, so
    //    the intersection of the schedulers' stability bounds tells us how
    //    long the merged decision (and thus the fleet) stays as it is now.
    //    The bounds live in the consult cache: every entry consult_and_apply
    //    just consulted (<= t) is refreshed at t, and reusing an unexpired
    //    (conservative) one only ends spans early, which splits integrals
    //    without changing any per-second value.
    TimePoint stable_until = t + 1;
    if (!run.state.reconfiguring) {
      consult_and_apply(views, t, candidates_, options_.graceful_off, run,
                        nullptr, metrics);
      if (!run.state.reconfiguring) {
        // Only active tenants constrain the bound (inactive schedulers
        // are never consulted); with nobody active the span runs to the
        // next churn event or the trace end.
        stable_until = std::numeric_limits<TimePoint>::max();
        for (std::size_t i = 0; i < views.size(); ++i) {
          if (run.lifecycle_enabled && !run.active[i]) continue;
          if (run.consult_until[i] <= t)
            run.consult_until[i] =
                views[i].scheduler->decision_stable_until(t, *views[i].trace);
          stable_until = std::min(stable_until, run.consult_until[i]);
        }
        if (stable_until == std::numeric_limits<TimePoint>::max())
          stable_until = n;
      }
    }

    // 2. Find the next event boundary: any scheduler's decision change, or
    //    a machine transition completion (completions land at the end of
    //    second t + ceil(remaining) - 1). While a reconfiguration with no
    //    transitions left is draining (the one extra second before the
    //    flag clears), tick one second. Trace value changes do NOT bound
    //    the span — the simulator advances at decision granularity and the
    //    varying load is integrated run-by-run below.
    // Each bound is applied with a strict compare so `cause` names the
    // binding one (ties keep the earlier-applied cause); the resulting
    // span_end values are exactly the min-chain they replace.
    TimePoint span_end;
    SpanEndCause cause;
    if (!run.state.reconfiguring) {
      span_end = stable_until;
      cause = SpanEndCause::kSchedulerStable;
    } else {
      const Seconds remaining = run.cluster.next_transition_remaining();
      span_end =
          remaining >= 0.0
              ? t + static_cast<TimePoint>(std::ceil(remaining - 1e-9))
              : t + 1;
      cause = SpanEndCause::kTransitionComplete;
    }
    // The next scheduled failure strike or repair completion bounds the
    // span exactly like a machine transition: inside a span the failure
    // set (and hence capacity, power, and the availability integrand) is
    // constant. The timeline's events are strictly in the future of the
    // drain in step 0, so this never shrinks the span below t + 1.
    if (run.faults.has_value()) {
      const TimePoint fault_at = run.faults->timeline.next_event();
      if (fault_at < span_end) {
        span_end = fault_at;
        cause = run.faults->timeline.next_repair() == fault_at
                    ? SpanEndCause::kCrewCompletion
                    : SpanEndCause::kFault;
      }
    }
    // The next tenant arrival or departure bounds the span exactly like a
    // fault strike: the active set (and with it the gather, attribution
    // and coordinator partition) is constant inside one. Step 0 consumed
    // every event due at or before t, so this is strictly in the future.
    if (run.lifecycle_enabled &&
        run.next_lifecycle < run.lifecycle_events.size()) {
      const TimePoint churn_at =
          run.lifecycle_events[run.next_lifecycle].time;
      if (churn_at < span_end) {
        span_end = churn_at;
        cause = SpanEndCause::kChurn;
      }
    }
    // Clamping spans at day boundaries costs at most one extra span per
    // simulated day and lets EnergyMeter::add_runs fuse every sub-run of
    // a span into one day bucket instead of chunk-splitting per run.
    const TimePoint day_end = (t / kSecondsPerDay + 1) * kSecondsPerDay;
    if (day_end < span_end) {
      span_end = day_end;
      cause = SpanEndCause::kDayBoundary;
    }
    // A spare flag flipping is a decision change: the reference loop
    // re-evaluates the SLO flags every idle second, so an idle span must
    // end at the first second a trailing window crosses an app's error
    // budget (exact — the downtime integrand is fixed inside the span).
    if (run.slo_enabled && run.faults.has_value() &&
        !run.state.reconfiguring) {
      const TimePoint crossing = next_slo_crossing(run, t, span_end);
      if (crossing < span_end) {
        span_end = crossing;
        cause = SpanEndCause::kSloCrossing;
      }
    }
    if (span_end >= n) {
      // A span reaching n ran out of trace whichever bound got it there —
      // classify it as trace-end so every run counts exactly one.
      span_end = n;
      cause = SpanEndCause::kTraceEnd;
    }
    if (span_end < t + 1) span_end = t + 1;

    // 3. Advance the span in closed form: the fleet is constant, so each
    //    constant-load sub-run has constant power and QoS margins. With
    //    the degrade model on, an overload entry/exit inside the span
    //    stops the walk at the crossing and the span ends there — the
    //    per-span accounting below then integrates a constant overload
    //    state, exactly like the per-second reference. (All of that
    //    accounting sits after the advance for this reason; its
    //    integrands are constant in-span either way.)
    const TimePoint advanced =
        advance_span(views, run, compiled, cursors, t, span_end, metrics);
    if (advanced < span_end) {
      span_end = advanced;
      cause = SpanEndCause::kOverloadCrossing;
    }
    const TimePoint span = span_end - t;
    if (metrics) {
      // A scheduler-stable bound that lands exactly on a trace run
      // boundary means the load crossed a decision threshold — the
      // "trace change" flavour of a decision bound. Probed with cursor
      // copies so the real walk above is untouched (run_at re-seats a
      // cursor that has already walked past the probe point).
      if (cause == SpanEndCause::kSchedulerStable) {
        for (std::size_t i = 0; i < views.size(); ++i) {
          CompiledTrace::Cursor probe = cursors[i];
          if (compiled[i]->run_at(probe, span_end - 1).end == span_end) {
            cause = SpanEndCause::kTraceChange;
            break;
          }
        }
      }
      ++metrics->spans;
      ++metrics->span_end_causes[static_cast<std::size_t>(cause)];
      metrics->span_seconds.observe(static_cast<double>(span));
    }
    if (run.faults.has_value()) account_fault_span(*run.faults, span);
    if (run.slo_enabled) account_spare_span(run, span);
    if (run.priority_enabled) account_preemption_span(run, span);
    if (run.lifecycle_enabled) account_lifecycle_span(run, span);
    if (run.state.reconfiguring) run.result.reconfiguring_seconds += span;

    // 4. Machine transitions progress; completions land exactly at the
    //    end of the span (Cluster::step is exact for multi-second steps).
    //    Anything that touched the cluster this span — a completion or an
    //    in-flight reconfiguration (whose settle below may issue deferred
    //    offs) — empties the consult cache.
    bool cluster_changed = false;
    if (run.cluster.transitioning())
      cluster_changed = run.cluster.step(static_cast<Seconds>(span)) > 0;

    if (run.state.reconfiguring) {
      settle_reconfiguration(span_end - 1, run.cluster, run.state, nullptr);
      cluster_changed = true;
    }
    if (cluster_changed) invalidate_consults(run);

    run.result.peak_machines =
        std::max(run.result.peak_machines, run.cluster.machine_count());
    t = span_end;
  }
  // Single-workload runs: the per-app streams are exactly the cluster-wide
  // streams (every share is 1.0), so advance_span skipped them — install
  // the aggregates as the app slice. (A lifecycle single-app run went
  // through the k-way merge and attributed normally.)
  if (views.size() == 1 && !run.lifecycle_enabled) {
    run.app_qos[0] = run.qos;
    run.app_meters[0] = run.meter;
  }
  MultiSimulationResult out;
  finalize_run(run, views, out);
  return out;
}

}  // namespace bml
