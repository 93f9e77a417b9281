#include "core/runner.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "obs/bintrace.hpp"
#include "obs/profile.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace urn::core {

Slot RunResult::max_latency() const {
  Slot best = 0;
  for (Slot t : latency) best = std::max(best, t);
  return best;
}

double RunResult::mean_latency() const {
  if (latency.empty()) return 0.0;
  double sum = 0.0;
  for (Slot t : latency) sum += static_cast<double>(t);
  return sum / static_cast<double>(latency.size());
}

Slot default_slot_budget(const Params& params,
                         const radio::WakeSchedule& schedule) {
  // Theorem 3: every node decides within O(κ₂⁴ Δ log n) of its wake-up.
  // Budget = last wake + a large multiple of the per-state quantities.
  const double k2 = params.kappa2;
  const Slot per_state = params.passive_slots() + 3 * params.threshold() +
                         2 * params.critical_range(1);
  const auto states = static_cast<Slot>(3.0 * (k2 + 2.0));
  return schedule.latest() + states * per_state + 10000;
}

std::vector<ColoringNode> make_nodes(const Params& params, std::size_t n) {
  std::vector<ColoringNode> nodes;
  nodes.reserve(n);
  for (graph::NodeId v = 0; v < n; ++v) nodes.emplace_back(&params, v);
  return nodes;
}

namespace {

namespace pm = obs::postmortem;

/// True when `trace` asks for a consumer of the engine's event stream.
bool consumes_events(const TraceOptions& trace) {
  return trace.metrics || !trace.events_jsonl.empty() ||
         !trace.events_bin.empty() || trace.monitor ||
         trace.memory != nullptr;
}

/// The runner's engine observer (obs/observer.hpp).  It owns the
/// optional consumers `TraceOptions` requests and feeds each directly:
/// events to the metrics series, the JSONL and binary logs, the online
/// monitor and the caller's memory capture; slot samples to the
/// telemetry probe; checkpoint offers to the postmortem checkpointer;
/// phase spans to the caller's span sink.  Events are the one compile-
/// time switch (`kEventsOn`): without them the engine keeps its batched
/// protocol sweep, so each entry point instantiates the engine twice.
template <bool kEventsOn>
class RunObserver {
 public:
  static constexpr bool kEvents = kEventsOn;
  static constexpr bool kSamples = true;
  static constexpr bool kCheckpoints = true;
  static constexpr bool kSpans = true;

  RunObserver(const graph::Graph& g, const Params& params,
              const radio::WakeSchedule& schedule, const TraceOptions& trace,
              pm::Checkpointer* ckpt = nullptr)
      : memory_(trace.memory), spans_(trace.spans), ckpt_(ckpt) {
    if (trace.telemetry != nullptr) probe_.emplace(*trace.telemetry);
    if constexpr (kEventsOn) {
      if (trace.metrics) metrics_.emplace(trace.metrics_window);
      if (!trace.events_jsonl.empty()) {
        jsonl_.emplace(trace.events_jsonl);
        URN_CHECK_MSG(jsonl_->ok(),
                      "traced run: cannot open " << trace.events_jsonl);
      }
      if (!trace.events_bin.empty()) {
        bin_.emplace(trace.events_bin, trace.bin_ring);
        URN_CHECK_MSG(bin_->ok(),
                      "traced run: cannot open " << trace.events_bin);
      }
      if (trace.monitor) {
        monitor_.emplace(make_monitor_config(g, params, schedule));
      }
    }
  }

  // Events.
  void record(const obs::Event& e) {
    if (metrics_) metrics_->record(e);
    if (jsonl_) jsonl_->record(e);
    if (bin_) bin_->record(e);
    if (monitor_) monitor_->record(e);
    if (memory_ != nullptr) memory_->record(e);
  }
  void flush() {
    if (jsonl_) jsonl_->flush();
    if (bin_) bin_->flush();
  }

  // Slot samples.
  void begin_run() {
    if (probe_) probe_->begin_run();
  }
  void on_slot(const obs::telemetry::SlotSample& s) {
    if (probe_) probe_->on_slot(s);
  }
  void end_run() {
    if (probe_) probe_->end_run();
  }
  [[nodiscard]] obs::telemetry::EngineProbe* probe() {
    return probe_ ? &*probe_ : nullptr;
  }

  // Checkpoint offers.
  template <typename Engine>
  void maybe_checkpoint(const Engine& engine, radio::Tick tick) {
    if (ckpt_ != nullptr) ckpt_->maybe_checkpoint(engine, tick);
  }

  // Phase spans.
  [[nodiscard]] std::uint64_t now_ns() const {
    return spans_ != nullptr ? spans_->now_ns() : 0;
  }
  void record(const char* name, std::uint32_t track, std::uint64_t start_ns,
              std::uint64_t dur_ns, std::int64_t arg) {
    if (spans_ != nullptr) spans_->record(name, track, start_ns, dur_ns, arg);
  }

  /// Hand the artifacts to a result carrying the shared `series` /
  /// `events_recorded` / `monitor` fields, and account the tracing
  /// overhead under `trace.overhead.*` (deterministic event / byte
  /// counts; the final-flush wall clock lands under `.ns` keys, which the
  /// bench regression diff ignores).
  template <typename Result>
  void finish_into(Result& result) {
    if (metrics_) result.series = metrics_->finish(result.medium.slots_run);
    auto& counters = obs::CounterRegistry::global();
    if (jsonl_ || bin_) {
      obs::ProfileScope flush_scope("trace.overhead.flush");
      flush();
    }
    if (jsonl_) {
      result.events_recorded = jsonl_->written();
      counters.add("trace.overhead.jsonl.events", jsonl_->written());
      counters.add("trace.overhead.jsonl.bytes", jsonl_->bytes());
    }
    if (bin_) {
      result.events_recorded = bin_->written();
      counters.add("trace.overhead.bin.events", bin_->written());
      counters.add("trace.overhead.bin.bytes", bin_->bytes());
    }
    if (monitor_) result.monitor = monitor_->report();
  }

 private:
  std::optional<obs::MetricsSink> metrics_;
  std::optional<obs::JsonlSink> jsonl_;
  std::optional<obs::BinSink> bin_;
  std::optional<obs::InvariantMonitorSink> monitor_;
  obs::MemorySink* memory_;
  std::optional<obs::telemetry::EngineProbe> probe_;
  obs::SpanSink* spans_;
  pm::Checkpointer* ckpt_;
};

/// Validate a run's inputs and resolve its slot budget (0 = default).
Slot prepare_run(const graph::Graph& g, const Params& params,
                 const radio::WakeSchedule& schedule, Slot max_slots) {
  params.validate();
  URN_CHECK(schedule.size() == g.num_nodes());
  return max_slots == 0 ? default_slot_budget(params, schedule) : max_slots;
}

/// Call `body` with the observer `trace` asks for: the events-on
/// instantiation only when some consumer reads the event stream.
template <typename Body>
auto with_observer(const graph::Graph& g, const Params& params,
                   const radio::WakeSchedule& schedule,
                   const TraceOptions& trace, Body&& body) {
  if (consumes_events(trace)) {
    RunObserver<true> observer(g, params, schedule, trace);
    return body(observer);
  }
  RunObserver<false> observer(g, params, schedule, trace);
  return body(observer);
}

/// The coloring run path: build nodes, run the engine under `observer`,
/// extract everything the experiments need.
template <typename O>
RunResult run_impl(const graph::Graph& g, const Params& params,
                   const radio::WakeSchedule& schedule, std::uint64_t seed,
                   Slot max_slots, radio::MediumOptions medium,
                   O& observer) {
  RunResult result;
  {
    obs::ProfileScope profile("core.run_coloring");
    radio::Engine<ColoringNode, O> engine(g, schedule, make_nodes(params, g.num_nodes()),
                                          seed, medium, &observer);
    const radio::RunStats stats = engine.run(max_slots);

    // The extraction lives in harvest_coloring so the checkpoint-resume
    // path (core/checkpoint.cpp) produces field-for-field identical
    // results by construction.
    result = harvest_coloring(engine, g, schedule, stats);
    if (obs::telemetry::EngineProbe* probe = observer.probe()) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (engine.decision_slot(v) != engine.kUndecided) {
          probe->record_decision_latency(
              static_cast<std::uint64_t>(engine.decision_latency(v)));
        }
      }
    }

    // Thread-safe `add`: run_impl executes concurrently under the trial
    // executor (exec::parallel_for_trials).
    auto& counters = obs::CounterRegistry::global();
    counters.add("core.run_coloring.runs", 1);
    counters.add("core.run_coloring.slots",
                 static_cast<std::uint64_t>(stats.slots_run));
    counters.add("core.run_coloring.node_slots",
                 static_cast<std::uint64_t>(stats.slots_run) * g.num_nodes());
  }
  observer.finish_into(result);
  return result;
}

/// Run only the first stage (leader election + cluster association) on
/// the same engine and observer as `run_impl`: identical node
/// construction, medium options and observation — only the stopping
/// rule differs (manual stepping until every node is covered).
template <typename O>
LeaderElectionResult leader_election_impl(const graph::Graph& g,
                                          const Params& params,
                                          const radio::WakeSchedule& schedule,
                                          std::uint64_t seed, Slot max_slots,
                                          radio::MediumOptions medium,
                                          O& observer) {
  LeaderElectionResult result;
  {
    obs::ProfileScope profile("core.run_leader_election");
    radio::Engine<ColoringNode, O> engine(g, schedule, make_nodes(params, g.num_nodes()),
                                          seed, medium, &observer);
    // Step()-driven loop: run()'s sample bracketing and final flush never
    // fire, so they happen here.
    observer.begin_run();
    result.leader_of.assign(g.num_nodes(), graph::kInvalidNode);
    result.cover_latency.assign(g.num_nodes(), -1);

    // "Covered" = decided (leader or any later color) or past A₀ (knows a
    // leader).  We step manually and record first-coverage times.
    auto covered = [&engine](graph::NodeId v) {
      const ColoringNode& node = engine.node(v);
      if (node.decided()) return true;
      if (node.phase() == Phase::kRequest) return true;
      return node.phase() == Phase::kVerify && node.verifying_color() > 0;
    };
    std::size_t uncovered = g.num_nodes();
    while (engine.current_slot() < max_slots && uncovered > 0) {
      engine.step();
      const Slot now = engine.current_slot() - 1;
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (result.cover_latency[v] >= 0) continue;
        if (now < schedule.wake_slot(v)) continue;
        if (covered(v)) {
          result.cover_latency[v] = now - schedule.wake_slot(v);
          --uncovered;
        }
      }
    }
    engine.flush();
    result.all_covered = uncovered == 0;
    result.medium = engine.stats();
    obs::telemetry::EngineProbe* probe = observer.probe();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const ColoringNode& node = engine.node(v);
      if (node.is_leader()) result.leaders.push_back(v);
      result.leader_of[v] = node.leader();
      if (probe != nullptr && result.cover_latency[v] >= 0) {
        probe->record_decision_latency(
            static_cast<std::uint64_t>(result.cover_latency[v]));
      }
    }
    observer.end_run();

    auto& counters = obs::CounterRegistry::global();
    counters.add("core.run_leader_election.runs", 1);
    counters.add("core.run_leader_election.slots",
                 static_cast<std::uint64_t>(result.medium.slots_run));
  }
  observer.finish_into(result);
  return result;
}

/// Render the bundle's `manifest.json`: run identity, scenario shape, and
/// which files the bundle contains.
std::string manifest_json(const PostmortemOptions& po,
                          const CheckpointScenario& s,
                          const pm::Checkpointer& ckpt,
                          const RunResult& result,
                          const std::string& ring_path) {
  std::string j = "{";
  j += "\"format\":\"urn-postmortem-bundle\"";
  j += ",\"checkpoint_version\":" + std::to_string(pm::kCkptVersion);
  j += ",\"engine\":\"aligned\"";
  j += ",\"trial\":" + std::to_string(po.trial);
  j += ",\"seed\":" + std::to_string(s.seed);
  j += ",\"nodes\":" + std::to_string(s.num_nodes);
  j += ",\"edges\":" + std::to_string(s.edges.size());
  j += ",\"max_slots\":" + std::to_string(s.max_slots);
  j += ",\"drop_probability\":" + std::to_string(s.medium.drop_probability);
  j += ",\"checkpoint_every\":" + std::to_string(po.checkpoint_every);
  j += ",\"checkpoints_written\":" +
       std::to_string(ckpt.checkpoints_written());
  j += ",\"last_checkpoint_position\":" +
       std::to_string(ckpt.last_position());
  j += ",\"checkpoint_file\":\"" + pm::json_escape(ckpt.path()) + "\"";
  j += ",\"ring_file\":\"" + pm::json_escape(ring_path) + "\"";
  j += ",\"slots_run\":" + std::to_string(result.medium.slots_run);
  j += std::string(",\"all_decided\":") +
       (result.all_decided ? "true" : "false");
  if (result.monitor) {
    j += ",\"violations\":" +
         std::to_string(result.monitor->total_violations());
  }
  j += "}\n";
  return j;
}

/// Bundle setup and teardown around `run_impl`: periodic checkpoints into
/// the bundle directory, a flight-recorder ring there by default, a crash
/// handler armed for the duration of the run, a manifest always, and the
/// full bundle (monitor + telemetry snapshots) on invariant violation.
/// `max_slots` is resolved: the checkpoint scenario must record the
/// actual cap so a resumed run stops at the same slot.
RunResult run_coloring_postmortem(const graph::Graph& g, const Params& params,
                                  const radio::WakeSchedule& schedule,
                                  std::uint64_t seed,
                                  const TraceOptions& trace, Slot max_slots,
                                  radio::MediumOptions medium) {
  const PostmortemOptions& po = trace.postmortem;
  URN_CHECK_MSG(pm::ensure_dir(po.dir),
                "postmortem: cannot create bundle dir " << po.dir);

  TraceOptions local = trace;
  if (po.dump_on_violation) local.monitor = true;
  if (local.events_bin.empty()) {
    // Default flight recorder: a bounded ring inside the bundle.
    local.events_bin = po.dir + "/" + pm::kRingFileName;
    if (local.bin_ring == 0) local.bin_ring = 4096;
  }

  const CheckpointScenario scenario =
      make_scenario(g, params, schedule, seed, max_slots, medium, po.trial);
  pm::Checkpointer ckpt(po.dir + "/" + pm::kCkptFileName,
                        pm::EngineKind::kAligned, po.checkpoint_every,
                        render_scenario(scenario));

  // The binary log makes every postmortem run an events-on run.
  RunObserver<true> observer(g, params, schedule, local, &ckpt);
  pm::arm_crash_handler(po.dir);
  pm::set_crash_flush(
      [](void* arg) { static_cast<RunObserver<true>*>(arg)->flush(); },
      &observer);
  RunResult result =
      run_impl(g, params, schedule, seed, max_slots, medium, observer);
  pm::set_crash_flush(nullptr, nullptr);
  pm::disarm_crash_handler();
  URN_CHECK_MSG(!ckpt.failed(),
                "postmortem: checkpoint write failed under " << po.dir);

  pm::write_text_file(po.dir + "/" + pm::kManifestFileName,
                      manifest_json(po, scenario, ckpt, result,
                                    local.events_bin));
  if (po.dump_on_violation && result.monitor && !result.monitor->ok()) {
    pm::write_text_file(po.dir + "/" + pm::kMonitorFileName,
                        pm::monitor_report_json(*result.monitor));
    if (local.telemetry != nullptr) {
      pm::write_text_file(
          po.dir + "/" + pm::kTelemetryFileName,
          obs::telemetry::to_jsonl_line(local.telemetry->snapshot()));
    }
    result.bundle = po.dir;
  }
  return result;
}

}  // namespace

obs::MonitorConfig make_monitor_config(const graph::Graph& g,
                                       const Params& params,
                                       const radio::WakeSchedule& schedule) {
  obs::MonitorConfig config;
  config.kappa2 = params.kappa2;
  // Theorem 3 budget is per node, measured from its own wake-up: the run
  // budget minus the latest wake slot it covers.
  config.latency_budget =
      default_slot_budget(params, schedule) - schedule.latest();
  config.theta.reserve(g.num_nodes());
  config.adj_offsets.reserve(g.num_nodes() + 1);
  config.adj.reserve(2 * g.num_edges());
  config.adj_offsets.push_back(0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    config.theta.push_back(graph::local_density_theta(g, v));
    for (graph::NodeId u : g.neighbors(v)) config.adj.push_back(u);
    config.adj_offsets.push_back(
        static_cast<std::uint32_t>(config.adj.size()));
  }
  return config;
}

RunResult run_coloring(const graph::Graph& g, const Params& params,
                       const radio::WakeSchedule& schedule,
                       std::uint64_t seed, Slot max_slots,
                       radio::MediumOptions medium) {
  return run_coloring_traced(g, params, schedule, seed, TraceOptions{},
                             max_slots, medium);
}

RunResult run_coloring_traced(const graph::Graph& g, const Params& params,
                              const radio::WakeSchedule& schedule,
                              std::uint64_t seed, const TraceOptions& trace,
                              Slot max_slots, radio::MediumOptions medium) {
  max_slots = prepare_run(g, params, schedule, max_slots);
  if (trace.postmortem.enabled()) {
    return run_coloring_postmortem(g, params, schedule, seed, trace,
                                   max_slots, medium);
  }
  return with_observer(g, params, schedule, trace, [&](auto& observer) {
    return run_impl(g, params, schedule, seed, max_slots, medium, observer);
  });
}

LeaderElectionResult run_leader_election(const graph::Graph& g,
                                         const Params& params,
                                         const radio::WakeSchedule& schedule,
                                         std::uint64_t seed, Slot max_slots,
                                         radio::MediumOptions medium) {
  return run_leader_election_traced(g, params, schedule, seed,
                                    TraceOptions{}, max_slots, medium);
}

LeaderElectionResult run_leader_election_traced(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    const TraceOptions& trace, Slot max_slots, radio::MediumOptions medium) {
  max_slots = prepare_run(g, params, schedule, max_slots);
  return with_observer(g, params, schedule, trace, [&](auto& observer) {
    return leader_election_impl(g, params, schedule, seed, max_slots, medium,
                                observer);
  });
}

LocalityReport check_locality(const graph::Graph& g,
                              const std::vector<graph::Color>& colors,
                              std::uint32_t kappa2) {
  URN_CHECK(colors.size() == g.num_nodes());
  LocalityReport report;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto theta =
        static_cast<double>(graph::local_density_theta(g, v));
    const graph::Color phi = graph::highest_neighborhood_color(g, colors, v);
    if (phi == graph::kUncolored) continue;
    const double ratio = static_cast<double>(phi) / theta;
    if (ratio > report.max_ratio) {
      report.max_ratio = ratio;
      report.worst = v;
    }
    const double derivable_bound =
        (static_cast<double>(kappa2) + 1.0) * theta +
        static_cast<double>(kappa2);
    if (static_cast<double>(phi) > derivable_bound) {
      report.holds = false;
    }
  }
  return report;
}

}  // namespace urn::core
