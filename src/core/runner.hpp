/// \file runner.hpp
/// \brief One-call execution of the coloring protocol on a graph, plus the
///        per-run verification of the paper's theorems.
///
/// `run_coloring` wires a `ColoringNode` per vertex into the radio engine,
/// runs to quiescence (every node awake and decided) or a slot cap, and
/// extracts everything the experiments need: the coloring itself, per-node
/// decision latencies T_v (Sect. 2), cluster structure, medium statistics,
/// and protocol event counters.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "obs/monitor.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "radio/engine.hpp"
#include "radio/wakeup.hpp"

namespace urn::core {

/// Everything measured in a single protocol execution.
struct RunResult {
  /// Final colors (graph::kUncolored for undecided nodes on timeout).
  std::vector<graph::Color> colors;
  /// Wake slot per node (copied from the schedule).
  std::vector<Slot> wake_slot;
  /// Decision slot per node (−1 if the run timed out before deciding).
  std::vector<Slot> decision_slot;
  /// T_v = decision − wake per node (only nodes that decided).
  std::vector<Slot> latency;

  radio::RunStats medium;   ///< transmissions / deliveries / collisions
  bool all_decided = false; ///< completeness within the slot budget

  graph::ColoringCheck check;  ///< correctness + completeness validation
  graph::Color max_color = graph::kUncolored;

  std::size_t num_leaders = 0;
  /// leader() per node (kInvalidNode for leaders themselves / undecided).
  std::vector<graph::NodeId> leader_of;
  /// Intra-cluster color per node (−1 for leaders / unassigned).
  std::vector<std::int32_t> intra_cluster;

  std::uint64_t total_resets = 0;
  std::uint32_t max_verify_states = 0;  ///< max #A_i states any node entered
  std::uint64_t duplicate_serves = 0;

  /// Events streamed to the event logs (`events_jsonl` / `events_bin`;
  /// 0 when not tracing).
  std::uint64_t events_recorded = 0;
  /// Online invariant report; only populated with `TraceOptions::monitor`.
  std::optional<obs::MonitorReport> monitor;
  /// Postmortem bundle directory; non-empty when a violation bundle was
  /// captured (`PostmortemOptions::dump_on_violation` and the monitor
  /// fired).
  std::string bundle;

  /// Max T_v over decided nodes (0 if none).
  [[nodiscard]] Slot max_latency() const;
  /// Mean T_v over decided nodes (0 if none).
  [[nodiscard]] double mean_latency() const;
};

/// Postmortem checkpointing knobs for `run_coloring_traced`.  When `dir`
/// is set the run writes a self-contained bundle directory: a versioned
/// `checkpoint.urnc` (periodic when `checkpoint_every > 0`, else a single
/// snapshot at the first slot), a flight-recorder binary event ring
/// (`ring.bin`, unless `TraceOptions::events_bin` already points
/// somewhere), and a `manifest.json`.  With `dump_on_violation` the
/// invariant monitor is forced on and a violation additionally captures
/// `monitor.json` (+ `telemetry.json` when a registry is attached) and
/// reports the bundle in `RunResult::bundle`.  A fatal signal during the
/// run leaves a `CRASH.txt` next to the flushed ring.
struct PostmortemOptions {
  /// Bundle directory (created if missing).  Empty = postmortem off.
  std::string dir;
  /// Checkpoint period in slots (0 = one snapshot at the first slot).
  radio::Slot checkpoint_every = 0;
  /// Capture a full bundle and fill `RunResult::bundle` when the
  /// invariant monitor reports violations (implies
  /// `TraceOptions::monitor`).
  bool dump_on_violation = false;
  /// Trial label recorded in the manifest (bundle naming under the
  /// parallel executor uses `exec::trial_tag`).
  std::uint64_t trial = 0;

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// Observability knobs for `run_coloring_traced`.  Everything defaults to
/// off, which is what `run_coloring` runs with.  The consumers of the
/// event stream (the event logs, the monitor, memory capture) switch the
/// engine to its events-on instantiation; telemetry, spans and
/// checkpoints alone keep the batched protocol sweep.  No knob changes
/// the run's results.  The per-window metrics series is derived offline
/// from an event log (`urn_trace --metrics-out`, obs/metrics.hpp).
struct TraceOptions {
  /// When non-empty, stream every event to this JSONL file (the format
  /// `urn_trace` consumes).
  std::string events_jsonl;
  /// When non-empty, stream every event to this compact binary file
  /// (`obs::BinSink`; ~4–5× smaller and far cheaper to write than JSONL;
  /// `urn_trace` auto-detects it by magic).
  std::string events_bin;
  /// Ring capacity for the binary log: 0 = keep everything; N > 0 = keep
  /// only the last N events in O(N) memory ("flight recorder" mode; the
  /// header records how many were dropped).
  std::size_t bin_ring = 0;
  /// Check the paper's invariants online (`make_monitor_config` builds
  /// the configuration) and fill `RunResult::monitor`.
  bool monitor = false;
  /// Optional wall-clock span timeline: the engine records per-slot
  /// phase residencies (wake-up processing / protocol step / medium
  /// resolution) into it.  Spans alone do NOT turn on event emission.
  /// Not owned; must outlive the run.
  obs::SpanSink* spans = nullptr;
  /// Optional live telemetry: run the engine with an
  /// `obs::telemetry::EngineProbe` feeding this registry (slot/medium
  /// counters, the live `engine.undecided` gauge, and the
  /// `run.decision_latency` histogram).  Telemetry alone does NOT turn
  /// on event emission, so a probed sweep keeps its untraced
  /// throughput.  Not owned; must outlive the run.
  obs::telemetry::Registry* telemetry = nullptr;
  /// Optional in-memory event capture: every event is also recorded
  /// into this sink (unbounded; intended for in-process analysis such
  /// as `obs::explain_trace` — no file round-trip).  Not owned; must
  /// outlive the run.
  obs::MemorySink* memory = nullptr;
  /// Periodic checkpointing + violation bundle capture (see
  /// `PostmortemOptions`).  Only honored by `run_coloring_traced`; the
  /// leader-election entry points ignore it.
  PostmortemOptions postmortem;
};

/// Build the full `obs::MonitorConfig` for a run on `g`: κ₂ and the
/// Theorem 3 per-node latency budget from `params`/`schedule`, θ_v per
/// node, and the CSR adjacency for the conflict / leader-independence
/// checks.  O(n·Δ²) for the θ computation — intended for monitored
/// (opt-in) runs, not the hot path.
[[nodiscard]] obs::MonitorConfig make_monitor_config(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule);

/// Execute the protocol: `run_coloring_traced` with default
/// `TraceOptions`.
///
/// \param g          the network graph
/// \param params     protocol parameters (validated)
/// \param schedule   wake slot per node; size must equal g.num_nodes()
/// \param seed       master seed; every node derives its own stream
/// \param max_slots  hard cap (0 = a generous default derived from params)
/// \param medium     failure-injection knobs (default: ideal medium)
[[nodiscard]] RunResult run_coloring(const graph::Graph& g,
                                     const Params& params,
                                     const radio::WakeSchedule& schedule,
                                     std::uint64_t seed, Slot max_slots = 0,
                                     radio::MediumOptions medium = {});

/// `run_coloring` with observability: identical protocol execution (same
/// seeds, same RNG streams, bit-identical coloring), observed by the
/// consumers `trace` requests — event logs, monitor, memory capture,
/// telemetry, spans and postmortem checkpoints.
[[nodiscard]] RunResult run_coloring_traced(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    const TraceOptions& trace, Slot max_slots = 0,
    radio::MediumOptions medium = {});

/// One `ColoringNode` per vertex 0..n-1, all reading `params` (which must
/// outlive them).
[[nodiscard]] std::vector<ColoringNode> make_nodes(const Params& params,
                                                   std::size_t n);

/// A conservative default slot budget: enough for the theory bound
/// O(κ₂⁴ Δ log n) after the last wake-up, with headroom.
[[nodiscard]] Slot default_slot_budget(const Params& params,
                                       const radio::WakeSchedule& schedule);

/// Theorem 4 verification.  The theorem's statement writes the bound as
/// φ_v ≤ κ₂·θ_v; the bound its own derivation yields (via Corollary 1:
/// color ≤ tc(κ₂+1)+κ₂ with tc ≤ θ_v) is φ_v ≤ (κ₂+1)·θ_v + κ₂, i.e. the
/// same O(κ₂·θ_v) with explicit constants.  `holds` checks the derivable
/// bound; `max_ratio` reports max φ_v/θ_v so experiments can show the
/// ratio is O(κ₂) and usually far smaller.
struct LocalityReport {
  bool holds = true;       ///< φ_v ≤ (κ₂+1)·θ_v + κ₂ everywhere
  double max_ratio = 0.0;  ///< max over v of φ_v / θ_v
  graph::NodeId worst = graph::kInvalidNode;
};

[[nodiscard]] LocalityReport check_locality(
    const graph::Graph& g, const std::vector<graph::Color>& colors,
    std::uint32_t kappa2);

/// Result of running only the first stage of the protocol: leader election
/// plus cluster association — an MIS-and-clustering-from-scratch primitive
/// (the paper's C₀ layer; cf. the clustering lineage of [14] and the MIS
/// algorithm of [21] in its related work).
struct LeaderElectionResult {
  /// Sorted node ids that entered C₀.
  std::vector<graph::NodeId> leaders;
  /// leader() per node (kInvalidNode for leaders / uncovered nodes).
  std::vector<graph::NodeId> leader_of;
  /// Slots from each node's wake-up until it was *covered* (became a
  /// leader or learned its leader).
  std::vector<Slot> cover_latency;
  bool all_covered = false;
  radio::RunStats medium;

  /// Events streamed to the event logs (`events_jsonl` / `events_bin`;
  /// 0 when not tracing).
  std::uint64_t events_recorded = 0;
  /// Online invariant report; only populated with `TraceOptions::monitor`.
  std::optional<obs::MonitorReport> monitor;
};

/// Run the protocol only until every node is a leader or knows one
/// (i.e. left A₀), then stop.  The leader set is, with high probability,
/// a maximal independent set of g.  Runs on the same engine and observer
/// as `run_coloring`, so failure injection (`medium`) and — via the
/// traced variant — every `TraceOptions` consumer but the postmortem
/// bundle apply to leader-election runs too.
[[nodiscard]] LeaderElectionResult run_leader_election(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    Slot max_slots = 0, radio::MediumOptions medium = {});

/// `run_leader_election` with observability: identical execution (same
/// seeds and RNG streams), observed as `trace` requests (`postmortem` is
/// ignored).  `run_leader_election` is this with default `TraceOptions`.
[[nodiscard]] LeaderElectionResult run_leader_election_traced(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    const TraceOptions& trace, Slot max_slots = 0,
    radio::MediumOptions medium = {});

}  // namespace urn::core
