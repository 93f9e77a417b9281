/// \file checkpoint.hpp
/// \brief Core side of the postmortem checkpoint format: the scenario
///        section codec, checkpoint loading, and bit-identical resume.
///
/// The obs layer (obs/postmortem.hpp) defines the container format and
/// the engine hook but knows nothing about graphs, params or protocols.
/// This header supplies the missing halves:
///
///  * `CheckpointScenario` — everything needed to reconstruct the engine
///    from scratch: params, graph edges, wake schedule, per-node phase
///    offsets (misaligned runs), master seed, resolved slot budget and
///    medium options.  Serialized as the checkpoint's scenario section,
///    making the file self-contained — resuming never re-runs a topology
///    or schedule generator.
///  * `load_checkpoint` / `resume_coloring` — parse a `checkpoint.urnc`,
///    rebuild the matching engine (aligned or misaligned), restore its
///    serialized state, and run to completion.  The resumed run is
///    bit-identical to the uninterrupted one: same RNG draw sequence,
///    same `RunStats`, same per-node final state (pinned by
///    tests/test_postmortem.cpp and the test_reference_diff fuzz grid).
///  * `describe_checkpoint` — a human-inspectable summary of the frozen
///    engine state (per-node phase/color/counter), used by
///    `tools/urn_postmortem inspect`.

#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "obs/postmortem.hpp"
#include "radio/misaligned_engine.hpp"

namespace urn::core {

/// The constructor arguments of the engine under checkpoint, in
/// serializable form.  `offsets` is empty for aligned-engine runs.
struct CheckpointScenario {
  Params params;
  std::size_t num_nodes = 0;
  /// Undirected edge list, each pair once with u < v.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::vector<Slot> wake_slots;
  std::vector<std::uint8_t> offsets;  ///< misaligned phase offsets (or empty)
  std::uint64_t seed = 0;
  std::uint64_t trial = 0;    ///< trial label (manifest/bundle naming)
  Slot max_slots = 0;         ///< resolved run cap (never 0 in a checkpoint)
  radio::MediumOptions medium;
};

/// Capture a scenario from live run inputs (extracts the edge list from
/// the CSR graph).
[[nodiscard]] CheckpointScenario make_scenario(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed, Slot max_slots,
    radio::MediumOptions medium = {}, std::uint64_t trial = 0,
    std::vector<std::uint8_t> offsets = {});

/// Serialize the scenario section (handed to obs::postmortem::Checkpointer
/// as the pre-rendered scenario bytes).
[[nodiscard]] std::string render_scenario(const CheckpointScenario& s);

/// Decode a scenario section.  Returns false on truncated/corrupt bytes,
/// and on any field a run would refuse: a negative wake slot, a drop
/// probability outside [0, 1) (or NaN), or params `Params::validate`
/// rejects.
[[nodiscard]] bool read_scenario(obs::postmortem::Reader& r,
                                 CheckpointScenario& out);

/// A fully parsed checkpoint: header, decoded scenario, rebuilt graph,
/// and the raw engine-state bytes (decoded by the matching engine's
/// `load_state` at resume time).
struct LoadedCheckpoint {
  obs::postmortem::EngineKind kind = obs::postmortem::EngineKind::kAligned;
  std::uint16_t version = 0;
  std::int64_t position = 0;  ///< slot (aligned) or half-slot (misaligned)
  CheckpointScenario scenario;
  graph::Graph graph;  ///< rebuilt from scenario.edges
  std::string engine_state;
  bool ok = false;
  std::string error;  ///< one-line diagnostic when !ok
};

[[nodiscard]] LoadedCheckpoint load_checkpoint(const std::string& path);

/// Resume outcome; `ok == false` means the engine state failed to load
/// (version/graph mismatch or corrupt bytes) and `run` is meaningless.
struct ResumeResult {
  RunResult run;
  bool ok = false;
  std::string error;
};

/// Rebuild the engine recorded in `ck` (aligned or misaligned), restore
/// its state, and run to the scenario's slot budget.  The result is
/// field-for-field identical to the uninterrupted run's `run_coloring`
/// result.
[[nodiscard]] ResumeResult resume_coloring(const LoadedCheckpoint& ck);

/// Frozen per-node protocol view for human-readable state dumps.
struct NodeSnapshot {
  std::uint8_t phase = 0;       ///< core::Phase as its integer code
  std::int32_t color_index = 0; ///< A_i / C_i index being verified or held
  std::int64_t counter = 0;     ///< c_v
  bool decided = false;
  bool awake = false;
  bool dead = false;            ///< crash-stop (aligned medium only)
  Slot decision_slot = -1;
  graph::NodeId leader = graph::kInvalidNode;
  std::int32_t intra_cluster = -1;
  std::size_t competitors = 0;  ///< |P_v|
};

/// Aggregate + per-node summary of a checkpoint's frozen engine state.
struct CheckpointSummary {
  std::int64_t position = 0;
  radio::RunStats stats;
  std::size_t awake = 0;
  std::size_t decided = 0;
  std::size_t dead = 0;
  std::vector<NodeSnapshot> nodes;
  bool ok = false;
  std::string error;
};

/// Reconstruct the checkpointed engine and read its state out without
/// running it (the `urn_postmortem inspect` backend).
[[nodiscard]] CheckpointSummary describe_checkpoint(
    const LoadedCheckpoint& ck);

/// Harvest a RunResult from a finished engine (shared by the straight
/// runner path and the resume path so both extract identically).  Works
/// on either medium: decision slots and latencies are in local slots.
template <typename EngineT>
[[nodiscard]] RunResult harvest_coloring(const EngineT& engine,
                                         const graph::Graph& g,
                                         const radio::WakeSchedule& schedule,
                                         const radio::RunStats& stats) {
  RunResult result;
  result.medium = stats;
  result.all_decided = stats.all_decided;
  result.colors.resize(g.num_nodes(), graph::kUncolored);
  result.wake_slot.resize(g.num_nodes());
  result.decision_slot.resize(g.num_nodes());
  result.leader_of.resize(g.num_nodes(), graph::kInvalidNode);
  result.intra_cluster.resize(g.num_nodes(), -1);

  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& node = engine.node(v);
    result.wake_slot[v] = schedule.wake_slot(v);
    result.decision_slot[v] = engine.decision_slot(v);
    result.colors[v] = node.color();
    if (engine.decision_slot(v) != EngineT::kUndecided) {
      result.latency.push_back(engine.decision_latency(v));
    }
    if (node.is_leader()) ++result.num_leaders;
    result.leader_of[v] = node.leader();
    result.intra_cluster[v] = node.intra_cluster_color();
    result.total_resets += node.stats().resets;
    result.max_verify_states =
        std::max(result.max_verify_states, node.stats().verify_states);
    result.duplicate_serves += node.stats().duplicate_serves;
  }

  result.check = graph::validate(g, result.colors);
  result.max_color = graph::max_color(result.colors);
  return result;
}

}  // namespace urn::core
