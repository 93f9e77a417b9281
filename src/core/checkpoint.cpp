#include "core/checkpoint.hpp"

#include <cmath>

#include "core/protocol.hpp"
#include "radio/engine.hpp"
#include "support/check.hpp"

namespace urn::core {

namespace pm = obs::postmortem;

namespace {

/// Sanity caps on scenario counts from disk: anything beyond these marks
/// a corrupt file rather than a real run (the engine itself scales far
/// beyond, but a truncated-length read must not trigger a huge alloc).
constexpr std::uint64_t kMaxScenarioNodes = 1ull << 32;
constexpr std::uint64_t kMaxScenarioEdges = 1ull << 36;

/// False for params a run would refuse (`Params::validate`) or could not
/// size its phases from (non-finite constants).
bool usable_params(const Params& p) {
  if (!std::isfinite(p.alpha) || !std::isfinite(p.beta) ||
      !std::isfinite(p.gamma) || !std::isfinite(p.sigma) ||
      p.reset_policy > ResetPolicy::kNone) {
    return false;
  }
  try {
    p.validate();
  } catch (const CheckError&) {
    return false;
  }
  return true;
}

graph::Graph rebuild_graph(const CheckpointScenario& s) {
  graph::GraphBuilder builder(s.num_nodes);
  for (const auto& [u, v] : s.edges) builder.add_edge(u, v);
  return builder.build();
}

}  // namespace

CheckpointScenario make_scenario(const graph::Graph& g, const Params& params,
                                 const radio::WakeSchedule& schedule,
                                 std::uint64_t seed, Slot max_slots,
                                 radio::MediumOptions medium,
                                 std::uint64_t trial,
                                 std::vector<std::uint8_t> offsets) {
  CheckpointScenario s;
  s.params = params;
  s.num_nodes = g.num_nodes();
  s.edges.reserve(g.num_edges());
  // CSR adjacency stores both directions; keep each edge once (u < v).
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::NodeId u : g.neighbors(v)) {
      if (v < u) s.edges.emplace_back(v, u);
    }
  }
  s.wake_slots.assign(schedule.slots().begin(), schedule.slots().end());
  s.offsets = std::move(offsets);
  s.seed = seed;
  s.trial = trial;
  s.max_slots = max_slots;
  s.medium = medium;
  return s;
}

std::string render_scenario(const CheckpointScenario& s) {
  pm::Writer w;
  // Params.
  w.u64(s.params.n);
  w.u32(s.params.delta);
  w.u32(s.params.kappa1);
  w.u32(s.params.kappa2);
  w.f64(s.params.alpha);
  w.f64(s.params.beta);
  w.f64(s.params.gamma);
  w.f64(s.params.sigma);
  w.boolean(s.params.remember_served);
  w.u8(static_cast<std::uint8_t>(s.params.reset_policy));
  // Topology.
  w.u64(s.num_nodes);
  w.u64(s.edges.size());
  for (const auto& [u, v] : s.edges) {
    w.u32(u);
    w.u32(v);
  }
  // Schedule + offsets.
  w.u64(s.wake_slots.size());
  for (const Slot slot : s.wake_slots) w.i64(slot);
  w.u64(s.offsets.size());
  for (const std::uint8_t o : s.offsets) w.u8(o);
  // Run identity.
  w.u64(s.seed);
  w.u64(s.trial);
  w.i64(s.max_slots);
  w.f64(s.medium.drop_probability);
  return w.data();
}

bool read_scenario(pm::Reader& r, CheckpointScenario& out) {
  out.params.n = r.u64();
  out.params.delta = r.u32();
  out.params.kappa1 = r.u32();
  out.params.kappa2 = r.u32();
  out.params.alpha = r.f64();
  out.params.beta = r.f64();
  out.params.gamma = r.f64();
  out.params.sigma = r.f64();
  out.params.remember_served = r.boolean();
  out.params.reset_policy = static_cast<ResetPolicy>(r.u8());

  const std::uint64_t n = r.u64();
  if (!r.ok() || n > kMaxScenarioNodes) return false;
  out.num_nodes = static_cast<std::size_t>(n);
  const std::uint64_t num_edges = r.u64();
  if (!r.ok() || num_edges > kMaxScenarioEdges ||
      num_edges * 8 > r.remaining()) {
    return false;
  }
  out.edges.clear();
  out.edges.reserve(static_cast<std::size_t>(num_edges));
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    const graph::NodeId u = static_cast<graph::NodeId>(r.u32());
    const graph::NodeId v = static_cast<graph::NodeId>(r.u32());
    if (u >= out.num_nodes || v >= out.num_nodes) return false;
    out.edges.emplace_back(u, v);
  }
  const std::uint64_t n_wake = r.u64();
  if (!r.ok() || n_wake != n) return false;
  out.wake_slots.clear();
  out.wake_slots.reserve(static_cast<std::size_t>(n_wake));
  for (std::uint64_t i = 0; i < n_wake; ++i) {
    const Slot slot = r.i64();
    if (slot < 0) return false;
    out.wake_slots.push_back(slot);
  }
  const std::uint64_t n_off = r.u64();
  if (!r.ok() || (n_off != 0 && n_off != n)) return false;
  out.offsets.clear();
  out.offsets.reserve(static_cast<std::size_t>(n_off));
  for (std::uint64_t i = 0; i < n_off; ++i) {
    const std::uint8_t o = r.u8();
    if (o > 1) return false;
    out.offsets.push_back(o);
  }
  out.seed = r.u64();
  out.trial = r.u64();
  out.max_slots = r.i64();
  out.medium.drop_probability = r.f64();
  // Everything a run's constructors would refuse is corrupt here, so a
  // bad field fails the load instead of aborting the resume.
  const double drop = out.medium.drop_probability;
  if (out.max_slots <= 0 || !(drop >= 0.0 && drop < 1.0)) return false;
  return r.ok() && usable_params(out.params);
}

LoadedCheckpoint load_checkpoint(const std::string& path) {
  LoadedCheckpoint out;
  const pm::CheckpointFile file = pm::read_checkpoint_file(path);
  if (!file.ok) {
    out.error = file.error;
    return out;
  }
  out.kind = file.kind;
  out.version = file.version;
  out.position = file.position;
  out.engine_state = file.engine_state;
  pm::Reader r(file.scenario);
  if (!read_scenario(r, out.scenario)) {
    out.error = path + ": corrupt scenario section";
    return out;
  }
  if (out.kind == pm::EngineKind::kMisaligned &&
      out.scenario.offsets.size() != out.scenario.num_nodes) {
    out.error = path + ": misaligned checkpoint without phase offsets";
    return out;
  }
  out.graph = rebuild_graph(out.scenario);
  out.ok = true;
  return out;
}

namespace {

/// Rebuild the engine recorded in `ck` (aligned or misaligned), restore
/// its state, and hand it to `use`.  Returns a one-line error when the
/// state does not load, else an empty string.
template <typename Use>
std::string with_restored_engine(const LoadedCheckpoint& ck,
                                 const radio::WakeSchedule& schedule,
                                 Use&& use) {
  const CheckpointScenario& s = ck.scenario;
  auto restore = [&](auto& engine, const char* kind) -> std::string {
    pm::Reader r(ck.engine_state);
    if (!engine.load_state(r)) {
      return std::string("corrupt engine-state section (") + kind + ")";
    }
    use(engine);
    return {};
  };
  if (ck.kind == pm::EngineKind::kAligned) {
    radio::Engine<ColoringNode> engine(ck.graph, schedule,
                                       make_nodes(s.params, s.num_nodes),
                                       s.seed, s.medium);
    return restore(engine, "aligned");
  }
  radio::MisalignedEngine<ColoringNode> engine(
      ck.graph, schedule, make_nodes(s.params, s.num_nodes), s.offsets,
      s.seed);
  return restore(engine, "misaligned");
}

}  // namespace

ResumeResult resume_coloring(const LoadedCheckpoint& ck) {
  ResumeResult out;
  if (!ck.ok) {
    out.error = ck.error.empty() ? "checkpoint not loaded" : ck.error;
    return out;
  }
  const radio::WakeSchedule schedule(ck.scenario.wake_slots);
  out.error = with_restored_engine(ck, schedule, [&](auto& engine) {
    const radio::RunStats stats = engine.run(ck.scenario.max_slots);
    out.run = harvest_coloring(engine, ck.graph, schedule, stats);
  });
  out.ok = out.error.empty();
  return out;
}

CheckpointSummary describe_checkpoint(const LoadedCheckpoint& ck) {
  CheckpointSummary out;
  if (!ck.ok) {
    out.error = ck.error.empty() ? "checkpoint not loaded" : ck.error;
    return out;
  }
  const radio::WakeSchedule schedule(ck.scenario.wake_slots);
  out.position = ck.position;
  out.error = with_restored_engine(ck, schedule, [&](const auto& engine) {
    const std::size_t n = ck.scenario.num_nodes;
    out.nodes.reserve(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      const ColoringNode& node = engine.node(v);
      NodeSnapshot snap;
      snap.phase = static_cast<std::uint8_t>(node.phase());
      snap.color_index =
          node.decided() ? node.color() : node.verifying_color();
      snap.counter = node.counter();
      snap.decided = node.decided();
      snap.awake = engine.is_awake(v);
      snap.dead = engine.is_dead(v);
      snap.decision_slot = engine.decision_slot(v);
      snap.leader = node.leader();
      snap.intra_cluster = node.intra_cluster_color();
      snap.competitors = node.competitors();
      if (snap.awake) ++out.awake;
      if (snap.decided) ++out.decided;
      if (snap.dead) ++out.dead;
      out.nodes.push_back(snap);
    }
    out.stats = engine.stats();
  });
  out.ok = out.error.empty();
  return out;
}

}  // namespace urn::core
