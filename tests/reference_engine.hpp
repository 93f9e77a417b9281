/// \file reference_engine.hpp
/// \brief A deliberately naive re-implementation of the radio medium used
///        ONLY for differential testing.
///
/// Same semantics and same randomness derivation as radio::Engine, but
/// written in the most obvious way possible (full arrays rebuilt every
/// slot, no epoch stamps, no touched-listener lists, no counters, no
/// fast-forward).  The differential tests run identical protocols on both
/// engines and demand bit-identical outcomes; any divergence pinpoints a
/// bug in the optimized engine's bookkeeping.
///
/// Two details are a *specification* shared with the optimized engine,
/// because they fix the medium-RNG draw sequence when drop_probability
/// is positive (per-node streams and aggregate stats are order-blind):
///
///  1. Node iteration order: (wake slot, id) ascending while nodes are
///     still waking; ascending id from the slot the last node wakes.
///  2. Per-slot listener processing order: walk transmitters in that node
///     order, each transmitter's neighbors in adjacency order, and
///     process every live awake listener at its FIRST visit only.  A
///     clean (count == 1) listener that is not itself transmitting draws
///     the drop chance from the medium RNG at that moment.
///
/// The half-slot mode (constructed with per-node phase offsets) is the
/// naive twin of the engine's half-slot medium (radio/misaligned_engine.hpp):
/// global time in half-slots, node v's local slot t on halves 2t+φ_v and
/// 2t+φ_v+1, a frame on both halves of its sender's slot, and a frame
/// received iff the listener was awake and silent on both halves and it
/// was the only frame audible there.  Every half it rebuilds both
/// per-half neighbor-count arrays from an explicit frame list, and it
/// records a decision at the end of the half in the node's own local
/// slot.  It has no drop, deactivation or fast-forward, and its frame
/// order is irrelevant: at most one frame can reach a listener per half.

#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "radio/engine.hpp"
#include "radio/message.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace urn::testing {

template <radio::NodeProtocol P>
class ReferenceEngine {
 public:
  ReferenceEngine(const graph::Graph& g, radio::WakeSchedule schedule,
                  std::vector<P> nodes, std::uint64_t seed,
                  radio::MediumOptions medium = {})
      : graph_(g),
        schedule_(std::move(schedule)),
        nodes_(std::move(nodes)),
        hot_(g),
        medium_(medium),
        medium_rng_(mix_seed(seed, 0xFADEDull)) {
    if constexpr (radio::kHasHotState<P>) {
      // SoA protocols (core::ColoringNode) keep hot state in an
      // engine-owned block; the reference engine attaches like the real
      // engines do but always runs the naive scalar loop.
      for (P& node : nodes_) node.attach_hot(&hot_);
    }
    for (graph::NodeId v = 0; v < graph_.num_nodes(); ++v) {
      rngs_.emplace_back(mix_seed(seed, v));
    }
    awake_.assign(graph_.num_nodes(), false);
    dead_.assign(graph_.num_nodes(), false);
    decision_slot_.assign(graph_.num_nodes(), -1);
  }

  /// Half-slot mode: `offsets[v]` ∈ {0, 1} is node v's phase in halves.
  ReferenceEngine(const graph::Graph& g, radio::WakeSchedule schedule,
                  std::vector<P> nodes, std::vector<std::uint8_t> offsets,
                  std::uint64_t seed)
      : ReferenceEngine(g, std::move(schedule), std::move(nodes), seed) {
    offsets_ = std::move(offsets);
  }

  void step() {
    const radio::Slot now = slot_;
    const std::size_t n = graph_.num_nodes();

    // Wake (any order; per-node RNG streams are independent).  Dead
    // nodes still wake — on_wake fires — but never participate.
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!awake_[v] && schedule_.wake_slot(v) <= now) {
        awake_[v] = true;
        auto ctx = context(v, now);
        nodes_[v].on_wake(ctx);
      }
    }

    // The shared iteration-order spec (see file comment), rebuilt from
    // scratch every slot.
    std::vector<graph::NodeId> order;
    bool all_woken = true;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (awake_[v] && !dead_[v]) order.push_back(v);
      if (!awake_[v]) all_woken = false;
    }
    if (!all_woken) {
      std::sort(order.begin(), order.end(),
                [this](graph::NodeId a, graph::NodeId b) {
                  const radio::Slot wa = schedule_.wake_slot(a);
                  const radio::Slot wb = schedule_.wake_slot(b);
                  return wa != wb ? wa < wb : a < b;
                });
    }

    // Collect transmissions in that order.
    std::vector<std::optional<radio::Message>> tx(n);
    std::vector<graph::NodeId> transmitters;
    for (graph::NodeId v : order) {
      auto ctx = context(v, now);
      tx[v] = nodes_[v].on_slot(ctx);
      if (tx[v]) {
        ++stats_.transmissions;
        transmitters.push_back(v);
      }
    }

    // Deliver: every live awake listener is processed at its first visit
    // in transmitter-major order; talkers are recounted from scratch.
    std::vector<bool> processed(n, false);
    for (graph::NodeId sender : transmitters) {
      for (graph::NodeId u : graph_.neighbors(sender)) {
        if (!awake_[u] || dead_[u] || processed[u]) continue;
        processed[u] = true;
        if (tx[u].has_value()) continue;  // transmitting: cannot receive
        std::size_t talkers = 0;
        graph::NodeId talker = graph::kInvalidNode;
        for (graph::NodeId w : graph_.neighbors(u)) {
          if (tx[w].has_value()) {
            ++talkers;
            talker = w;
          }
        }
        if (talkers == 1) {
          if (medium_.drop_probability > 0.0 &&
              medium_rng_.chance(medium_.drop_probability)) {
            ++stats_.dropped;
          } else {
            ++stats_.deliveries;
            auto ctx = context(u, now);
            nodes_[u].on_receive(ctx, *tx[talker]);
          }
        } else if (talkers >= 2) {
          ++stats_.collisions;
        }
      }
    }

    for (graph::NodeId v = 0; v < n; ++v) {
      if (awake_[v] && !dead_[v] && decision_slot_[v] == -1 &&
          nodes_[v].decided()) {
        decision_slot_[v] = now;
      }
    }
    ++slot_;
    stats_.slots_run = slot_;
  }

  /// One global half-slot of the half-slot mode.
  void step_half() {
    const std::int64_t h = half_;
    const std::size_t n = graph_.num_nodes();
    const auto local = [&](graph::NodeId v) {
      return (h - static_cast<std::int64_t>(offsets_[v])) / 2;
    };

    // Nodes whose local slot starts at h wake if due, then run it.
    for (graph::NodeId v = 0; v < n; ++v) {
      if (offsets_[v] != (h & 1)) continue;
      if (!awake_[v] && schedule_.wake_slot(v) <= local(v)) {
        awake_[v] = true;
        auto ctx = context(v, local(v));
        nodes_[v].on_wake(ctx);
      }
      if (!awake_[v]) continue;
      auto ctx = context(v, local(v));
      if (std::optional<radio::Message> msg = nodes_[v].on_slot(ctx)) {
        ++stats_.transmissions;
        frames_.push_back({*msg, h});
      }
    }

    // Frames audible at each node on halves h-1 and h, counted from
    // scratch; a frame is on air on halves start and start+1.
    std::vector<std::uint32_t> count_prev(n, 0), count_now(n, 0);
    std::vector<bool> silent(n, true);  // sent nothing on h-1 or h
    for (const Frame& f : frames_) {
      const graph::NodeId s = f.msg.sender;
      const bool on_prev = f.start == h - 2 || f.start == h - 1;
      const bool on_now = f.start == h - 1 || f.start == h;
      if (on_prev || on_now) silent[s] = false;
      for (graph::NodeId u : graph_.neighbors(s)) {
        if (on_prev) ++count_prev[u];
        if (on_now) ++count_now[u];
      }
    }

    // Frames that started at h-1 end with this half.
    for (const Frame& f : frames_) {
      if (f.start != h - 1) continue;
      for (graph::NodeId u : graph_.neighbors(f.msg.sender)) {
        if (!awake_[u] || !silent[u]) continue;
        if (count_prev[u] == 1 && count_now[u] == 1) {
          ++stats_.deliveries;
          auto ctx = context(u, local(u));
          nodes_[u].on_receive(ctx, f.msg);
        } else if (count_prev[u] >= 2 || count_now[u] >= 2) {
          ++stats_.collisions;
        }
      }
    }
    std::erase_if(frames_, [h](const Frame& f) { return f.start < h - 1; });

    for (graph::NodeId v = 0; v < n; ++v) {
      if (awake_[v] && decision_slot_[v] == -1 && nodes_[v].decided()) {
        decision_slot_[v] = local(v);
      }
    }
    ++half_;
    stats_.slots_run = half_ / 2;
  }

  /// Mirrors Engine::run's loop (step, then stop once all decided) —
  /// minus the fast-forward, which must be unobservable in the results.
  /// The half-slot mode runs to 2·max_slots + 2 halves, as the engine's
  /// half-slot medium does.
  radio::RunStats run(radio::Slot max_slots) {
    if (offsets_.empty()) {
      while (slot_ < max_slots) {
        step();
        if (all_decided()) break;
      }
    } else {
      while (half_ < 2 * max_slots + 2) {
        step_half();
        if (all_decided()) break;
      }
    }
    stats_.all_decided = all_decided();
    return stats_;
  }

  void run_until_all_decided(radio::Slot max_slots) { run(max_slots); }

  /// Same semantics as Engine::deactivate, including idempotence.
  void deactivate(graph::NodeId v) { dead_.at(v) = true; }

  [[nodiscard]] bool all_decided() const {
    for (graph::NodeId v = 0; v < graph_.num_nodes(); ++v) {
      if (!awake_[v]) return false;  // everyone must wake, even dead
      if (!dead_[v] && decision_slot_[v] == -1) return false;
    }
    return true;
  }

  [[nodiscard]] const P& node(graph::NodeId v) const { return nodes_.at(v); }
  [[nodiscard]] radio::Slot decision_slot(graph::NodeId v) const {
    return decision_slot_.at(v);
  }
  [[nodiscard]] const radio::RunStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t transmissions() const {
    return stats_.transmissions;
  }
  [[nodiscard]] std::uint64_t deliveries() const { return stats_.deliveries; }
  [[nodiscard]] std::uint64_t collisions() const { return stats_.collisions; }

 private:
  [[nodiscard]] radio::SlotContext context(graph::NodeId v, radio::Slot now) {
    radio::SlotContext ctx;
    ctx.id = v;
    ctx.now = now;
    ctx.rng = &rngs_[v];
    return ctx;
  }

  struct Frame {
    radio::Message msg;
    std::int64_t start;  ///< first of the frame's two halves
  };

  const graph::Graph& graph_;
  radio::WakeSchedule schedule_;
  std::vector<P> nodes_;
  radio::HotStateOf<P> hot_;
  radio::MediumOptions medium_;
  Rng medium_rng_;
  std::vector<Rng> rngs_;
  std::vector<bool> awake_;
  std::vector<bool> dead_;
  std::vector<radio::Slot> decision_slot_;
  radio::Slot slot_ = 0;
  std::vector<std::uint8_t> offsets_;  ///< empty = aligned mode
  std::int64_t half_ = 0;
  std::vector<Frame> frames_;  ///< frames still on air or just ended
  radio::RunStats stats_;
};

}  // namespace urn::testing
