// Tests for the non-aligned-slots engine (Sect. 2's "practical
// non-aligned case").

#include <gtest/gtest.h>

#include <optional>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "radio/misaligned_engine.hpp"
#include "support/rng.hpp"

namespace urn::radio {
namespace {

/// Transmits in the listed *local* slots; records receptions.
struct HalfScript {
  NodeId id = graph::kInvalidNode;
  std::vector<Slot> tx_slots;
  std::vector<std::pair<Slot, Message>> received;

  void on_wake(SlotContext&) {}
  std::optional<Message> on_slot(SlotContext& ctx) {
    for (Slot s : tx_slots) {
      if (s == ctx.now) return make_decided(id, static_cast<int>(ctx.now));
    }
    return std::nullopt;
  }
  void on_receive(SlotContext& ctx, const Message& msg) {
    received.emplace_back(ctx.now, msg);
  }
  [[nodiscard]] bool decided() const { return false; }
};

MisalignedEngine<HalfScript> make(const graph::Graph& g,
                                  std::vector<std::vector<Slot>> scripts,
                                  std::vector<std::uint8_t> offsets) {
  std::vector<HalfScript> nodes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes[v].id = v;
    nodes[v].tx_slots = scripts[v];
  }
  return MisalignedEngine<HalfScript>(g, WakeSchedule::synchronous(
                                             g.num_nodes()),
                                      std::move(nodes), std::move(offsets),
                                      1);
}

TEST(Misaligned, AlignedPairDelivers) {
  const graph::Graph g = graph::path_graph(2);
  auto eng = make(g, {{0}, {}}, {0, 0});
  for (int i = 0; i < 6; ++i) eng.step_half();
  ASSERT_EQ(eng.node(1).received.size(), 1u);
  EXPECT_EQ(eng.node(1).received[0].second.sender, 0u);
}

TEST(Misaligned, CrossPhasePairStillDelivers) {
  // Sender at offset 0, receiver at offset 1: the frame spans two of the
  // receiver's local slots but the medium is clear, so it decodes.
  const graph::Graph g = graph::path_graph(2);
  auto eng = make(g, {{1}, {}}, {0, 1});
  for (int i = 0; i < 10; ++i) eng.step_half();
  ASSERT_EQ(eng.node(1).received.size(), 1u);
}

TEST(Misaligned, PartialOverlapCorrupts) {
  // Path 0-1-2, receiver 1 at offset 0.  Node 0 (offset 0) transmits its
  // slot 1 (halves 2,3); node 2 (offset 1) transmits its slot 1 (halves
  // 3,4).  They overlap in half 3 → both frames are corrupted at node 1.
  const graph::Graph g = graph::path_graph(3);
  auto eng = make(g, {{1}, {}, {1}}, {0, 0, 1});
  for (int i = 0; i < 10; ++i) eng.step_half();
  EXPECT_TRUE(eng.node(1).received.empty());
  EXPECT_GE(eng.stats().collisions, 1u);
}

TEST(Misaligned, NonOverlappingCrossPhaseFramesBothDeliver) {
  // Node 0 (offset 0) transmits slot 0 (halves 0,1); node 2 (offset 1)
  // transmits slot 1 (halves 3,4). No overlap at receiver 1: two clean
  // receptions.
  const graph::Graph g = graph::path_graph(3);
  auto eng = make(g, {{0}, {}, {1}}, {0, 0, 1});
  for (int i = 0; i < 10; ++i) eng.step_half();
  EXPECT_EQ(eng.node(1).received.size(), 2u);
}

TEST(Misaligned, ReceiverBusyDuringEitherHalfMissesFrame) {
  // Receiver 1 (offset 1) transmits its slot 1 (halves 3,4); node 0
  // (offset 0) transmits its slot 1 (halves 2,3). Overlap at half 3 →
  // node 1 cannot decode node 0's frame.
  const graph::Graph g = graph::path_graph(2);
  auto eng = make(g, {{1}, {1}}, {0, 1});
  for (int i = 0; i < 10; ++i) eng.step_half();
  EXPECT_TRUE(eng.node(1).received.empty());
}

TEST(Misaligned, MatchesAlignedEngineWhenAllOffsetsZero) {
  // With every offset 0 the half-slot medium is slot-aligned, so each
  // node sees exactly the aligned run: same colors, decision slots and
  // transmissions.  Three counters differ by construction, and are
  // pinned here:
  //  * a frame sent in local slot t ends, and is delivered, on half
  //    2t+1; the run stops after the half in which the last node decides
  //    (its threshold slot, half 2t), so `slots_run` is one lower and the
  //    final slot's frames are never delivered;
  //  * a collision is counted once per (frame, listener) pair, where the
  //    aligned medium counts one per listener-slot: at least twice the
  //    aligned count, since every collision involves two or more frames.
  for (const bool sync : {true, false}) {
    for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
      Rng rng(seed);
      const auto net = graph::random_udg(60, 5.5, 1.4, rng);
      const std::size_t n = net.graph.num_nodes();
      const auto delta = std::max(2u, net.graph.max_closed_degree());
      const core::Params p = core::Params::practical(n, delta, 5, 12);
      Rng wrng(seed + 100);
      const WakeSchedule schedule = sync ? WakeSchedule::synchronous(n)
                                         : WakeSchedule::uniform(n, 300, wrng);
      std::vector<core::ColoringNode> a_nodes, h_nodes;
      for (graph::NodeId v = 0; v < n; ++v) {
        a_nodes.emplace_back(&p, v);
        h_nodes.emplace_back(&p, v);
      }
      const Slot budget = 300 + 40 * p.threshold();

      // The aligned run, stepped so the stats before its last slot are
      // known (Engine::run's stopping rule, minus the fast-forward).
      Engine<core::ColoringNode> aligned(net.graph, schedule,
                                         std::move(a_nodes), seed);
      RunStats before_last;
      while (aligned.current_slot() < budget && !aligned.all_decided()) {
        before_last = aligned.stats();
        aligned.step();
      }
      ASSERT_TRUE(aligned.all_decided());
      const RunStats& a = aligned.stats();

      MisalignedEngine<core::ColoringNode> half(
          net.graph, schedule, std::move(h_nodes),
          std::vector<std::uint8_t>(n, 0), seed);
      const RunStats h = half.run(budget);
      ASSERT_TRUE(h.all_decided);

      for (graph::NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(half.node(v).color(), aligned.node(v).color()) << v;
        EXPECT_EQ(half.decision_slot(v), aligned.decision_slot(v)) << v;
      }
      EXPECT_EQ(h.transmissions, a.transmissions);
      EXPECT_EQ(h.slots_run, a.slots_run - 1);
      EXPECT_EQ(h.deliveries, before_last.deliveries);
      EXPECT_GE(h.collisions, 2 * before_last.collisions);
      EXPECT_EQ(h.dropped, 0u);
    }
  }
}

class MisalignedProtocol : public ::testing::TestWithParam<int> {};

TEST_P(MisalignedProtocol, RandomOffsetsStillColorCorrectly) {
  // The paper's claim: the analysis carries over to the non-aligned case.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const auto net = graph::random_udg(70, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  std::vector<core::ColoringNode> nodes;
  for (graph::NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    nodes.emplace_back(&p, v);
  }
  Rng orng(static_cast<std::uint64_t>(GetParam()));
  auto offsets = MisalignedEngine<core::ColoringNode>::random_offsets(
      net.graph.num_nodes(), orng);
  MisalignedEngine<core::ColoringNode> eng(
      net.graph, WakeSchedule::synchronous(net.graph.num_nodes()),
      std::move(nodes), std::move(offsets),
      static_cast<std::uint64_t>(GetParam()));
  const RunStats stats = eng.run(60 * p.threshold());
  ASSERT_TRUE(stats.all_decided);
  std::vector<graph::Color> colors(net.graph.num_nodes());
  for (graph::NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    colors[v] = eng.node(v).color();
  }
  EXPECT_TRUE(graph::validate(net.graph, colors).valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisalignedProtocol, ::testing::Range(0, 5));

}  // namespace
}  // namespace urn::radio
