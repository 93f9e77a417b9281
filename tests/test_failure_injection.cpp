// Tests for the failure-injection knobs: fading drops and crash-stop
// deactivation — and their interaction with the protocol.

#include <gtest/gtest.h>

#include <optional>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"

namespace urn::radio {
namespace {

/// Transmits every slot; counts receptions.
struct Chatter {
  NodeId id = graph::kInvalidNode;
  bool talk = false;
  std::size_t heard = 0;

  void on_wake(SlotContext&) {}
  std::optional<Message> on_slot(SlotContext&) {
    if (talk) return make_decided(id, 0);
    return std::nullopt;
  }
  void on_receive(SlotContext&, const Message&) { ++heard; }
  [[nodiscard]] bool decided() const { return false; }
};

Engine<Chatter> chatter_engine(const graph::Graph& g, NodeId talker,
                               MediumOptions medium) {
  std::vector<Chatter> nodes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[v].id = v;
  nodes[talker].talk = true;
  return Engine<Chatter>(g, WakeSchedule::synchronous(g.num_nodes()),
                         std::move(nodes), 7, medium);
}

TEST(Fading, ZeroDropIsLossless) {
  const graph::Graph g = graph::path_graph(2);
  auto eng = chatter_engine(g, 0, {});
  for (int i = 0; i < 100; ++i) eng.step();
  EXPECT_EQ(eng.node(1).heard, 100u);
  EXPECT_EQ(eng.stats().dropped, 0u);
}

TEST(Fading, DropRateMatchesProbability) {
  MediumOptions medium;
  medium.drop_probability = 0.3;
  const graph::Graph g = graph::path_graph(2);
  auto eng = chatter_engine(g, 0, medium);
  const int slots = 20000;
  for (int i = 0; i < slots; ++i) eng.step();
  const auto heard = static_cast<double>(eng.node(1).heard);
  EXPECT_NEAR(heard / slots, 0.7, 0.02);
  EXPECT_EQ(eng.node(1).heard + eng.stats().dropped,
            static_cast<std::size_t>(slots));
}

TEST(Fading, InvalidProbabilityRejected) {
  MediumOptions medium;
  medium.drop_probability = 1.0;
  std::vector<Chatter> nodes(1);
  nodes[0].id = 0;
  const graph::Graph g = graph::empty_graph(1);
  EXPECT_THROW(Engine<Chatter>(g, WakeSchedule::synchronous(1),
                               std::move(nodes), 1, medium),
               CheckError);
}

TEST(CrashStop, DeadNodeStopsTransmittingAndReceiving) {
  const graph::Graph g = graph::path_graph(3);
  auto eng = chatter_engine(g, 1, {});
  for (int i = 0; i < 10; ++i) eng.step();
  EXPECT_EQ(eng.node(0).heard, 10u);
  eng.deactivate(1);
  for (int i = 0; i < 10; ++i) eng.step();
  EXPECT_EQ(eng.node(0).heard, 10u);  // talker died
  EXPECT_TRUE(eng.is_dead(1));
  EXPECT_EQ(eng.stats().transmissions, 10u);
}

TEST(CrashStop, DeadNodesExcludedFromAllDecided) {
  std::vector<Chatter> nodes(2);
  nodes[0].id = 0;
  nodes[1].id = 1;
  const graph::Graph g = graph::empty_graph(2);
  Engine<Chatter> eng(g, WakeSchedule::synchronous(2),
                      std::move(nodes), 1);
  eng.step();
  EXPECT_FALSE(eng.all_decided());  // Chatter never decides
  eng.deactivate(0);
  eng.deactivate(1);
  eng.step();
  EXPECT_TRUE(eng.all_decided());  // no live node has obligations
}

}  // namespace

// ------------------------- protocol under failures ------------------------

namespace {

class ProtocolUnderFading : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolUnderFading, ModerateFadingOnlySlowsItDown) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 19 + 7);
  const auto net = graph::random_udg(70, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  MediumOptions medium;
  medium.drop_probability = 0.2;
  const auto ws = WakeSchedule::synchronous(net.graph.num_nodes());
  const auto clean = core::run_coloring(net.graph, p, ws, 11, 0, {});
  const auto faded = core::run_coloring(net.graph, p, ws, 11, 0, medium);
  ASSERT_TRUE(clean.all_decided);
  ASSERT_TRUE(faded.all_decided);
  EXPECT_TRUE(faded.check.valid());
  EXPECT_GT(faded.medium.dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolUnderFading, ::testing::Range(0, 4));

TEST(ProtocolUnderFading, ExplicitZeroDropIsBitIdenticalToIdealMedium) {
  // MediumOptions{drop_probability = 0} must not even consult the medium
  // RNG: the run is bit-for-bit the ideal collision-only medium, which
  // the differential/reference tests rely on.
  Rng rng(123);
  const auto net = graph::random_udg(60, 5.5, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  Rng wrng(321);
  const auto ws =
      WakeSchedule::uniform(net.graph.num_nodes(), 2 * p.threshold(), wrng);

  MediumOptions zero_drop;
  zero_drop.drop_probability = 0.0;
  const auto ideal = core::run_coloring(net.graph, p, ws, 17, 0, {});
  const auto zeroed = core::run_coloring(net.graph, p, ws, 17, 0, zero_drop);

  EXPECT_EQ(zeroed.colors, ideal.colors);
  EXPECT_EQ(zeroed.wake_slot, ideal.wake_slot);
  EXPECT_EQ(zeroed.decision_slot, ideal.decision_slot);
  EXPECT_EQ(zeroed.leader_of, ideal.leader_of);
  EXPECT_EQ(zeroed.medium.slots_run, ideal.medium.slots_run);
  EXPECT_EQ(zeroed.medium.transmissions, ideal.medium.transmissions);
  EXPECT_EQ(zeroed.medium.deliveries, ideal.medium.deliveries);
  EXPECT_EQ(zeroed.medium.collisions, ideal.medium.collisions);
  EXPECT_EQ(zeroed.medium.dropped, 0u);
  EXPECT_EQ(ideal.medium.dropped, 0u);
}

TEST(ProtocolUnderFading, DropsAreCountedAndTracedConsistently) {
  // Every injected drop shows up once in RunStats::dropped, and a traced
  // run reports exactly that many kDrop events.
  Rng rng(55);
  const auto net = graph::random_udg(50, 5.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  MediumOptions medium;
  medium.drop_probability = 0.3;
  const auto ws = WakeSchedule::synchronous(net.graph.num_nodes());

  obs::MemorySink memory;
  core::TraceOptions trace;
  trace.memory = &memory;
  const auto run =
      core::run_coloring_traced(net.graph, p, ws, 21, trace, 0, medium);
  ASSERT_TRUE(run.all_decided);
  EXPECT_GT(run.medium.dropped, 0u);
  obs::MetricsSink metrics(/*window=*/64);
  for (const obs::Event& e : memory.events()) metrics.record(e);
  const obs::TimeSeries series = metrics.finish(run.medium.slots_run);
  std::uint64_t drop_events = 0;
  std::uint64_t deliveries = 0;
  for (const auto& row : series.rows()) {
    drop_events += row.drops;
    deliveries += row.deliveries;
  }
  EXPECT_EQ(drop_events, run.medium.dropped);
  EXPECT_EQ(deliveries, run.medium.deliveries);
}

TEST(ProtocolUnderCrash, LeaderCrashOrphansItsCluster) {
  // Documented limitation: the paper's protocol has no leader-failure
  // recovery — a cluster member waiting in R for its crashed leader
  // starves.  This test pins that behavior down.
  const graph::Graph g = graph::star_graph(4);  // hub will be the leader
  const core::Params p = core::Params::practical(16, 4, 3, 3);
  std::vector<core::ColoringNode> nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&p, v);
  }
  Engine<core::ColoringNode> eng(g, WakeSchedule::synchronous(4),
                                 std::move(nodes), 3);
  // Run until a leader exists.
  graph::NodeId leader = graph::kInvalidNode;
  for (int i = 0; i < 100000 && leader == graph::kInvalidNode; ++i) {
    eng.step();
    for (graph::NodeId v = 0; v < 4; ++v) {
      if (eng.node(v).is_leader()) leader = v;
    }
  }
  ASSERT_NE(leader, graph::kInvalidNode);
  // Let at least one member reach R, then crash the leader.
  for (int i = 0; i < 200; ++i) eng.step();
  bool member_requesting = false;
  for (graph::NodeId v = 0; v < 4; ++v) {
    member_requesting |= eng.node(v).phase() == core::Phase::kRequest;
  }
  eng.deactivate(leader);
  const auto stats = eng.run(60 * p.threshold());
  if (member_requesting) {
    // The orphaned requester(s) can never be served: no completion.
    EXPECT_FALSE(stats.all_decided);
  }
}

}  // namespace
}  // namespace urn::radio
