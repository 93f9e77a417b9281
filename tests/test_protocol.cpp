// Unit tests for the ColoringNode state machine (Algorithms 1–3), driving
// callbacks directly, plus exact-timing checks on tiny graphs.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/event.hpp"
#include "obs/postmortem.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

Params tiny_params() { return Params::practical(16, 2, 2, 3); }

/// The graph standalone nodes are attached on: node 0 hears nodes 1..63.
const graph::Graph& hub() {
  static const graph::Graph g = graph::star_graph(64);
  return g;
}

radio::SlotContext ctx_at(graph::NodeId id, radio::Slot now, Rng& rng) {
  radio::SlotContext ctx;
  ctx.id = id;
  ctx.now = now;
  ctx.rng = &rng;
  return ctx;
}

// --------------------------------------------------------- state machine --

TEST(Protocol, WakesIntoVerifyZero) {
  const Params p = tiny_params();
  Rng rng(1);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  EXPECT_EQ(node.phase(), Phase::kVerify);
  EXPECT_EQ(node.verifying_color(), 0);
  EXPECT_FALSE(node.decided());
  EXPECT_EQ(node.color(), graph::kUncolored);
}

TEST(Protocol, PassivePhaseIsSilent) {
  const Params p = tiny_params();
  Rng rng(2);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  for (radio::Slot t = 0; t < p.passive_slots(); ++t) {
    auto c = ctx_at(0, t, rng);
    EXPECT_EQ(node.on_slot(c), std::nullopt) << "transmitted in slot " << t;
  }
}

TEST(Protocol, IsolatedNodeDecidesAtExactThreshold) {
  const Params p = tiny_params();
  Rng rng(3);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  // Passive phase, then counter climbs 1, 2, …, threshold.
  const radio::Slot decide_slot = p.passive_slots() + p.threshold() - 1;
  for (radio::Slot t = 0; t <= decide_slot; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
    if (t < decide_slot) {
      EXPECT_FALSE(node.decided()) << "decided early at slot " << t;
    }
  }
  EXPECT_TRUE(node.decided());
  EXPECT_TRUE(node.is_leader());
  EXPECT_EQ(node.color(), 0);
}

TEST(Protocol, HearingLeaderInA0MovesToRequest) {
  const Params p = tiny_params();
  Rng rng(4);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_decided(7, 0));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  EXPECT_EQ(node.leader(), 7u);
}

TEST(Protocol, AssignMessageAlsoIdentifiesLeader) {
  // An overheard assignment (addressed to someone else) still proves the
  // sender is in C₀ (Fig. 2: any M_C^0 message).
  const Params p = tiny_params();
  Rng rng(5);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_assign(9, /*w=*/3, /*tc=*/2));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  EXPECT_EQ(node.leader(), 9u);
}

TEST(Protocol, RequestOnlyAcceptsOwnAssignment) {
  const Params p = tiny_params();
  Rng rng(6);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_decided(7, 0));  // leader 7
  ASSERT_EQ(node.phase(), Phase::kRequest);

  // Assignment to another node: ignored.
  node.on_receive(ctx, radio::make_assign(7, /*w=*/5, /*tc=*/1));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  // Assignment from a different leader: ignored.
  node.on_receive(ctx, radio::make_assign(8, /*w=*/0, /*tc=*/1));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  // The real one: move to A_{tc(κ₂+1)}.
  node.on_receive(ctx, radio::make_assign(7, /*w=*/0, /*tc=*/2));
  EXPECT_EQ(node.phase(), Phase::kVerify);
  EXPECT_EQ(node.intra_cluster_color(), 2);
  EXPECT_EQ(node.verifying_color(), p.first_verify_color(2));
}

TEST(Protocol, CoveredVerifierAdvancesToNextColor) {
  const Params p = tiny_params();
  Rng rng(7);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_decided(7, 0));
  node.on_receive(ctx, radio::make_assign(7, 0, 1));
  const std::int32_t first = p.first_verify_color(1);
  ASSERT_EQ(node.verifying_color(), first);
  // A neighbor decided exactly this color: advance to A_{i+1}.
  node.on_receive(ctx, radio::make_decided(3, first));
  EXPECT_EQ(node.verifying_color(), first + 1);
  EXPECT_EQ(node.phase(), Phase::kVerify);
  // A decided message for a *different* color is ignored.
  node.on_receive(ctx, radio::make_decided(4, first + 5));
  EXPECT_EQ(node.verifying_color(), first + 1);
}

TEST(Protocol, CompetitorWithinCriticalRangeCausesReset) {
  const Params p = tiny_params();
  Rng rng(8);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  // Finish the passive phase and climb a little.
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  ASSERT_GT(before, 0);
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, 0, before));  // same counter
  EXPECT_LT(node.counter(), before);
  EXPECT_LE(node.counter(), 0);
  EXPECT_EQ(node.stats().resets, 1u);
  EXPECT_EQ(node.competitors(), 1u);
}

TEST(Protocol, CompetitorOutsideCriticalRangeIsOnlyStored) {
  const Params p = tiny_params();
  Rng rng(9);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  const std::int64_t far = before + p.critical_range(0) + 100;
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, 0, far));
  EXPECT_EQ(node.counter(), before);  // no reset
  EXPECT_EQ(node.stats().resets, 0u);
  EXPECT_EQ(node.competitors(), 1u);  // but stored
}

TEST(Protocol, CompetitorOfOtherColorIgnored) {
  const Params p = tiny_params();
  Rng rng(10);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 3; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, /*i=*/5, node.counter()));
  EXPECT_EQ(node.competitors(), 0u);
  EXPECT_EQ(node.stats().resets, 0u);
}

TEST(Protocol, NaivePolicyResetsToZeroOnHigherCounter) {
  Params p = tiny_params();
  p.reset_policy = ResetPolicy::kNaive;
  Rng rng(11);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  auto c = ctx_at(0, t, rng);
  // Lower counter: ignored under the naive policy.
  node.on_receive(c, radio::make_compete(2, 0, before - 1));
  EXPECT_EQ(node.counter(), before);
  // Higher counter: reset to zero.
  node.on_receive(c, radio::make_compete(2, 0, before + 1));
  EXPECT_EQ(node.counter(), 0);
  EXPECT_EQ(node.stats().resets, 1u);
}

TEST(Protocol, NonePolicyNeverResets) {
  Params p = tiny_params();
  p.reset_policy = ResetPolicy::kNone;
  Rng rng(12);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, 0, before));
  EXPECT_EQ(node.counter(), before);
  EXPECT_EQ(node.stats().resets, 0u);
}

// ------------------------------------------------- the receive filter ---
//
// `ColoringHot::listens(u, msg) == false` lets the engine skip
// `on_receive`.  The contract: whenever it is false, `on_receive` would
// change neither the node's saved state nor its hot entries, and would
// emit no event.  Every klass meets every message type here, with
// matching and non-matching colour, target and sender.

/// A hub node (id 0) driven into one state, its block, and the slot its
/// next `on_slot` would run in.
struct Driven {
  explicit Driven(const Params* p) : hot(hub()), node(p, 0), rng(21) {
    node.attach_hot(&hot);
  }
  ColoringHot hot;
  ColoringNode node;
  Rng rng;
  radio::Slot next = 0;

  void wake() {
    auto c = ctx_at(0, next, rng);
    node.on_wake(c);
  }
  void slot() {
    auto c = ctx_at(0, next++, rng);
    (void)node.on_slot(c);
  }
  void hear(const radio::Message& m) {
    auto c = ctx_at(0, next - 1, rng);
    node.on_receive(c, m);
  }
};

enum class Drive {
  kPassive0, kCount0, kCountWithCompetitor, kRequest, kPassiveI, kCountI,
  kDecidedOther, kLeader, kLeaderServing,
};

void drive(Driven& d, Drive to) {
  const auto until = [&d](std::uint8_t k) {
    while (d.hot.klass[0] != k) d.slot();
  };
  d.wake();
  switch (to) {
    case Drive::kPassive0:
      d.slot();
      return;
    case Drive::kCount0:
      until(ColoringHot::kCount);
      return;
    case Drive::kCountWithCompetitor:
      until(ColoringHot::kCount);
      d.hear(radio::make_compete(3, 0, 1000));
      return;
    case Drive::kRequest:
      d.slot();
      d.hear(radio::make_decided(7, 0));  // leader 7
      return;
    case Drive::kLeader:
    case Drive::kLeaderServing:
      until(ColoringHot::kLeader);
      if (to == Drive::kLeaderServing) d.hear(radio::make_request(5, 0));
      return;
    default:  // the A_i states: R first, then an assignment from 7
      d.slot();
      d.hear(radio::make_decided(7, 0));
      d.slot();
      d.hear(radio::make_assign(7, 0, 1));
      if (to == Drive::kCountI) until(ColoringHot::kCount);
      if (to == Drive::kDecidedOther) until(ColoringHot::kDecidedOther);
      return;
  }
}

/// Everything `on_receive` could touch, as comparable values.
struct Observed {
  std::string blob;
  std::uint8_t klass = 0;
  std::int64_t counter = 0;
  radio::Slot activate_at = 0;
  radio::Slot sweep_at = 0;
  std::uint64_t decisions = 0;
  std::size_t leaders = 0;
  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed observe(const Driven& d) {
  obs::postmortem::Writer w;
  d.node.save_state(w, d.next);
  return {w.data(),           d.hot.klass[0],
          d.hot.counter[0],   d.hot.activate_at[0],
          d.hot.sweep_at[0],  d.hot.decisions,
          d.hot.leaders.size()};
}

TEST(Protocol, ListensIsFalseOnlyForFramesThatChangeNothing) {
  const Params p = tiny_params();
  const std::vector<Drive> states = {
      Drive::kPassive0,     Drive::kCount0,   Drive::kCountWithCompetitor,
      Drive::kRequest,      Drive::kPassiveI, Drive::kCountI,
      Drive::kDecidedOther, Drive::kLeader,   Drive::kLeaderServing};
  std::vector<radio::Message> frames;
  const std::int32_t ci = p.first_verify_color(1);
  for (const graph::NodeId from : {3u, 5u, 7u}) {
    for (const std::int32_t color : {0, 1, ci, ci + 1}) {
      for (const std::int64_t c : {std::int64_t{0}, std::int64_t{4},
                                   std::int64_t{1000}}) {
        frames.push_back(radio::make_compete(from, color, c));
      }
      frames.push_back(radio::make_decided(from, color));
    }
    for (const graph::NodeId to : {0u, 5u}) {
      frames.push_back(radio::make_assign(from, to, 1));
      frames.push_back(radio::make_assign(from, to, 2));
      frames.push_back(radio::make_request(from, to));
    }
  }

  std::size_t filtered = 0;
  for (const Drive state : states) {
    std::size_t ignored = 0;
    for (const radio::Message& m : frames) {
      Driven d(&p);
      drive(d, state);
      if (d.hot.listens(0, m)) continue;
      ++ignored;
      const Observed before = observe(d);
      int events = 0;
      auto c = ctx_at(0, d.next - 1, d.rng);
      c.events_sink = &events;
      c.events_fn = [](void* sink, const obs::Event&) {
        ++*static_cast<int*>(sink);
      };
      d.node.on_receive(c, m);
      EXPECT_EQ(observe(d), before)
          << "state " << static_cast<int>(state) << ", frame type "
          << static_cast<int>(m.type) << " from " << m.sender;
      EXPECT_EQ(events, 0);
    }
    // Each state ignores some frame: requests, at the least.
    EXPECT_GT(ignored, 0u) << "state " << static_cast<int>(state);
    filtered += ignored;
  }
  // A decided C_i node (i > 0) ignores everything.
  Driven other(&p);
  drive(other, Drive::kDecidedOther);
  for (const radio::Message& m : frames) EXPECT_FALSE(other.hot.listens(0, m));
  EXPECT_GT(filtered, frames.size());
}

// ------------------------------------------------------------ tiny runs ---

TEST(Protocol, TwoNodeGraphProducesLeaderAndClusterColor) {
  const graph::Graph g = graph::path_graph(2);
  const Params p = Params::practical(16, 2, 2, 3);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(2), 5);
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.check.valid());
  EXPECT_EQ(run.num_leaders, 1u);
  // One node holds color 0; the other verified from tc=1 upward:
  // its color lies in [κ₂+1, 2κ₂+1] (Corollary 1 range for tc = 1).
  const graph::Color lo = p.first_verify_color(1);
  const graph::Color hi = lo + static_cast<graph::Color>(p.kappa2);
  const bool zero_first = run.colors[0] == 0;
  const graph::Color other = zero_first ? run.colors[1] : run.colors[0];
  EXPECT_EQ(zero_first ? run.colors[0] : run.colors[1], 0);
  EXPECT_GE(other, lo);
  EXPECT_LE(other, hi);
}

TEST(Protocol, IsolatedNodesAllBecomeLeaders) {
  const graph::Graph g = graph::empty_graph(5);
  const Params p = Params::practical(16, 2, 2, 3);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(5), 6);
  ASSERT_TRUE(run.all_decided);
  EXPECT_EQ(run.num_leaders, 5u);
  for (graph::Color c : run.colors) EXPECT_EQ(c, 0);
}

TEST(Protocol, TriangleUsesThreeDistinctColors) {
  const graph::Graph g = graph::complete_graph(3);
  const Params p = Params::practical(16, 3, 2, 2);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(3), 7);
  ASSERT_TRUE(run.all_decided);
  EXPECT_TRUE(run.check.valid());
  EXPECT_EQ(run.num_leaders, 1u);
  EXPECT_EQ(graph::distinct_colors(run.colors), 3u);
}

TEST(Protocol, ClusterMembersGetUniqueIntraClusterColors) {
  const graph::Graph g = graph::star_graph(6);  // hub + 5 leaves
  const Params p = Params::practical(16, 6, 5, 5);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(6), 8);
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.check.valid());
  // Within each cluster, intra-cluster colors must be unique.
  for (graph::NodeId a = 0; a < 6; ++a) {
    for (graph::NodeId b = a + 1; b < 6; ++b) {
      if (run.leader_of[a] != graph::kInvalidNode &&
          run.leader_of[a] == run.leader_of[b]) {
        EXPECT_NE(run.intra_cluster[a], run.intra_cluster[b]);
      }
    }
  }
}

TEST(Protocol, DecidedNodeKeepsAnnouncing) {
  // After deciding, a node must still transmit M_C^i (Algorithm 3) so that
  // late wakers can defer. Run one node to decision, then count
  // transmissions over a long window.
  const Params p = tiny_params();
  Rng rng(13);
  ColoringHot hot(hub());
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  while (!node.decided()) {
    auto c = ctx_at(0, t++, rng);
    (void)node.on_slot(c);
  }
  int transmissions = 0;
  for (int i = 0; i < 2000; ++i) {
    auto c = ctx_at(0, t++, rng);
    if (node.on_slot(c).has_value()) ++transmissions;
  }
  EXPECT_GT(transmissions, 0);
}

}  // namespace
}  // namespace urn::core
