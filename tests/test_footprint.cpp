// Per-node memory footprint of the coloring engine: the node object and
// the per-node stream sizes, and the heap a capped large run adds per
// node once competitor lists have filled.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "radio/engine.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace urn {
namespace {

static_assert(sizeof(core::ColoringNode) <= 96);
static_assert(sizeof(Rng) == 32);

/// Heap bytes in use (arena plus mmapped chunks).
std::int64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

TEST(Footprint, CappedRunPastThePassivePhaseStaysWithinItsBudget) {
  // n = 20 000 at the density of the large perfbench UDG, synchronous
  // wake, capped a few hundred slots into the active phase so that the
  // competitor lists fill.
  constexpr std::size_t kN = 20000;
  Rng rng(20000);
  const auto net = graph::random_udg(kN, 94.0, 1.5, rng);
  const graph::Graph& g = net.graph;
  const auto delta = std::max(2u, g.max_closed_degree());
  const auto params = core::Params::practical(kN, delta, 5, 12);
  const radio::Slot cap = params.passive_slots() + 400;
  std::vector<core::ColoringNode> nodes = core::make_nodes(params, kN);

  const std::int64_t before = heap_bytes();
  radio::Engine<core::ColoringNode> engine(
      g, radio::WakeSchedule::synchronous(kN), std::move(nodes), 7);
  const radio::RunStats stats = engine.run(cap);
  const std::int64_t grown = heap_bytes() - before;

  std::size_t listed = 0;
  for (graph::NodeId v = 0; v < kN; ++v) {
    listed += engine.node(v).competitors();
  }
  ASSERT_GT(stats.transmissions, 0u);
  ASSERT_GT(listed, kN);  // P_v has filled: more than one entry per node

  // What the engine owns per node: the hot arrays (17 B), the stream
  // (32 B), status, decision slot, wake order, live/undecided lists and
  // medium word (≈ 25 B), one competitor slot per incident edge (12 B
  // each) and a one-entry transition log (≈ 32 B with its chunk header).
  // The bound leaves about 25% of headroom over that sum; the node
  // objects themselves were allocated before `before`.
  const double per_node = static_cast<double>(grown) / kN;
  const double budget = 1.25 * (17 + 32 + 25 + 32 + 12 * g.average_degree());
  std::printf("heap per node after the loop: %.1f B (budget %.1f B)\n",
              per_node, budget);
  EXPECT_LE(per_node, budget);
}

}  // namespace
}  // namespace urn
