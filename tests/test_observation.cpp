// Observation equivalence: every observation consumer a traced run can
// request — alone and in combination — leaves the run's results exactly
// as the plain run's, and produces its artifact.  Both runner entry
// points (coloring and leader election) go through the grid on a lossy
// medium (drop_probability > 0, so the medium RNG is live) with a
// delayed wake-up (so the run fast-forwards an empty prefix).  The
// parallel case runs the trial executor with one observer per worker.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/postmortem.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

constexpr std::uint64_t kSeed = 0x0B5E;
constexpr radio::Slot kWakePrefix = 150;

struct Net {
  graph::Graph graph;
  Params params;
  radio::WakeSchedule schedule;
  radio::MediumOptions medium;
};

const Net& net() {
  static const Net n = [] {
    Rng rng(kSeed);
    Net out{graph::random_udg(60, 4.0, 1.4, rng).graph, Params{}, {}, {}};
    const auto delta = std::max(2u, out.graph.max_closed_degree());
    out.params = Params::practical(out.graph.num_nodes(), delta, 5, 12);
    Rng wrng(mix_seed(kSeed, 1));
    std::vector<radio::Slot> wake =
        radio::WakeSchedule::uniform(out.graph.num_nodes(), 300, wrng)
            .slots();
    for (radio::Slot& s : wake) s += kWakePrefix;
    out.schedule = radio::WakeSchedule(std::move(wake));
    out.medium.drop_probability = 0.05;
    return out;
  }();
  return n;
}

/// One row of the grid: which consumers the traced run requests.
struct Row {
  std::string name;
  bool telemetry = false;
  bool spans = false;
  bool memory = false;
  bool bin_ring = false;
  bool jsonl = false;
  bool monitor = false;
  bool metrics = false;
  bool postmortem = false;
};

std::vector<Row> rows() {
  std::vector<Row> out;
  auto add = [&out](const std::string& name, auto&& set) {
    Row r;
    r.name = name;
    set(r);
    out.push_back(r);
  };
  add("plain", [](Row&) {});
  add("telemetry", [](Row& r) { r.telemetry = true; });
  add("spans", [](Row& r) { r.spans = true; });
  add("memory", [](Row& r) { r.memory = true; });
  add("bin_ring", [](Row& r) { r.bin_ring = true; });
  add("jsonl", [](Row& r) { r.jsonl = true; });
  add("monitor", [](Row& r) { r.monitor = true; });
  add("metrics", [](Row& r) { r.metrics = true; });
  add("postmortem", [](Row& r) { r.postmortem = true; });
  add("telemetry_spans", [](Row& r) { r.telemetry = r.spans = true; });
  add("telemetry_postmortem",
      [](Row& r) { r.telemetry = r.postmortem = true; });
  add("all", [](Row& r) {
    r.telemetry = r.spans = r.memory = r.bin_ring = r.jsonl = r.monitor =
        r.metrics = r.postmortem = true;
  });
  return out;
}

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

enum class Entry { kColoring, kLeader };

/// The consumers of one traced run, owned by the test.
struct Capture {
  obs::telemetry::Registry registry;
  obs::SpanSink spans;
  obs::MemorySink memory;
  std::string base;
  TraceOptions trace;

  Capture(const Row& row, const std::string& tag)
      : base(::testing::TempDir() + "obs_grid_" + tag) {
    if (row.telemetry) trace.telemetry = &registry;
    if (row.spans) trace.spans = &spans;
    if (row.memory) trace.memory = &memory;
    if (row.bin_ring) {
      trace.events_bin = base + ".bin";
      trace.bin_ring = 256;
    }
    if (row.jsonl) trace.events_jsonl = base + ".jsonl";
    trace.monitor = row.monitor;
    if (row.metrics) {
      trace.metrics = true;
      trace.metrics_window = 32;
    }
    if (row.postmortem) {
      std::filesystem::remove_all(base + "_pm");
      trace.postmortem.dir = base + "_pm";
      trace.postmortem.checkpoint_every = 100;
    }
  }
  ~Capture() {
    std::remove((base + ".bin").c_str());
    std::remove((base + ".jsonl").c_str());
    std::filesystem::remove_all(base + "_pm");
  }
};

void expect_same_stats(const radio::RunStats& a, const radio::RunStats& b) {
  EXPECT_EQ(a.slots_run, b.slots_run);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.all_decided, b.all_decided);
}

std::uintmax_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// Artifacts every requested consumer must have produced; `events` is
/// the run's `events_recorded`, `slots` its slot count.
void expect_artifacts(const Row& row, const Capture& c, Entry entry,
                      std::uint64_t events, radio::Slot slots,
                      bool has_series, bool has_monitor) {
  if (row.telemetry) {
    const obs::telemetry::Snapshot snap = c.registry.snapshot();
    const std::uint64_t* engine_slots = snap.find_counter("engine.slots");
    ASSERT_NE(engine_slots, nullptr);
    EXPECT_EQ(*engine_slots, static_cast<std::uint64_t>(slots));
    const std::uint64_t* node_slots = snap.find_counter("engine.node_slots");
    ASSERT_NE(node_slots, nullptr);
    EXPECT_GT(*node_slots, 0u);
    EXPECT_EQ(*snap.find_counter("engine.runs"), 1u);
  }
  if (row.spans) {
    const std::vector<obs::SpanRecord> spans = c.spans.snapshot();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans.size() % 3, 0u);
    const std::set<std::string> phases = {"wake", "protocol", "medium"};
    for (const obs::SpanRecord& s : spans) {
      EXPECT_EQ(phases.count(s.name), 1u) << s.name;
    }
  }
  if (row.memory) {
    EXPECT_FALSE(c.memory.events().empty());
  }
  if (row.bin_ring) {
    EXPECT_GT(events, 0u);
    EXPECT_GT(file_size_or_zero(c.trace.events_bin), 0u);
  }
  if (row.jsonl) {
    EXPECT_GT(events, 0u);
    EXPECT_GT(file_size_or_zero(c.trace.events_jsonl), 0u);
  }
  EXPECT_EQ(has_series, row.metrics);
  EXPECT_EQ(has_monitor, row.monitor);
  // The leader-election entry points take no postmortem bundle.
  if (row.postmortem && entry == Entry::kColoring) {
    const std::string& dir = c.trace.postmortem.dir;
    EXPECT_GT(file_size_or_zero(dir + "/" + obs::postmortem::kCkptFileName),
              0u);
    EXPECT_GT(
        file_size_or_zero(dir + "/" + obs::postmortem::kManifestFileName),
        0u);
    if (!row.bin_ring) {
      EXPECT_GT(file_size_or_zero(dir + "/" + obs::postmortem::kRingFileName),
                0u);
    }
  }
}

class ObservationGrid
    : public ::testing::TestWithParam<std::tuple<Row, Entry>> {};

TEST_P(ObservationGrid, MatchesPlainRunAndFillsEveryArtifact) {
  const auto& [row, entry] = GetParam();
  const Net& n = net();
  Capture c(row, row.name + (entry == Entry::kColoring ? "_col" : "_le"));
  if (entry == Entry::kColoring) {
    const RunResult plain =
        run_coloring(n.graph, n.params, n.schedule, kSeed, 0, n.medium);
    ASSERT_TRUE(plain.check.valid());
    const RunResult got = run_coloring_traced(n.graph, n.params, n.schedule,
                                              kSeed, c.trace, 0, n.medium);
    EXPECT_EQ(got.colors, plain.colors);
    EXPECT_EQ(got.decision_slot, plain.decision_slot);
    EXPECT_EQ(got.leader_of, plain.leader_of);
    EXPECT_EQ(got.num_leaders, plain.num_leaders);
    expect_same_stats(got.medium, plain.medium);
    expect_artifacts(row, c, entry, got.events_recorded,
                     got.medium.slots_run, got.series.has_value(),
                     got.monitor.has_value());
    if (row.metrics) {
      EXPECT_FALSE(got.series->empty());
    }
    if (row.monitor) {
      EXPECT_GT(got.monitor->events_seen, 0u);
    }
  } else {
    const LeaderElectionResult plain = run_leader_election(
        n.graph, n.params, n.schedule, kSeed, 0, n.medium);
    ASSERT_FALSE(plain.leaders.empty());
    const LeaderElectionResult got = run_leader_election_traced(
        n.graph, n.params, n.schedule, kSeed, c.trace, 0, n.medium);
    EXPECT_EQ(got.leaders, plain.leaders);
    EXPECT_EQ(got.leader_of, plain.leader_of);
    EXPECT_EQ(got.cover_latency, plain.cover_latency);
    EXPECT_EQ(got.all_covered, plain.all_covered);
    expect_same_stats(got.medium, plain.medium);
    expect_artifacts(row, c, entry, got.events_recorded,
                     got.medium.slots_run, got.series.has_value(),
                     got.monitor.has_value());
    if (row.metrics) {
      EXPECT_FALSE(got.series->empty());
    }
    if (row.monitor) {
      EXPECT_GT(got.monitor->events_seen, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ObservationGrid,
    ::testing::Combine(::testing::ValuesIn(rows()),
                       ::testing::Values(Entry::kColoring, Entry::kLeader)),
    [](const ::testing::TestParamInfo<std::tuple<Row, Entry>>& param_info) {
      return std::get<0>(param_info.param).name +
             (std::get<1>(param_info.param) == Entry::kColoring
                  ? "_coloring"
                  : "_leader");
    });

// The parallel case: monitored, probed trials on two workers build one
// observer per trial inside the workers, share one registry, and still
// aggregate exactly like the plain serial loop.
TEST(ObservationParallel, MonitoredProbedTrialsMatchPlainSerialTrials) {
  const Net& n = net();
  const analysis::ScheduleFactory schedules =
      analysis::uniform_schedule(n.graph.num_nodes(), 300);
  constexpr std::size_t kTrials = 6;
  const analysis::CoreAggregate plain = analysis::run_core_trials(
      n.graph, n.params, schedules, kTrials, kSeed, radio::Slot{0});

  obs::telemetry::Registry registry;
  analysis::TrialExecOptions exec;
  exec.jobs = 2;
  exec.chunk = 1;
  exec.monitor = true;
  exec.telemetry = &registry;
  const analysis::CoreAggregate got = analysis::run_core_trials(
      n.graph, n.params, schedules, kTrials, kSeed, exec);

  EXPECT_EQ(got.trials, plain.trials);
  EXPECT_EQ(got.valid, plain.valid);
  EXPECT_EQ(got.completed, plain.completed);
  EXPECT_EQ(got.slots_run.values(), plain.slots_run.values());
  EXPECT_EQ(got.max_color.values(), plain.max_color.values());
  EXPECT_EQ(got.max_latency.values(), plain.max_latency.values());
  EXPECT_EQ(got.leaders.values(), plain.leaders.values());
  EXPECT_GT(got.monitor_events, 0u);

  const obs::telemetry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(*snap.find_counter("engine.runs"), kTrials);
  EXPECT_EQ(*snap.find_counter("engine.runs_completed"), kTrials);
  double slots = 0;
  for (const double s : plain.slots_run.values()) slots += s;
  EXPECT_EQ(*snap.find_counter("engine.slots"),
            static_cast<std::uint64_t>(slots));
  EXPECT_EQ(*snap.find_gauge("engine.undecided"), 0);
}

}  // namespace
}  // namespace urn::core
