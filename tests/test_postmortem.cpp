// Postmortem checkpoint tests: the byte codecs, the URNC container's
// error handling, the scenario section round-trip, and the end-to-end
// contract of the runner's bundle path — a checkpointed run is
// bit-identical to an unhooked one, and resuming from its checkpoint
// reproduces the straight-through RunResult field for field.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/postmortem.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"

namespace urn {
namespace {

namespace pm = obs::postmortem;

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

// Every deterministic RunResult field; `series` / `events_recorded` /
// `monitor` / `bundle` are observability artifacts and deliberately
// excluded (a traced run records events, a plain run does not).
void expect_run_equal(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.wake_slot, b.wake_slot);
  EXPECT_EQ(a.decision_slot, b.decision_slot);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.medium.slots_run, b.medium.slots_run);
  EXPECT_EQ(a.medium.transmissions, b.medium.transmissions);
  EXPECT_EQ(a.medium.deliveries, b.medium.deliveries);
  EXPECT_EQ(a.medium.collisions, b.medium.collisions);
  EXPECT_EQ(a.medium.dropped, b.medium.dropped);
  EXPECT_EQ(a.all_decided, b.all_decided);
  EXPECT_EQ(a.check.valid(), b.check.valid());
  EXPECT_EQ(a.max_color, b.max_color);
  EXPECT_EQ(a.num_leaders, b.num_leaders);
  EXPECT_EQ(a.leader_of, b.leader_of);
  EXPECT_EQ(a.intra_cluster, b.intra_cluster);
  EXPECT_EQ(a.total_resets, b.total_resets);
  EXPECT_EQ(a.max_verify_states, b.max_verify_states);
  EXPECT_EQ(a.duplicate_serves, b.duplicate_serves);
}

// ---- byte codecs ----------------------------------------------------------

TEST(PostmortemCodec, WriterReaderRoundTrip) {
  pm::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.5);
  w.boolean(true);
  w.boolean(false);

  pm::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(PostmortemCodec, ReaderLatchesOnTruncation) {
  const std::string three_bytes("\x01\x02\x03", 3);
  pm::Reader r(three_bytes);
  EXPECT_EQ(r.u32(), 0u);  // needs 4, only 3 available
  EXPECT_FALSE(r.ok());
  // Latched: even a 1-byte read now fails, the buffer is poisoned.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(PostmortemCodec, RngSnapshotRoundTripReplaysDrawForDraw) {
  Rng original(12345);
  (void)original.normal();  // park a spare so the cache path is exercised
  (void)original.below(100);

  pm::Writer w;
  pm::write_rng(w, original);
  Rng restored(999);  // deliberately different seed; restore overwrites
  pm::Reader r(w.data());
  ASSERT_TRUE(pm::read_rng(r, restored));

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.below(1000), restored.below(1000)) << "draw " << i;
    EXPECT_EQ(original.normal(), restored.normal()) << "draw " << i;
  }
}

// ---- URNC container error handling ---------------------------------------

TEST(CheckpointFile, RejectsMissingFile) {
  const auto file =
      pm::read_checkpoint_file(::testing::TempDir() + "no_such.urnc");
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("cannot open"), std::string::npos) << file.error;
}

TEST(CheckpointFile, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "bad_magic.urnc";
  ASSERT_TRUE(pm::write_text_file(
      path, std::string("NOPE") + std::string(20, '\0')));
  const auto file = pm::read_checkpoint_file(path);
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("not a URNC checkpoint"), std::string::npos)
      << file.error;
}

TEST(CheckpointFile, RejectsFutureVersionWithOneLiner) {
  pm::Writer w;
  for (char c : pm::kCkptMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(pm::kCkptVersion + 1);
  w.u16(0);  // kind aligned
  w.i64(0);  // position
  w.u32(0);  // empty scenario section
  w.u32(0);  // empty engine-state section
  const std::string path = ::testing::TempDir() + "future.urnc";
  ASSERT_TRUE(pm::write_text_file(path, w.data()));
  const auto file = pm::read_checkpoint_file(path);
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("newer than this reader"), std::string::npos)
      << file.error;
}

TEST(CheckpointFile, RejectsTruncatedSections) {
  pm::Writer w;
  for (char c : pm::kCkptMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(pm::kCkptVersion);
  w.u16(0);
  w.i64(0);
  w.u32(100);  // claims a 100-byte scenario section, then EOF
  const std::string path = ::testing::TempDir() + "truncated.urnc";
  ASSERT_TRUE(pm::write_text_file(path, w.data()));
  const auto file = pm::read_checkpoint_file(path);
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("truncated"), std::string::npos) << file.error;
}

// ---- scenario section -----------------------------------------------------

TEST(ScenarioCodec, RoundTripPreservesEveryField) {
  Rng rng(7);
  const graph::Graph g = graph::gnp(40, 0.1, rng);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(g.num_nodes(), delta, 5, 12);
  Rng wrng(11);
  const auto schedule =
      radio::WakeSchedule::uniform(g.num_nodes(), 700, wrng);
  radio::MediumOptions medium;
  medium.drop_probability = 0.25;
  std::vector<std::uint8_t> offsets(g.num_nodes());
  for (std::size_t v = 0; v < offsets.size(); ++v) {
    offsets[v] = static_cast<std::uint8_t>(v & 1);
  }

  const core::CheckpointScenario in = core::make_scenario(
      g, params, schedule, /*seed=*/0xC0FFEE, /*max_slots=*/12345, medium,
      /*trial=*/9, offsets);
  const std::string bytes = core::render_scenario(in);

  pm::Reader r(bytes);
  core::CheckpointScenario out;
  ASSERT_TRUE(core::read_scenario(r, out));
  EXPECT_EQ(out.num_nodes, g.num_nodes());
  EXPECT_EQ(out.edges, in.edges);
  EXPECT_EQ(out.wake_slots, in.wake_slots);
  EXPECT_EQ(out.offsets, offsets);
  EXPECT_EQ(out.seed, 0xC0FFEEull);
  EXPECT_EQ(out.trial, 9ull);
  EXPECT_EQ(out.max_slots, 12345);
  EXPECT_EQ(out.medium.drop_probability, 0.25);
  EXPECT_EQ(out.params.threshold(), params.threshold());

  // Rebuilding the CSR from the edge list must reproduce the original
  // adjacency exactly (GraphBuilder sorts, so neighbor order — and with
  // it every medium RNG draw — is pinned).
  graph::GraphBuilder gb(out.num_nodes);
  for (auto [u, v] : out.edges) gb.add_edge(u, v);
  const graph::Graph rebuilt = gb.build();
  ASSERT_EQ(rebuilt.num_nodes(), g.num_nodes());
  ASSERT_EQ(rebuilt.num_edges(), g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = rebuilt.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "node " << v;
  }
}

TEST(ScenarioCodec, ReadRejectsTruncatedBytes) {
  Rng rng(7);
  const graph::Graph g = graph::gnp(20, 0.15, rng);
  const core::Params params = core::Params::practical(20, 6, 5, 12);
  const auto schedule = radio::WakeSchedule::synchronous(20);
  const std::string bytes = core::render_scenario(
      core::make_scenario(g, params, schedule, 1, 1000));
  for (const std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                                bytes.size() - 1}) {
    pm::Reader r(bytes.data(), cut);
    core::CheckpointScenario out;
    EXPECT_FALSE(core::read_scenario(r, out)) << "cut at " << cut;
  }
}

// ---- runner bundle path ---------------------------------------------------

struct BundleFixture {
  graph::Graph g;
  core::Params params;
  radio::WakeSchedule schedule;
  std::uint64_t seed;
  radio::Slot budget;
};

BundleFixture make_fixture(std::uint64_t seed) {
  Rng rng(seed);
  graph::Graph g = graph::gnp(48, 0.1, rng);
  const auto delta = std::max(2u, g.max_closed_degree());
  core::Params params = core::Params::practical(g.num_nodes(), delta, 5, 12);
  Rng wrng(mix_seed(seed, 17));
  auto schedule = radio::WakeSchedule::uniform(g.num_nodes(), 600, wrng);
  const radio::Slot budget = 6 * params.threshold() + 4000;
  return {std::move(g), params, std::move(schedule), seed, budget};
}

TEST(RunnerPostmortem, CheckpointedRunMatchesPlainRunAndResumes) {
  const BundleFixture fx = make_fixture(3);
  radio::MediumOptions medium;
  medium.drop_probability = 0.2;

  const core::RunResult plain = core::run_coloring(
      fx.g, fx.params, fx.schedule, fx.seed, fx.budget, medium);

  const std::string dir = ::testing::TempDir() + "pm_clean_bundle";
  core::TraceOptions topts;
  topts.postmortem.dir = dir;
  topts.postmortem.checkpoint_every = 500;
  const core::RunResult traced = core::run_coloring_traced(
      fx.g, fx.params, fx.schedule, fx.seed, topts, fx.budget, medium);

  // Checkpointing must not perturb the run.
  expect_run_equal(traced, plain);

  // Bundle contents: checkpoint + ring + manifest always; monitor.json
  // and the RunResult bundle pointer only on violation (none here).
  EXPECT_TRUE(file_exists(dir + "/" + pm::kCkptFileName));
  EXPECT_TRUE(file_exists(dir + "/" + pm::kRingFileName));
  EXPECT_TRUE(file_exists(dir + "/" + pm::kManifestFileName));
  EXPECT_FALSE(file_exists(dir + "/" + pm::kMonitorFileName));
  EXPECT_TRUE(traced.bundle.empty());

  // The last periodic checkpoint resumes to the straight-through result.
  const core::LoadedCheckpoint ck =
      core::load_checkpoint(dir + "/" + pm::kCkptFileName);
  ASSERT_TRUE(ck.ok) << ck.error;
  EXPECT_EQ(ck.kind, pm::EngineKind::kAligned);
  EXPECT_EQ(ck.version, pm::kCkptVersion);
  EXPECT_GT(ck.position, 0);
  EXPECT_EQ(ck.scenario.max_slots, fx.budget);

  const core::ResumeResult resumed = core::resume_coloring(ck);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  expect_run_equal(resumed.run, plain);
}

TEST(RunnerPostmortem, DescribeCheckpointReportsFrozenState) {
  const BundleFixture fx = make_fixture(5);
  const std::string dir = ::testing::TempDir() + "pm_describe_bundle";
  core::TraceOptions topts;
  topts.postmortem.dir = dir;
  topts.postmortem.checkpoint_every = 300;
  (void)core::run_coloring_traced(fx.g, fx.params, fx.schedule, fx.seed,
                                  topts, fx.budget);

  const core::LoadedCheckpoint ck =
      core::load_checkpoint(dir + "/" + pm::kCkptFileName);
  ASSERT_TRUE(ck.ok) << ck.error;
  const core::CheckpointSummary summary = core::describe_checkpoint(ck);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.position, ck.position);
  EXPECT_EQ(summary.nodes.size(), fx.g.num_nodes());
  EXPECT_EQ(summary.stats.slots_run, ck.position);
  std::size_t decided = 0;
  for (const auto& node : summary.nodes) decided += node.decided ? 1 : 0;
  EXPECT_EQ(summary.decided, decided);
}

TEST(RunnerPostmortem, ViolationCapturesFullBundle) {
  // An extreme fading rate stretches decision latencies far past the
  // Theorem 3 budget the monitor enforces, tripping the latency
  // invariant; scan a few seeds in case one run stays clean.
  radio::MediumOptions medium;
  medium.drop_probability = 0.85;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const BundleFixture fx = make_fixture(seed);
    const std::string dir = ::testing::TempDir() + "pm_violation_bundle_s" +
                            std::to_string(seed);
    core::TraceOptions topts;
    topts.postmortem.dir = dir;
    topts.postmortem.checkpoint_every = 1000;
    topts.postmortem.dump_on_violation = true;  // implies monitor
    const core::RunResult run = core::run_coloring_traced(
        fx.g, fx.params, fx.schedule, fx.seed, topts, fx.budget, medium);
    ASSERT_TRUE(run.monitor.has_value());
    if (run.monitor->ok()) continue;

    EXPECT_EQ(run.bundle, dir);
    EXPECT_TRUE(file_exists(dir + "/" + pm::kMonitorFileName));
    EXPECT_TRUE(file_exists(dir + "/" + pm::kCkptFileName));
    // The captured monitor report names a first violation.
    const auto* first = obs::first_violation(*run.monitor);
    ASSERT_NE(first, nullptr);
    EXPECT_GE(first->first_slot, 0);
    // And the bundle's checkpoint is still resumable.
    const core::LoadedCheckpoint ck =
        core::load_checkpoint(dir + "/" + pm::kCkptFileName);
    ASSERT_TRUE(ck.ok) << ck.error;
    const core::ResumeResult resumed = core::resume_coloring(ck);
    EXPECT_TRUE(resumed.ok) << resumed.error;
    return;
  }
  GTEST_SKIP() << "no invariant violation at drop=0.85 across 8 seeds";
}

TEST(RunnerPostmortem, ResumeRejectsCorruptEngineState) {
  const BundleFixture fx = make_fixture(13);
  const std::string dir = ::testing::TempDir() + "pm_corrupt_bundle";
  core::TraceOptions topts;
  topts.postmortem.dir = dir;
  topts.postmortem.checkpoint_every = 500;
  (void)core::run_coloring_traced(fx.g, fx.params, fx.schedule, fx.seed,
                                  topts, fx.budget);

  core::LoadedCheckpoint ck =
      core::load_checkpoint(dir + "/" + pm::kCkptFileName);
  ASSERT_TRUE(ck.ok) << ck.error;
  ck.engine_state.resize(ck.engine_state.size() / 2);  // chop the state
  const core::ResumeResult resumed = core::resume_coloring(ck);
  EXPECT_FALSE(resumed.ok);
  EXPECT_FALSE(resumed.error.empty());
}

// ---- golden URNC v1 fixtures ---------------------------------------------
//
// tests/fixtures/*_v1.urnc were written by the build that preceded the
// single-engine refactor, so they pin that checkpoints from an older
// build keep loading and resume to exactly the run they froze.  Each
// expectation is the uninterrupted run's final stats and an FNV-1a
// digest over (color, decision slot) per node.  The scenarios:
//  * aligned: random_udg(40, 4.5, 1.4) with Rng(2024), uniform wake in
//    300 slots with Rng(2025), drop 0.1, seed 2026, practical(n, Δ, 5,
//    12), the runner's default slot budget; snapshot at slot 200;
//  * misaligned: gnp(40, 0.12) with Rng(3024), uniform wake in 300 slots
//    with Rng(3025), random offsets from Rng(3027), seed 3026, budget
//    4·threshold + 2000; snapshot at the odd half 401.
// They must never be regenerated: a mismatch means the v1 reader broke.

struct GoldenRun {
  const char* file;
  pm::EngineKind kind;
  std::int64_t position;
  radio::RunStats stats;
  graph::Color max_color;
  std::uint64_t digest;
};

std::uint64_t color_decision_digest(const core::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t v = 0; v < r.colors.size(); ++v) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.colors[v])));
    mix(static_cast<std::uint64_t>(r.decision_slot[v]));
  }
  return h;
}

class GoldenCheckpoint : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(GoldenCheckpoint, V1FixtureResumesToRecordedRun) {
  const GoldenRun& g = GetParam();
  const core::LoadedCheckpoint ck =
      core::load_checkpoint(std::string(URN_FIXTURE_DIR) + "/" + g.file);
  ASSERT_TRUE(ck.ok) << ck.error;
  EXPECT_EQ(ck.version, 1);
  EXPECT_EQ(ck.kind, g.kind);
  EXPECT_EQ(ck.position, g.position);

  const core::ResumeResult resumed = core::resume_coloring(ck);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  const radio::RunStats& s = resumed.run.medium;
  EXPECT_EQ(s.slots_run, g.stats.slots_run);
  EXPECT_EQ(s.transmissions, g.stats.transmissions);
  EXPECT_EQ(s.deliveries, g.stats.deliveries);
  EXPECT_EQ(s.collisions, g.stats.collisions);
  EXPECT_EQ(s.dropped, g.stats.dropped);
  EXPECT_EQ(s.all_decided, g.stats.all_decided);
  EXPECT_TRUE(resumed.run.check.valid());
  EXPECT_EQ(resumed.run.max_color, g.max_color);
  EXPECT_EQ(color_decision_digest(resumed.run), g.digest);

  const core::CheckpointSummary summary = core::describe_checkpoint(ck);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.nodes.size(), ck.scenario.num_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, GoldenCheckpoint,
    ::testing::Values(
        GoldenRun{"aligned_v1.urnc", pm::EngineKind::kAligned, 200,
                  radio::RunStats{20574, 12666, 72782, 4986, 8137, true}, 130,
                  0xfaee6d9516dcf3daull},
        GoldenRun{"misaligned_v1.urnc", pm::EngineKind::kMisaligned, 401,
                  radio::RunStats{10108, 9516, 33794, 7735, 0, true}, 91,
                  0x85bb3f3b18cfe043ull}),
    [](const ::testing::TestParamInfo<GoldenRun>& param_info) {
      return param_info.param.kind == pm::EngineKind::kAligned
                 ? std::string("aligned")
                 : std::string("misaligned");
    });

// ---- corrupt scenario fields ----------------------------------------------

struct ScenarioMutant {
  const char* name;
  void (*mutate)(core::CheckpointScenario&);
};

/// The aligned golden fixture with one scenario field rewritten through
/// the scenario codec.  The section keeps its length, so only that
/// field's bytes differ from the fixture.  Returns the mutant's path.
std::string write_mutant(const ScenarioMutant& m) {
  const std::string fixture =
      std::string(URN_FIXTURE_DIR) + "/aligned_v1.urnc";
  const pm::CheckpointFile file = pm::read_checkpoint_file(fixture);
  EXPECT_TRUE(file.ok) << file.error;
  pm::Reader r(file.scenario);
  core::CheckpointScenario s;
  EXPECT_TRUE(core::read_scenario(r, s));
  EXPECT_EQ(core::render_scenario(s), file.scenario);
  m.mutate(s);
  const std::string scenario = core::render_scenario(s);
  EXPECT_EQ(scenario.size(), file.scenario.size());

  std::ifstream in(fixture, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Header: magic, version, kind, position, scenario section length.
  constexpr std::size_t kScenarioAt = 4 + 2 + 2 + 8 + 4;
  bytes.replace(kScenarioAt, scenario.size(), scenario);
  const std::string path =
      ::testing::TempDir() + "mutant_" + m.name + ".urnc";
  EXPECT_TRUE(pm::write_text_file(path, bytes));
  return path;
}

class CorruptScenario : public ::testing::TestWithParam<ScenarioMutant> {};

TEST_P(CorruptScenario, LoadRejectsTheSection) {
  const std::string path = write_mutant(GetParam());
  const core::LoadedCheckpoint ck = core::load_checkpoint(path);
  EXPECT_FALSE(ck.ok);
  EXPECT_NE(ck.error.find("corrupt scenario section"), std::string::npos)
      << ck.error;
  EXPECT_FALSE(core::resume_coloring(ck).ok);
  EXPECT_FALSE(core::describe_checkpoint(ck).ok);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    GoldenAligned, CorruptScenario,
    ::testing::Values(
        ScenarioMutant{"negative_wake",
                       [](core::CheckpointScenario& s) {
                         s.wake_slots[0] = -5;
                       }},
        ScenarioMutant{"drop_above_one",
                       [](core::CheckpointScenario& s) {
                         s.medium.drop_probability = 1.5;
                       }},
        ScenarioMutant{"drop_nan",
                       [](core::CheckpointScenario& s) {
                         s.medium.drop_probability =
                             std::numeric_limits<double>::quiet_NaN();
                       }},
        ScenarioMutant{"negative_alpha",
                       [](core::CheckpointScenario& s) {
                         s.params.alpha = -1.0;
                       }}),
    [](const ::testing::TestParamInfo<ScenarioMutant>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace urn
