/// M2 — whole-run counter gate.
///
/// Four fixed-seed complete runs, {UDG, obstacle BIG} × {sync, delayed}
/// at n = 96, each from construction to quiescence on the untraced hot
/// path.  Every cell exports exact counter keys (`m2.<cell>.slots_run`,
/// `.node_slots`, `.transmissions`, `.delta`, `.all_decided`) into
/// `BENCH_m2_smoke.json`, which the `bench_regression` ctest compares
/// bit-for-bit against `bench/baseline/`, so an engine change that moves
/// a single slot or transmission fails the gate.  Wall-clock speed is
/// perfbench's job (perfbench/README.md), measured in awake node-slots.
///
/// The `delayed` pattern wakes every node only after a long empty prefix
/// — the wake-gap fast-forward regime: the engine must not pay per-slot
/// cost for slots in which nothing can happen.
///
/// `--jobs N` fans the cells out across workers (the keys are identical
/// for every N); `--trace-bin` records one extra run of the first cell
/// as a binary event log for `urn_explain` / `urn_trace`.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/runner.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace urn;

struct CellSpec {
  std::string family;  ///< "udg" | "big"
  std::size_t n = 0;
  double side = 0.0;
  double radius = 1.5;
  std::size_t walls = 0;  ///< BIG only
  std::string pattern;    ///< "sync" | "delayed"
  std::uint64_t seed = 0;
};

struct CellResult {
  std::string id;  ///< e.g. "udg.n96.d20.sync"
  std::uint32_t delta = 0;
  std::int64_t slots_run = 0;
  std::uint64_t transmissions = 0;
  bool all_decided = false;
  std::int64_t node_slots = 0;
};

/// Wake slots for all nodes land inside [delay, delay + 2·threshold];
/// the leading `delay` slots are pure wake-gap.
constexpr radio::Slot kDelayedPrefix = 250000;

graph::Graph build_graph(const CellSpec& spec) {
  Rng rng(mix_seed(0x32AC20, spec.seed));
  if (spec.family == "big") {
    auto segs =
        graph::random_walls(spec.walls, spec.side, 1.0, 4.0, rng);
    return graph::random_obstacle_big(spec.n, spec.side, spec.radius,
                                      std::move(segs), rng)
        .graph;
  }
  return graph::random_udg(spec.n, spec.side, spec.radius, rng).graph;
}

radio::WakeSchedule make_schedule(const CellSpec& spec,
                                  const core::Params& params) {
  if (spec.pattern == "sync") return radio::WakeSchedule::synchronous(spec.n);
  // "delayed": a uniform 2·threshold window shifted past a long empty
  // prefix.
  Rng wrng(mix_seed(0x32ACFE, spec.seed));
  const auto base =
      radio::WakeSchedule::uniform(spec.n, 2 * params.threshold(), wrng);
  std::vector<radio::Slot> slots = base.slots();
  for (radio::Slot& s : slots) s += kDelayedPrefix;
  return radio::WakeSchedule(std::move(slots));
}

CellResult run_cell(const CellSpec& spec) {
  const graph::Graph g = build_graph(spec);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(spec.n, delta, 5, 12);
  const core::RunResult run = core::run_coloring(
      g, params, make_schedule(spec, params), mix_seed(0x32AC5D, spec.seed));

  CellResult r;
  r.id = spec.family + ".n" + std::to_string(spec.n) + ".d" +
         std::to_string(delta) + "." + spec.pattern;
  r.delta = delta;
  r.slots_run = static_cast<std::int64_t>(run.medium.slots_run);
  r.transmissions = run.medium.transmissions;
  r.all_decided = run.all_decided;
  r.node_slots = r.slots_run * static_cast<std::int64_t>(spec.n);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.add_int("jobs", 1,
                "worker threads across the cells (0 = all hardware "
                "threads); the keys are identical for every value");
  flags.add_string("trace-bin", "",
                   "after the cells, record one extra run of the first "
                   "cell as a compact binary event log (analyze with "
                   "urn_trace / urn_explain); never affects the keys");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("m2_macro").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("m2_macro").c_str());
    return 0;
  }
  const std::size_t jobs = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("jobs")));

  bench::banner("M2", "whole-run counter gate (UDG and BIG, sync and "
                      "delayed wake, n = 96)");

  std::vector<CellSpec> cells;
  for (const char* p : {"sync", "delayed"}) {
    cells.push_back({"udg", 96, 6.5, 1.5, 0, p, 1});
    cells.push_back({"big", 96, 6.5, 1.5, 12, p, 2});
  }

  // One cell per "trial": fixed per-cell seeds make every key
  // bit-identical for any --jobs.
  struct Partial {
    std::vector<CellResult> cells;
  };
  const Partial all = exec::parallel_for_trials<Partial>(
      cells.size(), {jobs},
      [&](Partial& acc, std::size_t i) {
        acc.cells.push_back(run_cell(cells[i]));
      },
      [](Partial& into, Partial&& chunk) {
        for (CellResult& r : chunk.cells) into.cells.push_back(std::move(r));
      });

  bench::BenchSummary summary("m2_smoke");
  summary.set("cells", static_cast<std::uint64_t>(all.cells.size()));
  summary.set("reps", std::uint64_t{1});  // every cell runs once
  summary.set("jobs", static_cast<std::uint64_t>(exec::resolve_jobs(jobs)));

  std::printf("%-24s %8s %10s %12s %14s\n", "cell", "Delta", "slots",
              "node-slots", "transmissions");
  for (const CellResult& r : all.cells) {
    std::printf("%-24s %8u %10lld %12lld %14llu\n", r.id.c_str(), r.delta,
                static_cast<long long>(r.slots_run),
                static_cast<long long>(r.node_slots),
                static_cast<unsigned long long>(r.transmissions));
    const std::string cell = "m2." + r.id;
    summary.set(cell + ".delta", r.delta);
    summary.set(cell + ".slots_run", r.slots_run);
    summary.set(cell + ".node_slots", r.node_slots);
    summary.set(cell + ".transmissions", r.transmissions);
    summary.set(cell + ".all_decided", r.all_decided);
  }
  summary.add_profile();
  summary.emit();

  // --trace-bin: one extra traced run of the first cell, after the
  // summary is written, so the emitted keys are identical with and
  // without the flag.  CI feeds this capture to `urn_explain summarize`.
  const std::string trace_bin = flags.get_string("trace-bin");
  if (!trace_bin.empty()) {
    const CellSpec& spec = cells.front();
    const graph::Graph g = build_graph(spec);
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params =
        core::Params::practical(spec.n, delta, 5, 12);
    core::TraceOptions topts;
    topts.events_bin = trace_bin;
    const core::RunResult run = core::run_coloring_traced(
        g, params, make_schedule(spec, params),
        mix_seed(0x32AC5D, spec.seed), topts);
    std::printf("(trace: %llu events -> %s; attribute with urn_explain "
                "summarize %s --kappa2 %u --passive-slots %lld)\n",
                static_cast<unsigned long long>(run.events_recorded),
                trace_bin.c_str(), trace_bin.c_str(), params.kappa2,
                static_cast<long long>(params.passive_slots()));
  }
  return 0;
}
