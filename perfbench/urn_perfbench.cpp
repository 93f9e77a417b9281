/// urn_perfbench — the repository benchmark's workload runner.
///
/// One process runs one instance of one workload and prints a single
/// JSON report as its last stdout line.  perfbench/run.py builds this
/// program, launches one process per instance until the measuring time
/// is used up, takes medians, checks the reports and prints the
/// result line.  See perfbench/README.md for the workloads, the metric
/// table and the A/B recipe.
///
/// Every layer is timed from outside, around calls into its public
/// functions:
///   graph  — graph::random_udg / random_walls + random_obstacle_big
///   core   — ColoringNode construction, harvest_coloring (incl.
///            graph::validate), load_checkpoint, resume_coloring
///   radio  — Engine / MisalignedEngine constructors, run, step, step_half
///   obs    — run_coloring_traced (events_bin / postmortem),
///            read_trace_file, explain_trace
///
/// Usage:
///   urn_perfbench --workload <name> --seed <n> --instance <r>
///                 --trace <0|1> --workdir <dir> [--tiny] [--setup-only]
///
/// --trace 0 measures one untraced whole run (--setup-only: its setup
/// alone); --trace 1 is the traced run, which drives the same untraced
/// engine through step()/step_half(), times each call, and reports
/// per-layer metrics.  --tiny shrinks every workload to a fraction of a
/// second (the benchmark's own test).  Exit code 0 = report printed
/// (failed operations are listed in it), 2 = usage error.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "obs/bintrace.hpp"
#include "obs/event.hpp"
#include "obs/explain.hpp"
#include "radio/engine.hpp"
#include "radio/misaligned_engine.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace {

using namespace urn;
using Clock = std::chrono::steady_clock;
using Aligned = radio::Engine<core::ColoringNode>;
using HalfSlot = radio::MisalignedEngine<core::ColoringNode>;

/// The seed whose exact simulated statistics are recorded below.
constexpr std::uint64_t kDefaultSeed = 1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Heap bytes in use (arena + mmapped chunks); the allocation made by a
/// constructor is the difference around it.
std::int64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- workloads --------------------------------------------------------

struct Spec {
  std::string name;
  bool big = false;       ///< obstacle BIG (else UDG)
  std::size_t n = 0;
  double side = 0.0;
  std::size_t walls = 0;
  bool sync_wake = false; ///< synchronous (else uniform in 2·threshold)
  radio::Slot cap = 0;    ///< slot cap (0 = run to quiescence)
  double drop = 0.0;
  bool halfslot = false;  ///< MisalignedEngine with random offsets
  bool pipeline = false;  ///< capture → explain, checkpoint → resume
  double scale = 1.0;     ///< factor on the practical constants
};

constexpr double kRadius = 1.5;

/// Constants factor of the workloads that run to quiescence.  The gate
/// demands a valid coloring from every instance, but the protocol is
/// Monte Carlo: at Params::practical (calibrated on 60 small runs, E7)
/// about one instance in several hundred here was seen to end with a
/// monochromatic edge: a node reached its threshold while every C_i
/// announcement of an already-decided neighbour had been lost to
/// collisions, drops or half-slot overlap (perfbench/README.md has the
/// traces).  Doubling the windows makes such a miss negligible; 2 is also
/// the paper's factor for non-aligned slots (Sect. 2).
constexpr double kQuiescentScale = 2.0;

std::optional<Spec> find_spec(const std::string& name, bool tiny) {
  // Tiny sizes keep each workload's density (n / side²) and shape.
  constexpr double k = kQuiescentScale;
  if (name == "dense_udg") {
    return tiny ? Spec{name, false, 128, 3.63, 0, false, 0, 0.0, false, false,
                       k}
                : Spec{name, false, 2048, 14.5, 0, false, 0, 0.0, false,
                       false, k};
  }
  if (name == "large_udg") {
    // Unscaled: the cap ends the run long before any node can reach its
    // threshold, and doubled constants would make all 12 000 slots
    // passive.
    return tiny ? Spec{name, false, 2000, 29.7, 0, true, 3000, 0.0, false,
                       false}
                : Spec{name, false, 100000, 210.0, 0, true, 12000, 0.0,
                       false, false};
  }
  if (name == "lossy_pipeline") {
    // A quarter of the n = 1024 BIG cell (same point and wall density,
    // Δ ≈ 36): with doubled constants a pass captures about as many
    // events as n = 512 unscaled (a few hundred MB read back at once).
    return tiny ? Spec{name, true, 128, 6.36, 5, false, 0, 0.05, false, true,
                       k}
                : Spec{name, true, 256, 9.0, 10, false, 0, 0.05, false, true,
                       k};
  }
  if (name == "halfslot_big") {
    return tiny ? Spec{name, true, 128, 6.36, 5, false, 0, 0.0, true, false,
                       k}
                : Spec{name, true, 1024, 18.0, 40, false, 0, 0.0, true,
                       false, k};
  }
  return std::nullopt;
}

/// Exact simulated statistics of one run (draw-order spec v1).
struct Exact {
  std::int64_t slots_run = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t dropped = 0;
  std::int64_t max_color = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over (color, decision slot) per node

  friend bool operator==(const Exact&, const Exact&) = default;
};

/// Recorded statistics for kDefaultSeed at full size.
const std::map<std::string, Exact>& recorded() {
  // Recorded when the benchmark was defined (run.py prints the
  // "exact (instance 0)" line); a mismatch means the simulation changed.
  static const std::map<std::string, Exact> table = {
      {"dense_udg",
       {717759, 3926068, 196782966, 16895630, 0, 1001, 0x7373303d7e9a2b3}},
      {"large_udg", {12000, 553011, 8455139, 160971, 0, -1, 0x8165434a6a0d583}},
      {"lossy_pipeline",
       {182671, 414549, 4977083, 401013, 261925, 390, 0xf577f2a034fb68c3}},
      {"halfslot_big",
       {229753, 1847280, 23072831, 4893035, 0, 364, 0xc6b2b6e40d7e3c6c}},
  };
  return table;
}

Exact exact_of(const core::RunResult& r) {
  Exact e;
  e.slots_run = r.medium.slots_run;
  e.transmissions = r.medium.transmissions;
  e.deliveries = r.medium.deliveries;
  e.collisions = r.medium.collisions;
  e.dropped = r.medium.dropped;
  e.max_color = r.max_color;
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
  e.digest = h;
  return e;
}

std::string exact_json(const Exact& e) {
  std::ostringstream os;
  os << "{\"slots_run\":" << e.slots_run
     << ",\"transmissions\":" << e.transmissions
     << ",\"deliveries\":" << e.deliveries
     << ",\"collisions\":" << e.collisions << ",\"dropped\":" << e.dropped
     << ",\"max_color\":" << e.max_color << ",\"digest\":\"" << std::hex
     << e.digest << "\"}";
  return os.str();
}

/// The generated inputs of one workload instance.  Params is held by
/// pointer so node objects (which keep a Params*) survive moves.
struct Inputs {
  graph::Graph graph;
  std::unique_ptr<core::Params> params;
  radio::WakeSchedule schedule;
  std::vector<std::uint8_t> offsets;  ///< halfslot only
  radio::Slot max_slots = 0;          ///< resolved cap
  std::uint64_t run_seed = 0;
  radio::MediumOptions medium;
};

/// Host-time marks of one run, in seconds from its start.
struct Marks {
  double graph = 0, schedule = 0, nodes = 0, engine = 0, loop = 0,
         harvest = 0;
  std::int64_t node_heap = 0;    ///< heap bytes added by node construction
  std::int64_t engine_heap = 0;  ///< heap bytes added by the engine ctor
  [[nodiscard]] double setup() const { return engine; }
  [[nodiscard]] double loop_s() const { return loop - engine; }
  [[nodiscard]] double total() const { return harvest; }
};

/// Build the graph: the graph layer's generators, seeded from `seed`.
graph::Graph build_graph(const Spec& s, std::uint64_t seed) {
  Rng rng(mix_seed(0xBE4C0001ull, seed));
  if (s.big) {
    auto walls = graph::random_walls(s.walls, s.side, 1.0, 4.0, rng);
    return graph::random_obstacle_big(s.n, s.side, kRadius, std::move(walls),
                                      rng)
        .graph;
  }
  return graph::random_udg(s.n, s.side, kRadius, rng).graph;
}

/// Everything after the graph and before the nodes: params, wake
/// schedule, half-slot offsets, slot cap.
void build_schedule(const Spec& s, std::uint64_t seed, Inputs& in) {
  const std::uint32_t delta = std::max(2u, in.graph.max_closed_degree());
  in.params = std::make_unique<core::Params>(
      core::Params::practical(s.n, delta, 5, 12).scaled(s.scale));
  Rng wrng(mix_seed(0xBE4C0002ull, seed));
  in.schedule = s.sync_wake ? radio::WakeSchedule::synchronous(s.n)
                            : radio::WakeSchedule::uniform(
                                  s.n, 2 * in.params->threshold(), wrng);
  if (s.halfslot) {
    Rng orng(mix_seed(0xBE4C0003ull, seed));
    in.offsets = HalfSlot::random_offsets(s.n, orng);
  }
  in.max_slots =
      s.cap > 0 ? s.cap : core::default_slot_budget(*in.params, in.schedule);
  in.run_seed = mix_seed(0xBE4C0004ull, seed);
  in.medium.drop_probability = s.drop;
}

std::vector<core::ColoringNode> build_nodes(const Inputs& in) {
  std::vector<core::ColoringNode> nodes;
  nodes.reserve(in.graph.num_nodes());
  for (graph::NodeId v = 0; v < in.graph.num_nodes(); ++v) {
    nodes.emplace_back(in.params.get(), v);
  }
  return nodes;
}

/// Σ_v (slots_run − wake_v)⁺ — awake node-slots; asleep and
/// fast-forwarded slots are not counted.
double awake_node_slots(const radio::WakeSchedule& ws, radio::Slot slots) {
  double total = 0;
  for (const radio::Slot w : ws.slots()) {
    if (slots > w) total += static_cast<double>(slots - w);
  }
  return total;
}

// ---- per-slot ledger of the step-timed run ----------------------------

struct StepLedger {
  std::vector<std::uint32_t> step_ns;  ///< every stepped slot
  double quiet_ns = 0, busy_ns = 0;
  double quiet_awake = 0, busy_awake = 0;
  std::uint64_t skipped = 0;  ///< slots run() would fast-forward

  void record(double ns, bool busy, std::size_t awake) {
    step_ns.push_back(static_cast<std::uint32_t>(std::min(ns, 4.0e9)));
    if (busy) {
      busy_ns += ns;
      busy_awake += static_cast<double>(awake);
    } else {
      quiet_ns += ns;
      quiet_awake += static_cast<double>(awake);
    }
  }
  [[nodiscard]] double step_sum_ns() const { return quiet_ns + busy_ns; }
  [[nodiscard]] double percentile(double q) const {
    if (step_ns.empty()) return 0.0;
    std::vector<std::uint32_t> v = step_ns;
    const auto k = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(v.size() - 1),
                         std::floor(q * static_cast<double>(v.size()))));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
  }
};

bool medium_moved(const radio::RunStats& a, const radio::RunStats& b) {
  return a.transmissions != b.transmissions ||
         a.deliveries != b.deliveries || a.collisions != b.collisions ||
         a.dropped != b.dropped;
}

/// Drive an aligned engine through step(), exactly as Engine::run would
/// (same stopping rule), timing each call.  Slots before the first wake
/// are the ones run() fast-forwards: stepped here but not timed.
radio::RunStats step_aligned(Aligned& eng, const Inputs& in,
                             StepLedger& led) {
  std::vector<radio::Slot> wakes = in.schedule.slots();
  std::sort(wakes.begin(), wakes.end());
  std::size_t awake = 0;
  radio::Slot slot = 0;
  while (slot < in.max_slots) {
    while (awake < wakes.size() && wakes[awake] <= slot) ++awake;
    if (awake == 0) {
      eng.step();
      ++led.skipped;
    } else {
      const radio::RunStats before = eng.stats();
      const auto t0 = Clock::now();
      eng.step();
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      led.record(ns, medium_moved(before, eng.stats()), awake);
    }
    ++slot;
    if (eng.all_decided()) break;
  }
  radio::RunStats stats = eng.stats();
  stats.all_decided = eng.all_decided();
  return stats;
}

/// The half-slot counterpart: one step_half() per global half-slot; the
/// awake count of a half is the number of woken nodes of its parity.
radio::RunStats step_halfslot(HalfSlot& eng, const Inputs& in,
                              StepLedger& led) {
  std::vector<radio::Slot> wakes[2];
  for (graph::NodeId v = 0; v < in.graph.num_nodes(); ++v) {
    wakes[in.offsets[v]].push_back(in.schedule.wake_slot(v));
  }
  for (auto& w : wakes) std::sort(w.begin(), w.end());
  std::size_t woken[2] = {0, 0};
  const std::int64_t half_cap = 2 * in.max_slots + 2;
  for (std::int64_t h = 0; h < half_cap; ++h) {
    const std::size_t p = static_cast<std::size_t>(h & 1);
    if (h >= static_cast<std::int64_t>(p)) {
      const radio::Slot local = (h - static_cast<std::int64_t>(p)) / 2;
      while (woken[p] < wakes[p].size() && wakes[p][woken[p]] <= local) {
        ++woken[p];
      }
    }
    if (woken[0] + woken[1] == 0) {
      eng.step_half();
      ++led.skipped;
    } else {
      const radio::RunStats before = eng.stats();
      const auto t0 = Clock::now();
      eng.step_half();
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      led.record(ns, medium_moved(before, eng.stats()), woken[p]);
    }
    if (eng.all_decided()) break;
  }
  radio::RunStats stats = eng.stats();
  stats.all_decided = eng.all_decided();
  return stats;
}

/// One whole run: graph build → schedule → nodes → engine → slot loop →
/// harvest.  `ledger` null = the untraced Engine::run path.
core::RunResult whole_run(const Spec& s, std::uint64_t seed, Inputs& in,
                          Marks& m, StepLedger* ledger, bool run_loop = true) {
  const auto t0 = Clock::now();
  in.graph = build_graph(s, seed);
  m.graph = seconds_since(t0);
  build_schedule(s, seed, in);
  m.schedule = seconds_since(t0);
  const std::int64_t h0 = ledger != nullptr ? heap_bytes() : 0;
  std::vector<core::ColoringNode> nodes = build_nodes(in);
  m.nodes = seconds_since(t0);
  const std::int64_t h1 = ledger != nullptr ? heap_bytes() : 0;
  core::RunResult result;
  if (s.halfslot) {
    HalfSlot eng(in.graph, in.schedule, std::move(nodes), in.offsets,
                 in.run_seed);
    m.engine = seconds_since(t0);
    if (ledger != nullptr) m.engine_heap = heap_bytes() - h1;
    if (!run_loop) return result;
    const radio::RunStats stats = ledger != nullptr
                                      ? step_halfslot(eng, in, *ledger)
                                      : eng.run(in.max_slots);
    m.loop = seconds_since(t0);
    result = core::harvest_coloring(eng, in.graph, in.schedule, stats);
  } else {
    Aligned eng(in.graph, in.schedule, std::move(nodes), in.run_seed,
                in.medium);
    m.engine = seconds_since(t0);
    if (ledger != nullptr) m.engine_heap = heap_bytes() - h1;
    if (!run_loop) return result;
    const radio::RunStats stats = ledger != nullptr
                                      ? step_aligned(eng, in, *ledger)
                                      : eng.run(in.max_slots);
    m.loop = seconds_since(t0);
    result = core::harvest_coloring(eng, in.graph, in.schedule, stats);
  }
  m.harvest = seconds_since(t0);
  m.node_heap = h1 - h0;
  return result;
}

// ---- the report -------------------------------------------------------

/// How run.py combines one metric over the processes of a run.
enum class Agg { kMedian, kFirst, kMax };

struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
    Agg agg = Agg::kMedian;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  /// A host-time or ratio measurement: run.py reports its median.
  void time(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit, Agg::kMedian};
  }
  /// An exact count: run.py reports instance 0's value.
  void count(const std::string& name, double value,
             const std::string& unit = "count") {
    metrics[name] = {value, unit, Agg::kFirst};
  }
  /// Count one operation; `problem` empty = it passed.
  void op(const std::string& what, const std::string& problem) {
    ++attempted;
    if (!problem.empty()) failures.push_back(what + ": " + problem);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string same_run(const core::RunResult& want, const core::RunResult& got) {
  if (!(exact_of(want) == exact_of(got))) {
    return "differs from the straight untraced run: " +
           exact_json(exact_of(got)) + " vs " + exact_json(exact_of(want));
  }
  if (want.all_decided != got.all_decided) return "all_decided differs";
  return "";
}

/// Correctness of one straight run: valid coloring, quiescence, and (for
/// the default seed at full size) the recorded exact statistics.
std::string check_run(const Spec& s, const core::RunResult& r,
                      std::uint64_t seed, bool tiny) {
  if (!r.check.correct) return "coloring has a monochromatic edge";
  if (s.cap == 0 && !(r.all_decided && r.check.complete)) {
    return "quiescent workload ended with undecided nodes";
  }
  if (seed == kDefaultSeed && !tiny) {
    const auto it = recorded().find(s.name);
    if (it != recorded().end() && !(it->second == exact_of(r))) {
      return "exact statistics differ from the recorded ones: " +
             exact_json(exact_of(r)) + " vs " + exact_json(it->second);
    }
  }
  return "";
}

/// Run `body` as one counted operation; an exception fails it.
template <typename F>
void guarded(Report& rep, const std::string& what, F&& body) {
  try {
    rep.op(what, body());
  } catch (const std::exception& e) {
    rep.op(what, std::string("threw: ") + e.what());
  }
}

std::int64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

/// Timings and counts of one pass of the obs pipeline.
struct PipelineRun {
  double capture_s = 0, read_s = 0, explain_trace_s = 0, checkpoint_run_s = 0,
         load_s = 0, resume_run_s = 0;
  std::uint64_t events = 0, edge_visits = 0, exact_nodes = 0;
  std::int64_t trace_bytes = 0, checkpoint_bytes = 0, resumed_slots = 0;
};

/// capture → read + explain → checkpointing run → load + resume, each an
/// operation checked against the straight untraced run `straight`.
PipelineRun pipeline(const Inputs& in, const core::RunResult& straight,
                     const std::string& dir, Report& rep) {
  PipelineRun p;
  const std::string log = dir + "/capture.bin";
  guarded(rep, "capture", [&] {
    core::TraceOptions topts;
    topts.events_bin = log;
    const auto t0 = Clock::now();
    const core::RunResult r = core::run_coloring_traced(
        in.graph, *in.params, in.schedule, in.run_seed, topts, in.max_slots,
        in.medium);
    p.capture_s = seconds_since(t0);
    p.events = r.events_recorded;
    p.trace_bytes = file_bytes(log);
    return same_run(straight, r);
  });
  guarded(rep, "explain", [&] {
    const auto t0 = Clock::now();
    const obs::ParsedTraceFile parsed = obs::read_trace_file(log);
    p.read_s = seconds_since(t0);
    if (!parsed.ok) return "read_trace_file: " + parsed.error;
    obs::ExplainConfig cfg;
    cfg.kappa2 = in.params->kappa2;
    cfg.passive_slots = in.params->passive_slots();
    const auto t1 = Clock::now();
    const obs::ExplainReport er = obs::explain_trace(parsed.events, cfg);
    p.explain_trace_s = seconds_since(t1);
    p.exact_nodes = er.exact_nodes;
    for (const obs::Event& e : parsed.events) {
      if (e.kind == obs::EventKind::kTransmit) {
        p.edge_visits += in.graph.degree(e.node);
      }
    }
    if (parsed.events.size() != p.events) {
      return std::string("read back a different number of events");
    }
    if (!er.exact_ok()) return std::string("explain_trace is not exact_ok");
    if (er.fig2_violations != 0) {
      return "explain_trace reports " + std::to_string(er.fig2_violations) +
             " Fig. 2 violations";
    }
    if (er.decided_nodes != in.graph.num_nodes()) {
      return std::string("explain_trace saw undecided nodes");
    }
    return std::string();
  });
  std::filesystem::remove(log);

  const std::string bundle = dir + "/bundle";
  guarded(rep, "checkpoint_run", [&] {
    core::TraceOptions topts;
    topts.postmortem.dir = bundle;
    // Snapshots at slot 0 and near mid-run; the file keeps the last one.
    topts.postmortem.checkpoint_every = straight.medium.slots_run / 2 + 1;
    const auto t0 = Clock::now();
    const core::RunResult r = core::run_coloring_traced(
        in.graph, *in.params, in.schedule, in.run_seed, topts, in.max_slots,
        in.medium);
    p.checkpoint_run_s = seconds_since(t0);
    p.checkpoint_bytes =
        file_bytes(bundle + "/" + obs::postmortem::kCkptFileName);
    return same_run(straight, r);
  });
  guarded(rep, "resume", [&] {
    const auto t0 = Clock::now();
    const core::LoadedCheckpoint ck = core::load_checkpoint(
        bundle + "/" + obs::postmortem::kCkptFileName);
    p.load_s = seconds_since(t0);
    if (!ck.ok) return "load_checkpoint: " + ck.error;
    const auto t1 = Clock::now();
    const core::ResumeResult rr = core::resume_coloring(ck);
    p.resume_run_s = seconds_since(t1);
    if (!rr.ok) return "resume_coloring: " + rr.error;
    p.resumed_slots = rr.run.medium.slots_run - ck.position;
    if (ck.position <= 0) return std::string("no mid-run checkpoint taken");
    return same_run(straight, rr.run);
  });
  std::filesystem::remove_all(bundle);
  return p;
}

// ---- provenance -------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string provenance_json() {
  std::ostringstream os;
  long l2 = 0, l3 = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  os << "{\"compiler\":\"" << json_escape(URN_PB_COMPILER) << "\""
     << ",\"compiler_version\":\"" << json_escape(__VERSION__) << "\""
     << ",\"build_type\":\"" << json_escape(URN_PB_BUILD_TYPE) << "\""
     << ",\"cxx_flags\":\"" << json_escape(URN_PB_CXX_FLAGS) << "\""
     << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
     << ",\"l2_bytes\":" << l2 << ",\"l3_bytes\":" << l3 << "}";
  return os.str();
}

// ---- the two run modes ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::size_t instance = 0;
  bool trace = false;
  bool tiny = false;
  bool setup_only = false;
  std::string workdir = ".";
};

/// Largest share of a traced run that its setup, loop and harvest spans
/// may leave uncovered (the self-accounting check).
constexpr double kSpanEpsilon = 0.01;

/// Instance r of a run: instance 0 is the seed itself (the one with
/// recorded statistics), later instances are derived from it, so a run's
/// medians average over inputs as well as over time.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance) {
  return instance == 0 ? seed : mix_seed(seed, 0xBE4C1000ull + instance);
}

/// --trace 0: one untraced whole run of the instance (plus, on
/// lossy_pipeline, the obs pipeline on it).
void measure(const Spec& s, const Options& o, Report& rep,
             std::string& exact_out) {
  const std::uint64_t seed = instance_seed(o.seed, o.instance);
  Inputs in;
  Marks m;
  if (o.setup_only) {
    guarded(rep, "setup", [&] {
      (void)whole_run(s, seed, in, m, nullptr, /*run_loop=*/false);
      return std::string();
    });
    rep.time("setup_s", m.setup(), "s");
    return;
  }
  const auto pass0 = Clock::now();
  core::RunResult r;
  bool ran = false;
  guarded(rep, "run", [&] {
    r = whole_run(s, seed, in, m, nullptr);
    ran = true;
    return check_run(s, r, seed, o.tiny);
  });
  if (!ran) return;
  exact_out = exact_json(exact_of(r));
  rep.time("run_s", m.total(), "s");
  rep.time("setup_s", m.setup(), "s");
  rep.time("node_slot_rate",
           awake_node_slots(in.schedule, r.medium.slots_run) / m.loop_s(),
           "node-slots/s");
  if (s.pipeline) {
    const PipelineRun p = pipeline(in, r, o.workdir, rep);
    rep.time("capture_s", p.capture_s, "s");
    rep.time("explain_s", p.read_s + p.explain_trace_s, "s");
    rep.time("checkpoint_run_s", p.checkpoint_run_s, "s");
    rep.time("resume_s", p.load_s + p.resume_run_s, "s");
  }
  rep.time("pass_s", seconds_since(pass0), "s");
}

/// --trace 1: the instance twice, untraced and step-timed (in an order
/// that alternates with the instance), plus the obs pipeline on
/// lossy_pipeline's instance 0.  The step-timed run's stats must equal
/// the untraced run's bit for bit.  Spans are kept in memory and written
/// to <workdir>/spans-<instance>.json at exit.
void traced(const Spec& s, const Options& o, Report& rep,
            std::string& exact_out) {
  struct Span {
    std::string name;
    double begin, end;  ///< seconds since the process's traced run began
  };
  std::vector<Span> spans;
  const auto origin = Clock::now();
  auto at = [&origin](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };

  const std::uint64_t seed = instance_seed(o.seed, o.instance);
  Inputs in;
  Marks plain_m, step_m;
  core::RunResult plain;
  std::optional<core::RunResult> stepped;
  StepLedger led;
  double uncovered = 0;

  /// One timed whole run with its spans; returns false if it threw.
  auto one = [&](bool step_timed) {
    Inputs local;
    Inputs& inputs = step_timed ? local : in;
    Marks& m = step_timed ? step_m : plain_m;
    const double base = at(Clock::now());
    const auto t0 = Clock::now();
    bool ok = false;
    guarded(rep, step_timed ? "stepped_run" : "run", [&] {
      core::RunResult r =
          whole_run(s, seed, inputs, m, step_timed ? &led : nullptr);
      ok = true;
      if (step_timed) {
        stepped = std::move(r);
        return std::string();
      }
      plain = std::move(r);
      return check_run(s, plain, seed, o.tiny);
    });
    if (!ok) return false;
    const double root = seconds_since(t0);
    const std::string tag = step_timed ? "stepped" : "untraced";
    spans.push_back({tag + ".run", base, base + root});
    spans.push_back({tag + ".graph", base, base + m.graph});
    spans.push_back({tag + ".schedule", base + m.graph, base + m.schedule});
    spans.push_back({tag + ".nodes", base + m.schedule, base + m.nodes});
    spans.push_back({tag + ".engine", base + m.nodes, base + m.engine});
    spans.push_back({tag + ".loop", base + m.engine, base + m.loop});
    spans.push_back({tag + ".harvest", base + m.loop, base + m.harvest});
    // Self-accounting: the child spans must tile the independently
    // timed run up to timer reads.
    const double gap = (root - m.total()) / root;
    uncovered = std::max(uncovered, gap);
    rep.op("span_accounting",
           gap <= kSpanEpsilon ? "" : "spans leave " + std::to_string(gap) +
                                          " of the " + tag + " run uncovered");
    return true;
  };
  // Alternate which run goes first so warm-up favours neither.
  const bool stepped_first = o.instance % 2 == 1;
  if (!one(stepped_first) || !one(!stepped_first)) return;
  exact_out = exact_json(exact_of(plain));
  rep.op("stepped_run_matches", same_run(plain, *stepped));

  // Setup and harvest spans of both runs measure the same calls.
  rep.time("graph.build_s", 0.5 * (plain_m.graph + step_m.graph), "s");
  rep.time("core.nodes_s",
           0.5 * (plain_m.nodes - plain_m.schedule + step_m.nodes -
                  step_m.schedule),
           "s");
  rep.time("radio.ctor_s",
           0.5 * (plain_m.engine - plain_m.nodes + step_m.engine -
                  step_m.nodes),
           "s");
  rep.time("core.harvest_s",
           0.5 * (plain_m.harvest - plain_m.loop + step_m.harvest -
                  step_m.loop),
           "s");
  rep.time("radio.loop_s", plain_m.loop_s(), "s");
  if (s.halfslot) rep.time("radio.halfslot_loop_s", plain_m.loop_s(), "s");
  rep.time("radio.stepped_loop_s", step_m.loop_s(), "s");
  rep.time("radio.step_cover", led.step_sum_ns() * 1e-9 / step_m.loop_s(),
           "ratio");
  rep.time("radio.quiet_ns_per_awake",
           led.quiet_awake > 0 ? led.quiet_ns / led.quiet_awake : 0, "ns");
  rep.time("radio.busy_ns_per_awake",
           led.busy_awake > 0 ? led.busy_ns / led.busy_awake : 0, "ns");
  rep.time("radio.busy_share",
           led.step_sum_ns() > 0 ? led.busy_ns / led.step_sum_ns() : 0,
           "ratio");
  rep.time("radio.step_ns.p50", led.percentile(0.50), "ns");
  rep.time("radio.step_ns.p99", led.percentile(0.99), "ns");
  rep.metrics["trace.uncovered_share"] = {uncovered, "ratio", Agg::kMax};

  const radio::RunStats& st = plain.medium;
  rep.count("graph.edges", static_cast<double>(in.graph.num_edges()));
  rep.count("core.node_bytes",
            static_cast<double>(step_m.node_heap) / static_cast<double>(s.n),
            "bytes/node");
  rep.count("radio.engine_bytes",
            static_cast<double>(step_m.engine_heap) /
                static_cast<double>(s.n),
            "bytes/node");
  rep.count("radio.awake_node_slots",
            awake_node_slots(in.schedule, st.slots_run));
  rep.count("radio.slots_stepped", static_cast<double>(led.step_ns.size()));
  rep.count("radio.slots_skipped", static_cast<double>(led.skipped));
  rep.count("radio.transmissions", static_cast<double>(st.transmissions));
  rep.count("radio.deliveries", static_cast<double>(st.deliveries));
  rep.count("radio.collisions", static_cast<double>(st.collisions));
  rep.count("radio.dropped", static_cast<double>(st.dropped));
  rep.count("radio.listeners_touched",
            static_cast<double>(st.deliveries + st.collisions + st.dropped));

  if (s.pipeline && o.instance == 0) {
    const double base = at(Clock::now());
    const PipelineRun p = pipeline(in, plain, o.workdir, rep);
    spans.push_back({"pipeline", base, at(Clock::now())});
    // capture_ns_per_event: capture minus the same run untraced
    // (everything but graph build, which capture takes as input).
    const double untraced = plain_m.total() - plain_m.graph;
    rep.count("obs.events", static_cast<double>(p.events));
    rep.count("obs.trace_bytes", static_cast<double>(p.trace_bytes),
              "bytes");
    rep.time("obs.capture_ns_per_event",
             p.events > 0 ? (p.capture_s - untraced) * 1e9 /
                                static_cast<double>(p.events)
                          : 0.0,
             "ns");
    rep.time("obs.read_s", p.read_s, "s");
    rep.time("obs.explain_trace_s", p.explain_trace_s, "s");
    rep.count("obs.explain_exact_nodes", static_cast<double>(p.exact_nodes));
    rep.count("radio.edge_visits", static_cast<double>(p.edge_visits));
    rep.count("obs.checkpoint_bytes",
              static_cast<double>(p.checkpoint_bytes), "bytes");
    rep.time("core.load_checkpoint_s", p.load_s, "s");
    rep.time("core.resume_run_s", p.resume_run_s, "s");
    rep.count("obs.resumed_slots", static_cast<double>(p.resumed_slots));
  }

  // Spans stay in memory during the run; write them out once, at exit.
  const std::string path =
      o.workdir + "/spans-" + std::to_string(o.instance) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f,
                   "  {\"instance\":%zu,\"name\":\"%s\",\"begin_s\":%.9f,"
                   "\"end_s\":%.9f}%s\n",
                   o.instance, spans[i].name.c_str(), spans[i].begin,
                   spans[i].end, i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: urn_perfbench --workload <name> --seed <n> "
               "--instance <r> --trace <0|1> --workdir <dir> [--tiny] "
               "[--setup-only]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    try {
      if (a == "--tiny") {
        o.tiny = true;
        continue;
      }
      if (a == "--setup-only") {
        o.setup_only = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--instance") {
        o.instance = std::stoull(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--workdir") {
        o.workdir = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  const std::optional<Spec> spec = find_spec(o.workload, o.tiny);
  if (!spec) return usage(("unknown workload '" + o.workload + "'").c_str());
  std::error_code ec;
  std::filesystem::create_directories(o.workdir, ec);

  // Run the workload in a forked child: Linux carries ru_maxrss across
  // execve, so this process's peak would include the launcher's (e.g. a
  // Python interpreter's) resident set; a fork that does not exec starts
  // from this program's own footprint.
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child > 0) {
    int status = 0;
    while (waitpid(child, &status, 0) < 0) {
      if (errno != EINTR) return 1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }

  Report rep;
  std::string exact;
  if (o.trace) {
    traced(*spec, o, rep, exact);
  } else {
    measure(*spec, o, rep, exact);
  }
  if (!o.setup_only) rep.time("peak_rss_mb", peak_rss_mib(), "MiB");

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << spec->name << "\",\"seed\":" << o.seed
     << ",\"instance\":" << o.instance << ",\"attempted\":" << rep.attempted
     << ",\"failures\":[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    os << (i ? "," : "") << "\"" << json_escape(rep.failures[i]) << "\"";
  }
  os << "],\"exact\":" << (exact.empty() ? "null" : exact)
     << ",\"provenance\":" << provenance_json() << ",\"metrics\":{";
  const char* agg_name[] = {"median", "first", "max"};
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << m.value
       << ",\"unit\":\"" << m.unit << "\",\"agg\":\""
       << agg_name[static_cast<int>(m.agg)] << "\"}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}
