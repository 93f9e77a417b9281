/// \file bench_util.hpp
/// \brief Shared helpers for the experiment binaries (E1–E15, A1–A3,
///        the gate) and the `urn_sim` scenario runner.
///
/// Besides parameter measurement and the banner, this provides the
/// observability plumbing every binary shares:
///
///  * `BenchSummary` — machine-readable run summaries.  Each experiment
///    fills one with its scenario parameters and headline metrics and
///    calls `emit()`, which writes `BENCH_<name>.json` into the directory
///    named by the `URN_BENCH_JSON` environment variable (mirroring the
///    `URN_BENCH_CSV` convention of analysis::Table).  Keys are dotted
///    paths ("scenario.n", "medium.collisions"), values JSON scalars.
///
///  * `TraceArgs` / `parse_trace_args` — the one parser for the shared
///    flag set, registered onto the caller's `CliFlags` so a binary with
///    flags of its own parses once:
///     - `--trace` / `--trace-bin` / `--trace-bin-ring`: record one
///       representative run as a JSONL and/or compact binary event log
///       for `urn_trace` / `urn_explain` (the binary one optionally
///       ring-bounded);
///     - `--monitor`: check the paper's invariants online, failing the
///       binary with exit 2 on a violation;
///     - `--explain`: attribute the representative run's decision
///       latency to causes (obs/explain.hpp) — `explain_report` prints
///       the summary line, `explain_emit` also exports the `explain.*`
///       keys;
///     - `--spans-out`: wall-clock span timelines (runner phases,
///       executor workers) as Chrome trace-event JSON;
///     - `--jobs`: fan the trial loops out across worker threads,
///       bit-identical for every value (recorded as the `jobs` key,
///       which the regression diff skips alongside the `.ns` keys);
///     - `--telemetry-out` / `--telemetry-prom` / `--telemetry-interval`:
///       engine and pool probes feed the global registry, and a
///       background snapshotter exports it as a JSONL time series
///       (`urn_top` tails it) and/or a Prometheus exposition file;
///     - `--postmortem-dir` / `--checkpoint-every` / `--dump-on-violation`:
///       periodic checkpoints of the traced run into a bundle directory,
///       plus checkpoint + flight-recorder ring + monitor report on a
///       violation (inspect/resume with `urn_postmortem`).
///    `run_traced` runs the representative execution with all of that,
///    and `trace_trial0` re-runs trial 0 of a `run_core_trials` loop
///    through it.
///
///  * `ledger_record` / `ledger_emit` — feed each trial's `RunResult`
///    into an `obs::RunLedger` and export the percentile summaries
///    (p50/p95/max latency, max color, peak collisions, resets) into the
///    `BenchSummary`, so `BENCH_<name>.json` carries distributions.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "exec/chunk.hpp"
#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "obs/chrome.hpp"
#include "obs/explain.hpp"
#include "obs/ledger.hpp"
#include "obs/monitor.hpp"
#include "obs/postmortem.hpp"
#include "obs/telemetry.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace urn::bench {

/// Measure Δ, κ₁, κ₂ on a graph and build the calibrated practical
/// parameter set.  κ is computed exactly when the graph is small, sampled
/// otherwise (sampling only ever under-estimates κ; we take the family
/// bound max(2, measured)).
struct MeasuredParams {
  std::uint32_t delta = 0;
  std::uint32_t kappa1 = 0;
  std::uint32_t kappa2 = 0;
  core::Params params;
};

inline MeasuredParams measured_params(const graph::Graph& g,
                                      std::size_t kappa_sample = 0) {
  MeasuredParams mp;
  mp.delta = std::max(2u, g.max_closed_degree());
  graph::KappaOptions opts;
  opts.sample = kappa_sample;
  mp.kappa1 = std::max(2u, graph::kappa1(g, opts).value);
  mp.kappa2 = std::max(mp.kappa1, graph::kappa2(g, opts).value);
  mp.params =
      core::Params::practical(g.num_nodes(), mp.delta, mp.kappa1, mp.kappa2);
  return mp;
}

/// Print a one-line banner common to all experiment binaries.
inline void banner(const char* id, const char* claim) {
  std::printf("[%s] %s\n\n", id, claim);
}

/// Machine-readable experiment summary; see the file comment.
class BenchSummary {
 public:
  explicit BenchSummary(std::string name) : name_(std::move(name)) {}

  void set(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    entries_.emplace_back(key, buf);
  }
  void set(const std::string& key, std::int64_t v) {
    entries_.emplace_back(key, std::to_string(v));
  }
  void set(const std::string& key, std::uint64_t v) {
    entries_.emplace_back(key, std::to_string(v));
  }
  void set(const std::string& key, std::int32_t v) {
    set(key, static_cast<std::int64_t>(v));
  }
  void set(const std::string& key, std::uint32_t v) {
    set(key, static_cast<std::uint64_t>(v));
  }
  void set(const std::string& key, bool v) {
    entries_.emplace_back(key, v ? "true" : "false");
  }
  void set(const std::string& key, const std::string& v) {
    std::string enc = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') enc.push_back('\\');
      enc.push_back(c);
    }
    enc.push_back('"');
    entries_.emplace_back(key, std::move(enc));
  }
  void set(const std::string& key, const char* v) {
    set(key, std::string(v));
  }

  /// Record one run's medium statistics under `<prefix>.*`.
  void set_medium(const std::string& prefix, const radio::RunStats& s) {
    set(prefix + ".slots_run", static_cast<std::int64_t>(s.slots_run));
    set(prefix + ".transmissions", s.transmissions);
    set(prefix + ".deliveries", s.deliveries);
    set(prefix + ".collisions", s.collisions);
    set(prefix + ".dropped", s.dropped);
    set(prefix + ".all_decided", s.all_decided);
  }

  /// Snapshot the profile registry (`telemetry::profile_registry()`)
  /// under "profile.*", and — when a telemetry-enabled run populated it —
  /// the global telemetry registry under "telemetry.*" (counters, gauges,
  /// and histogram count/sum/p50/p95/max summaries).  The bench regression
  /// diff skips the whole "telemetry." class, like ".ns": telemetry
  /// totals include wall-clock and scheduling-dependent quantities, so
  /// they are reported, never gated on.
  void add_profile() {
    for (const auto& [k, v] :
         obs::telemetry::profile_registry().snapshot().counters) {
      set("profile." + k, v);
    }
    const auto& reg = obs::telemetry::Registry::global();
    if (!reg.empty()) {
      const obs::telemetry::Snapshot snap = reg.snapshot();
      for (const auto& [k, v] : snap.counters) set("telemetry." + k, v);
      for (const auto& [k, v] : snap.gauges) set("telemetry." + k, v);
      for (const auto& [k, h] : snap.histograms) {
        set("telemetry." + k + ".count", h.count);
        set("telemetry." + k + ".sum", h.sum);
        set("telemetry." + k + ".p50", h.quantile(0.50));
        set("telemetry." + k + ".p95", h.quantile(0.95));
        set("telemetry." + k + ".max", h.max_bound());
      }
    }
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out.append("  \"").append(entries_[i].first).append("\": ");
      out.append(entries_[i].second);
      if (i + 1 < entries_.size()) out.push_back(',');
      out.push_back('\n');
    }
    out.append("}\n");
    return out;
  }

  /// Write `<dir>/BENCH_<name>.json` when URN_BENCH_JSON is set; a no-op
  /// when it is not (text output stands alone).  A destination that
  /// cannot be written is an error: one line on stderr and exit 2, so a
  /// gate fed by this summary fails here rather than downstream.
  void emit() const {
    const char* dir = std::getenv("URN_BENCH_JSON");
    if (dir == nullptr || *dir == '\0') return;
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(2);
    }
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("(json summary -> %s)\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// The standard observability + execution flag set for experiment
/// binaries.
struct TraceArgs {
  std::string trace_path;      ///< --trace: JSONL event log destination
  std::string trace_bin_path;  ///< --trace-bin: binary event log
  std::size_t bin_ring = 0;    ///< --trace-bin-ring: keep last N (0 = all)
  std::string spans_path;      ///< --spans-out: Chrome-trace span timeline
  bool monitor = false;        ///< --monitor: online invariant checks
  std::size_t jobs = 1;        ///< --jobs: trial-loop workers (0 = all cores)
  std::string telemetry_out;   ///< --telemetry-out: JSONL snapshot stream
  std::string telemetry_prom;  ///< --telemetry-prom: Prometheus exposition
  std::int64_t telemetry_interval = 1000;  ///< --telemetry-interval (ms)
  std::string postmortem_dir;        ///< --postmortem-dir: bundle directory
  std::int64_t checkpoint_every = 0; ///< --checkpoint-every (slots; 0 = once)
  bool dump_on_violation = false;    ///< --dump-on-violation: full bundle
  bool explain = false;              ///< --explain: causal attribution

  /// In-memory event capture of the representative traced run, created
  /// when --explain is set; `explain_emit` replays it through
  /// obs::explain_trace and exports the `explain.*` key family.
  std::shared_ptr<obs::MemorySink> explain_events;

  /// Global telemetry registry when --telemetry-out / --telemetry-prom is
  /// set, null otherwise.  Non-null turns on the engine/pool probes via
  /// `options()` / `exec()` without enabling event tracing.
  obs::telemetry::Registry* telemetry = nullptr;

  /// Background snapshotter sampling `telemetry` every
  /// `telemetry_interval` ms.  Shared like `spans`: every copy of the
  /// args keeps it alive; the last copy's destruction stops it, which
  /// writes one final snapshot — so the stream's last line is the
  /// process's final counter state.
  std::shared_ptr<obs::telemetry::Snapshotter> snapshotter;

  /// Shared wall-clock span collector, created when --spans-out is set.
  /// Every copy of the parsed args feeds the same sink (runner phases
  /// via `options()`, executor chunks via `exec()`); the Chrome-trace
  /// file is written when the last copy goes out of scope, so capture
  /// order never matters.
  std::shared_ptr<obs::SpanSink> spans;

  /// Resolved worker count (0 expanded to the hardware thread count).
  [[nodiscard]] std::size_t resolved_jobs() const {
    return exec::resolve_jobs(jobs);
  }
  /// Postmortem options assembled from the --postmortem-dir /
  /// --checkpoint-every / --dump-on-violation flags.  Asking for either
  /// checkpoints or violation dumps without naming a directory defaults
  /// the bundle to ./postmortem.
  [[nodiscard]] core::PostmortemOptions postmortem() const {
    core::PostmortemOptions po;
    po.dir = postmortem_dir;
    if (po.dir.empty() && (checkpoint_every > 0 || dump_on_violation)) {
      po.dir = "postmortem";
    }
    po.checkpoint_every = checkpoint_every;
    po.dump_on_violation = dump_on_violation;
    return po;
  }

  /// Executor options for analysis::run_core_trials and friends.
  [[nodiscard]] analysis::TrialExecOptions exec() const {
    analysis::TrialExecOptions opts;
    opts.jobs = jobs;
    opts.spans = spans.get();
    opts.telemetry = telemetry;
    opts.postmortem = postmortem();
    return opts;
  }

  [[nodiscard]] bool enabled() const {
    return monitor || explain || !trace_path.empty() ||
           !trace_bin_path.empty() || postmortem().enabled();
  }
  [[nodiscard]] core::TraceOptions options() const {
    core::TraceOptions opts;
    opts.events_jsonl = trace_path;
    opts.events_bin = trace_bin_path;
    opts.bin_ring = bin_ring;
    opts.monitor = monitor;
    opts.spans = spans.get();
    opts.telemetry = telemetry;
    opts.postmortem = postmortem();
    opts.memory = explain_events.get();
    return opts;
  }
};

/// Register the standard flags onto `flags`, which may already hold the
/// caller's own, parse the command line once and return the standard
/// set; the caller reads its own flags back from `flags`.  Exits 2 on a
/// bad flag or an unwritable destination, 0 on --help.
inline TraceArgs parse_trace_args(int argc, const char* const* argv,
                                  const char* program, CliFlags& flags) {
  flags.add_string("trace", "",
                   "record one representative run as a JSONL event log "
                   "(analyze with urn_trace)");
  flags.add_string("trace-bin", "",
                   "record that run as a compact binary event log "
                   "(urn_trace auto-detects it)");
  flags.add_int("trace-bin-ring", 0,
                "bound the binary log to the last N events "
                "(flight-recorder mode; 0 = keep everything)");
  flags.add_string("spans-out", "",
                   "record wall-clock span timelines (runner phases, "
                   "executor workers) as Chrome trace-event JSON");
  flags.add_bool("monitor", false,
                 "check the paper's invariants online on the traced "
                 "run(s); any violation fails the binary with exit 2");
  flags.add_int("jobs", 1,
                "worker threads for the trial loops (0 = all hardware "
                "threads); results are bit-identical for every value");
  flags.add_string("telemetry-out", "",
                   "stream live telemetry snapshots to this JSONL file "
                   "(watch with urn_top --in <file>)");
  flags.add_string("telemetry-prom", "",
                   "write the latest telemetry snapshot to this file in "
                   "Prometheus text exposition format (atomic rewrite per "
                   "snapshot)");
  flags.add_int("telemetry-interval", 1000,
                "telemetry snapshot period in milliseconds");
  flags.add_string("postmortem-dir", "",
                   "write a postmortem bundle (periodic checkpoint + "
                   "flight-recorder ring + manifest) into this directory; "
                   "inspect/resume with urn_postmortem");
  flags.add_int("checkpoint-every", 0,
                "checkpoint period in slots for the postmortem bundle "
                "(0 = one snapshot at the start of the run)");
  flags.add_bool("dump-on-violation", false,
                 "capture a full postmortem bundle (checkpoint + ring + "
                 "monitor report) when an invariant violation is detected; "
                 "implies --monitor on the traced run");
  flags.add_bool("explain", false,
                 "attribute the representative traced run's per-node "
                 "decision latency to causes (obs/explain), print the "
                 "summary line and export the explain.* key family into "
                 "BENCH_<name>.json");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage(program).c_str());
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(program).c_str());
    std::exit(0);
  }
  TraceArgs args;
  args.trace_path = flags.get_string("trace");
  args.trace_bin_path = flags.get_string("trace-bin");
  args.bin_ring = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("trace-bin-ring")));
  args.spans_path = flags.get_string("spans-out");
  args.monitor = flags.get_bool("monitor");
  args.jobs =
      static_cast<std::size_t>(std::max<std::int64_t>(0, flags.get_int("jobs")));
  args.telemetry_out = flags.get_string("telemetry-out");
  args.telemetry_prom = flags.get_string("telemetry-prom");
  args.telemetry_interval =
      std::max<std::int64_t>(1, flags.get_int("telemetry-interval"));
  args.postmortem_dir = flags.get_string("postmortem-dir");
  args.checkpoint_every =
      std::max<std::int64_t>(0, flags.get_int("checkpoint-every"));
  args.dump_on_violation = flags.get_bool("dump-on-violation");
  args.explain = flags.get_bool("explain");
  if (args.explain) {
    args.explain_events = std::make_shared<obs::MemorySink>();
  }
  // Fail on unwritable destinations now, not after the (often long)
  // aggregate loops have already run.
  for (const std::string& path :
       {args.trace_path, args.trace_bin_path, args.spans_path,
        args.telemetry_out, args.telemetry_prom}) {
    if (path.empty()) continue;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(2);
    }
    std::fclose(f);
  }
  if (args.postmortem().enabled() &&
      !obs::postmortem::ensure_dir(args.postmortem().dir)) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.postmortem().dir.c_str());
    std::exit(2);
  }
  if (!args.spans_path.empty()) {
    const std::string out = args.spans_path;
    args.spans = std::shared_ptr<obs::SpanSink>(
        new obs::SpanSink(), [out](obs::SpanSink* s) {
          if (obs::write_chrome_spans_file(out, *s)) {
            std::printf("(spans: %zu -> %s; open in ui.perfetto.dev)\n",
                        s->size(), out.c_str());
          } else {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
          }
          delete s;
        });
  }
  if (!args.telemetry_out.empty() || !args.telemetry_prom.empty()) {
    args.telemetry = &obs::telemetry::Registry::global();
    args.telemetry->clear();  // one binary invocation = one time series
    obs::telemetry::SnapshotterOptions sopts;
    sopts.jsonl_path = args.telemetry_out;
    sopts.prom_path = args.telemetry_prom;
    sopts.interval_ms = static_cast<std::uint64_t>(args.telemetry_interval);
    const std::string jsonl = args.telemetry_out;
    args.snapshotter = std::shared_ptr<obs::telemetry::Snapshotter>(
        new obs::telemetry::Snapshotter(*args.telemetry, sopts),
        [jsonl](obs::telemetry::Snapshotter* s) {
          s->stop();  // emits the final snapshot
          if (!jsonl.empty()) {
            std::printf(
                "(telemetry: %llu snapshots -> %s; watch live with "
                "urn_top --in %s)\n",
                static_cast<unsigned long long>(s->snapshots_taken()),
                jsonl.c_str(), jsonl.c_str());
          }
          delete s;
        });
  }
  return args;
}

/// `parse_trace_args` for a binary with no flags of its own.
inline TraceArgs parse_trace_args(int argc, const char* const* argv,
                                  const char* program) {
  CliFlags flags;
  return parse_trace_args(argc, argv, program, flags);
}

/// Run one traced execution and write the requested artifacts.
inline core::RunResult run_traced(const TraceArgs& args,
                                  const graph::Graph& g,
                                  const core::Params& params,
                                  const radio::WakeSchedule& schedule,
                                  std::uint64_t seed,
                                  radio::MediumOptions medium = {}) {
  const core::RunResult run = core::run_coloring_traced(
      g, params, schedule, seed, args.options(), /*max_slots=*/0, medium);
  for (const std::string& log : {args.trace_path, args.trace_bin_path}) {
    if (log.empty()) continue;
    std::printf("(trace: %llu events -> %s; validate with "
                "urn_trace --log %s --kappa2 %u)\n",
                static_cast<unsigned long long>(run.events_recorded),
                log.c_str(), log.c_str(), params.kappa2);
  }
  if (run.monitor.has_value()) {
    if (!run.monitor->ok()) {
      std::fprintf(stderr, "monitor: INVARIANT VIOLATIONS\n");
      obs::print_first_violation(*run.monitor, stderr);
      obs::print_monitor_report(*run.monitor, stderr);
      if (!run.bundle.empty()) {
        std::fprintf(stderr,
                     "postmortem bundle: %s (inspect with urn_postmortem)\n",
                     run.bundle.c_str());
      }
      std::exit(2);
    }
    std::printf("(monitor: %llu events, %zu nodes, 0 violations)\n",
                static_cast<unsigned long long>(run.monitor->events_seen),
                run.monitor->nodes_seen);
  }
  return run;
}

/// Attribute the representative traced run's decision latency to causes
/// (obs/explain.hpp) and print the one-line summary.  Empty unless
/// `--explain` captured events, so call sites can wire it
/// unconditionally.  The run parameters supply what the trace alone
/// cannot: κ₂ and the A_i passive-listen prefix.
inline std::optional<obs::ExplainReport> explain_report(
    const TraceArgs& args, const core::Params& params) {
  if (args.explain_events == nullptr || args.explain_events->events().empty()) {
    return std::nullopt;
  }
  obs::ExplainConfig config;
  config.kappa2 = params.kappa2;
  config.passive_slots = params.passive_slots();
  obs::ExplainReport report =
      obs::explain_trace(args.explain_events->events(), config);
  std::printf("(explain: %zu nodes, top cause %s, accounting invariant %s "
              "-> explain.* keys)\n",
              report.nodes.size(), obs::cause_name(report.top_cause()),
              report.exact_ok() ? "OK" : "FAILED");
  return report;
}

/// `explain_report`, exported as the `explain.*` keys of the bench
/// summary.  The attribution is a pure function of the trace, so
/// `urn_bench_diff` compares the keys exactly like any other counter.
inline void explain_emit(BenchSummary& summary, const TraceArgs& args,
                         const core::Params& params) {
  const std::optional<obs::ExplainReport> report =
      explain_report(args, params);
  if (!report.has_value()) return;
  for (const obs::ExplainEntry& e : obs::explain_entries(*report)) {
    if (e.is_str) {
      summary.set(e.key, e.str);
    } else if (e.num == static_cast<double>(static_cast<std::int64_t>(e.num))) {
      summary.set(e.key, static_cast<std::int64_t>(e.num));
    } else {
      summary.set(e.key, e.num);
    }
  }
}

/// Re-run trial 0 of an `analysis::run_core_trials(g, params, schedules,
/// trials, seed0, ...)` loop through `run_traced`, and record it as the
/// `traced.*` keys (plus `explain.*` under --explain).  Sinks never touch
/// the RNG streams, so this run is bit-identical to the aggregated
/// trial 0.
inline void trace_trial0(BenchSummary& summary, const TraceArgs& args,
                         const graph::Graph& g, const core::Params& params,
                         const analysis::ScheduleFactory& schedules,
                         std::uint64_t seed0) {
  const std::uint64_t trial_seed = mix_seed(seed0, 0);
  const core::RunResult run =
      run_traced(args, g, params, schedules(trial_seed), trial_seed);
  summary.set("traced.valid", run.check.valid());
  summary.set_medium("traced", run.medium);
  explain_emit(summary, args, params);
}

/// Feed one trial's headline metrics into the cross-run ledger.
inline void ledger_record(obs::RunLedger& ledger,
                          const core::RunResult& run) {
  ledger.add("latency.max", static_cast<double>(run.max_latency()));
  ledger.add("latency.mean", run.mean_latency());
  ledger.add("color.max", static_cast<double>(run.max_color));
  ledger.add("collisions.total",
             static_cast<double>(run.medium.collisions));
  ledger.add("resets.total", static_cast<double>(run.total_resets));
  ledger.add("slots.run", static_cast<double>(run.medium.slots_run));
}

/// Feed an `analysis::CoreAggregate`'s per-trial samples into the
/// ledger (the experiment binaries aggregate through `run_core_trials`,
/// so the trial-level vectors already exist in its Samples).
inline void ledger_from_aggregate(obs::RunLedger& ledger,
                                  const analysis::CoreAggregate& agg) {
  ledger.add_all("latency.max", agg.max_latency.values());
  ledger.add_all("latency.mean", agg.mean_latency.values());
  ledger.add_all("latency.p95", agg.p95_latency.values());
  ledger.add_all("color.max", agg.max_color.values());
  ledger.add_all("leaders", agg.leaders.values());
  ledger.add_all("resets.per_node", agg.resets_per_node.values());
  ledger.add_all("slots.run", agg.slots_run.values());
}

/// Export every ledger metric's percentile summary into the bench
/// summary as `<prefix>.<metric>.{trials,min,mean,p50,p95,max}`.
inline void ledger_emit(BenchSummary& summary, const obs::RunLedger& ledger,
                        const std::string& prefix = "ledger") {
  for (const auto& [metric, s] : ledger.summaries()) {
    const std::string base = prefix + "." + metric;
    summary.set(base + ".trials", static_cast<std::uint64_t>(s.trials));
    summary.set(base + ".min", s.min);
    summary.set(base + ".mean", s.mean);
    summary.set(base + ".p50", s.p50);
    summary.set(base + ".p95", s.p95);
    summary.set(base + ".max", s.max);
  }
}

}  // namespace urn::bench
