/// Gate benchmark — the small fixed-seed scenario behind the
/// `bench_regression` CTest target.
///
/// Unlike E1–E15 (minutes of wall clock), this runs in a few seconds:
/// a 96-node random UDG, a handful of monitored coloring trials plus a
/// handful of leader-election trials, every seed fixed.  It emits
/// `BENCH_gate_coloring.json` and `BENCH_gate_leader.json` (with full
/// `RunLedger` percentile distributions) into `URN_BENCH_JSON`;
/// `urn_bench_diff` then compares them against `bench/baseline/`.  Runs
/// are bit-reproducible, so any drift in these numbers is a real
/// behavioral change — refresh the baselines deliberately (see
/// EXPERIMENTS.md) when the change is intended.
///
/// Exit status: 0 on success, 2 when any monitored trial violates a
/// paper invariant (via bench::run_traced) or a run goes invalid.

#include "analysis/experiment.hpp"
#include "bench_util.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

#include <optional>

int main(int argc, char** argv) {
  using namespace urn;
  bench::TraceArgs trace = bench::parse_trace_args(argc, argv, "bench_gate");
  bench::banner("GATE", "fixed-seed regression scenario (see urn_bench_diff)");

  const std::size_t n = 96;
  Rng rng(0xCA7E);
  const auto net = graph::random_udg(n, 6.5, 1.5, rng);
  const auto mp = bench::measured_params(net.graph);
  std::printf("deployment: n=%zu Delta=%u k1=%u k2=%u\n", n, mp.delta,
              mp.kappa1, mp.kappa2);

  // ---- monitored coloring trials -----------------------------------------
  // The per-trial seeds predate the executor; the loop fans out over
  // exec::parallel_for_trials with the *same* seed derivation, so the
  // committed bench/baseline/ numbers are reproduced bit-for-bit for any
  // --jobs.  Monitor sinks are constructed per trial (worker-local);
  // the first violation is reported with its originating trial index.
  const std::size_t trials = 5;
  bench::BenchSummary coloring("gate_coloring");
  coloring.set("n", static_cast<std::uint64_t>(n));
  coloring.set("delta", mp.delta);
  coloring.set("kappa2", mp.kappa2);
  coloring.set("jobs", static_cast<std::uint64_t>(trace.resolved_jobs()));
  core::TraceOptions monitored;
  monitored.monitor = true;
  // --telemetry-* runs every trial with an engine probe and the pool
  // reporting utilization; results stay bit-identical (probes read
  // counts only) and the differ skips `telemetry.*` keys, so this can
  // never perturb the committed baselines.
  monitored.telemetry = trace.telemetry;
  const exec::ExecOptions eopts{trace.jobs, 0, nullptr, trace.telemetry};
  struct GatePartial {
    std::size_t valid = 0;
    obs::RunLedger ledger;
    struct Violation {
      std::size_t trial;
      obs::MonitorReport report;
    };
    std::optional<Violation> violation;
  };
  const GatePartial gate = exec::parallel_for_trials<GatePartial>(
      trials, eopts,
      [&](GatePartial& acc, std::size_t t) {
        Rng wrng(mix_seed(0xCA7EF, t));
        const auto ws =
            radio::WakeSchedule::uniform(n, 2 * mp.params.threshold(), wrng);
        const auto run = core::run_coloring_traced(net.graph, mp.params, ws,
                                                   mix_seed(0xCA7EA, t),
                                                   monitored);
        if (run.monitor.has_value() && !run.monitor->ok() &&
            !acc.violation.has_value()) {
          acc.violation = GatePartial::Violation{t, *run.monitor};
        }
        if (run.check.valid()) ++acc.valid;
        bench::ledger_record(acc.ledger, run);
      },
      [](GatePartial& into, GatePartial&& chunk) {
        into.valid += chunk.valid;
        into.ledger.merge(chunk.ledger);
        if (chunk.violation.has_value() &&
            (!into.violation.has_value() ||
             chunk.violation->trial < into.violation->trial)) {
          into.violation = std::move(chunk.violation);
        }
      });
  if (gate.violation.has_value()) {
    std::fprintf(stderr, "gate trial %zu: INVARIANT VIOLATIONS\n",
                 gate.violation->trial);
    obs::print_monitor_report(gate.violation->report, stderr);
    return 2;
  }
  const std::size_t valid = gate.valid;
  coloring.set("trials", static_cast<std::uint64_t>(trials));
  coloring.set("valid", static_cast<std::uint64_t>(valid));
  bench::ledger_emit(coloring, gate.ledger);
  // Snapshot the profile counters *before* the leader trials and the
  // optional representative run below, so `profile.*` reflects exactly
  // the monitored coloring trials; the summary is emitted at the end of
  // main once the representative run has contributed its `explain.*`
  // keys.
  coloring.add_profile();
  std::printf("coloring: %zu/%zu valid, 0 invariant violations\n", valid,
              trials);

  // ---- leader-election trials --------------------------------------------
  bench::BenchSummary leader("gate_leader");
  leader.set("n", static_cast<std::uint64_t>(n));
  leader.set("jobs", static_cast<std::uint64_t>(trace.resolved_jobs()));
  struct LeaderPartial {
    std::size_t covered = 0;
    obs::RunLedger ledger;
  };
  core::TraceOptions leader_opts;
  leader_opts.telemetry = trace.telemetry;
  const LeaderPartial lgate = exec::parallel_for_trials<LeaderPartial>(
      trials, eopts,
      [&](LeaderPartial& acc, std::size_t t) {
        Rng wrng(mix_seed(0xCA7EB, t));
        const auto ws =
            radio::WakeSchedule::uniform(n, 2 * mp.params.threshold(), wrng);
        const auto run = core::run_leader_election_traced(
            net.graph, mp.params, ws, mix_seed(0xCA7EC, t), leader_opts);
        if (run.all_covered) ++acc.covered;
        acc.ledger.add("leaders", static_cast<double>(run.leaders.size()));
        double max_cover = 0.0;
        for (radio::Slot s : run.cover_latency) {
          max_cover = std::max(max_cover, static_cast<double>(s));
        }
        acc.ledger.add("cover_latency.max", max_cover);
        acc.ledger.add("slots.run", static_cast<double>(run.medium.slots_run));
        acc.ledger.add("collisions.total",
                       static_cast<double>(run.medium.collisions));
      },
      [](LeaderPartial& into, LeaderPartial&& chunk) {
        into.covered += chunk.covered;
        into.ledger.merge(chunk.ledger);
      });
  const std::size_t covered = lgate.covered;
  leader.set("trials", static_cast<std::uint64_t>(trials));
  leader.set("covered", static_cast<std::uint64_t>(covered));
  bench::ledger_emit(leader, lgate.ledger);
  leader.add_profile();
  leader.emit();
  std::printf("leader election: %zu/%zu fully covered\n", covered, trials);

  // One representative traced run (trial 0's exact seeds) for --trace /
  // --trace-bin / --monitor experimentation on the gate scenario;
  // with --explain its in-memory capture is attributed to causes and
  // lands as `explain.*` keys of BENCH_gate_coloring.json.
  if (trace.enabled()) {
    Rng wrng(mix_seed(0xCA7EF, 0));
    const auto ws =
        radio::WakeSchedule::uniform(n, 2 * mp.params.threshold(), wrng);
    (void)bench::run_traced(trace, net.graph, mp.params, ws,
                            mix_seed(0xCA7EA, 0));
    bench::explain_emit(coloring, trace, mp.params);
  }
  coloring.emit();
  return valid == trials ? 0 : 2;
}
