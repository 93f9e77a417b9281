/// Experiment E3 — Running time grows only logarithmically in n
/// (Theorem 3 / Corollary 2).
///
/// Paper claim: T = O(Δ log n).  We hold the deployment density (and hence
/// Δ) roughly constant while scaling n over an order of magnitude, then
/// fit mean decision latency against ln n: the fit should be near-linear
/// in ln n with the Δ factor constant.

#include <cmath>

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  using namespace urn;
  const bench::TraceArgs trace = bench::parse_trace_args(argc, argv, "e3");
  bench::banner("E3", "decision time vs n at fixed density (Thm 3 / Cor 2)");

  const std::size_t trials = 6;
  analysis::Table table(
      "e3_time_vs_n",
      "E3: per-node decision latency vs n (random UDG, constant density, "
      "6 trials each)");
  table.set_header({"n", "Delta", "k2", "mean_T", "p95_T", "max_T",
                    "T/(Delta*ln n)", "valid"});

  bench::BenchSummary summary("e3_time_vs_n");
  std::vector<double> xs, ys;
  for (std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    const double side = 1.5 * std::sqrt(static_cast<double>(n) / 2.8);
    Rng rng(mix_seed(0xE3, n));
    const auto net = graph::random_udg(n, side, 1.5, rng);
    const auto mp = bench::measured_params(net.graph, n > 300 ? 48 : 0);
    const auto schedules =
        analysis::uniform_schedule(n, 2 * mp.params.threshold());
    const auto agg = analysis::run_core_trials(
        net.graph, mp.params, schedules, trials, mix_seed(0xE3F0, n),
        trace.exec());
    const double logn = std::log(static_cast<double>(n));
    xs.push_back(static_cast<double>(mp.delta) * logn);
    ys.push_back(agg.mean_latency.mean());
    table.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(n)),
         analysis::Table::num(static_cast<std::uint64_t>(mp.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(mp.kappa2)),
         analysis::Table::num(agg.mean_latency.mean(), 0),
         analysis::Table::num(agg.p95_latency.mean(), 0),
         analysis::Table::num(agg.max_latency.max(), 0),
         analysis::Table::num(agg.mean_latency.mean() / (mp.delta * logn), 1),
         analysis::Table::num(agg.valid_fraction(), 2)});

    // --trace / --trace-bin / --monitor / --explain: re-run trial 0 of
    // the largest network (n = 1024) with live sinks.
    if (trace.enabled() && n == 1024u) {
      bench::trace_trial0(summary, trace, net.graph, mp.params, schedules,
                          mix_seed(0xE3F0, n));
    }
  }
  table.emit();

  const LinearFit fit = fit_line(xs, ys);
  std::printf("Linear fit of mean T against Delta*ln n: slope=%.1f R^2=%.3f\n",
              fit.slope, fit.r_squared);
  summary.set("fit.slope", fit.slope);
  summary.set("fit.r_squared", fit.r_squared);
  summary.set("trials", static_cast<std::uint64_t>(trials));
  summary.set("jobs", static_cast<std::uint64_t>(trace.resolved_jobs()));
  summary.add_profile();
  summary.emit();
  std::printf("Paper shape: at constant density a 16x larger network only "
              "costs a log-factor more time per node.\n");
  return 0;
}
