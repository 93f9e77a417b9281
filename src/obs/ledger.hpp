/// \file ledger.hpp
/// \brief Cross-run telemetry ledger: aggregate many trials' headline
///        metrics into percentile summaries.
///
/// One `RunLedger` collects a named scalar per trial ("latency.max",
/// "collisions.peak", ...) and summarizes each metric as
/// min / mean / p50 / p95 / max over the trials.  The experiment
/// binaries export these summaries into `BENCH_<name>.json`
/// (`bench::ledger_emit`), so the committed bench trajectory carries
/// *distributions* instead of single numbers — which is what makes a
/// tolerance-based regression gate (`urn_bench_diff`) meaningful.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/stats.hpp"

namespace urn::obs {

/// Order statistics of one metric over the recorded trials.
struct LedgerSummary {
  std::size_t trials = 0;
  double min = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Named per-trial samples with percentile summaries.
class RunLedger {
 public:
  /// Record one trial's value of `metric`.
  void add(std::string_view metric, double value);
  /// Record one value per trial in bulk.
  void add_all(std::string_view metric, const std::vector<double>& values);

  /// Append another ledger's samples after this one's, metric by metric
  /// (metrics unknown here are adopted).  Merging per-chunk ledgers in
  /// trial order is bit-identical to recording every trial into one
  /// ledger serially — the merge-safety contract of
  /// `exec::parallel_for_trials` (see `Samples::merge`).
  void merge(const RunLedger& other);

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// Trials recorded for `metric` (0 if unknown).
  [[nodiscard]] std::size_t trials(std::string_view metric) const;

  /// Summary of one metric (all-zero if unknown).
  [[nodiscard]] LedgerSummary summarize(std::string_view metric) const;
  /// (metric, summary) pairs sorted by metric name.
  [[nodiscard]] std::vector<std::pair<std::string, LedgerSummary>>
  summaries() const;

 private:
  std::map<std::string, Samples, std::less<>> samples_;
};

}  // namespace urn::obs
