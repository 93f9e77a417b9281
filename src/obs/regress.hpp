/// \file regress.hpp
/// \brief Bench regression comparison: parse the flat `BENCH_<name>.json`
///        summaries the experiment binaries emit and diff a fresh run
///        against a committed baseline, exactly or within one tolerance.
///
/// The summaries are deliberately flat ({"dotted.key": scalar, ...}), so
/// no general JSON machinery is needed: keys map to either a number, a
/// bool, or a quoted string.  `diff_bench` walks the *baseline's* keys —
/// a key missing from the fresh run is a regression (a metric silently
/// disappeared), while extra fresh keys are fine (new metrics land
/// without invalidating old baselines).  Numeric values compare within
/// `abs_tol + rel_tol·|baseline|`; everything else must match exactly.
/// Keys containing any `skip_substrings` entry are excluded.  The default
/// covers ".ns" (wall-clock profile counters — nondeterministic even in a
/// fixed-seed run), "jobs" (the worker-thread count, an environment fact
/// that never affects the measured statistics), and "telemetry." (live
/// telemetry exports: a mix of deterministic counts, wall-clock totals
/// and scheduling-dependent pool utilization — reported for humans, never
/// gated on, so telemetry-enabled bench runs can't flake the gate).  There
/// is no other class: wall-clock rates have no place in a fixed-seed
/// summary (perfbench measures speed), and the `explain.*` attribution
/// keys are a pure function of the trace, so they compare exactly too.
///
/// This is the library half of the `urn_bench_diff` CLI and the
/// `bench_regression` CTest gate.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace urn::obs {

/// One parsed key/value pair of a bench summary.
struct BenchEntry {
  std::string key;
  std::string raw;       ///< value text as written (strings keep quotes)
  bool numeric = false;  ///< raw parsed fully as a double
  double value = 0.0;    ///< numeric value (0 when !numeric)
};

/// A parsed `BENCH_<name>.json` document (flat object, ordered).
struct BenchDoc {
  std::vector<BenchEntry> entries;
  bool ok = false;  ///< false: unreadable / not a flat JSON object

  [[nodiscard]] const BenchEntry* find(std::string_view key) const;
};

/// Parse a flat JSON object as produced by `bench::BenchSummary`.
[[nodiscard]] BenchDoc parse_bench_json(std::string_view text);
/// Read and parse a file; `ok` is false when it cannot be opened.
[[nodiscard]] BenchDoc read_bench_json_file(const std::string& path);

/// Tolerances and exclusions for the comparison.
struct DiffOptions {
  double rel_tol = 0.0;  ///< allowed |fresh-base| relative to |base|
  double abs_tol = 0.0;  ///< allowed absolute drift
  /// Keys containing any of these substrings are not compared.
  std::vector<std::string> skip_substrings = {".ns", "jobs", "telemetry."};
};

/// One detected regression.
struct DiffFinding {
  std::string key;
  std::string what;  ///< human-readable: expected vs got
};

/// Outcome of comparing one fresh document against one baseline.
struct DiffReport {
  std::size_t compared = 0;  ///< keys actually checked
  std::size_t skipped = 0;   ///< keys excluded by skip_substrings
  std::vector<DiffFinding> regressions;

  [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Compare `fresh` against `baseline` (see file comment for semantics).
[[nodiscard]] DiffReport diff_bench(const BenchDoc& baseline,
                                    const BenchDoc& fresh,
                                    const DiffOptions& options = {});

}  // namespace urn::obs
