/// \file chi.hpp
/// \brief The counter-reset target χ(P_v) of Algorithm 1, line 15.
///
/// χ(P_v) is the **maximum** value x such that x ≤ 0 and x lies outside the
/// critical range [d_v(w) − R, d_v(w) + R] of every locally stored
/// competitor counter d_v(w), where R = ⌈γ ζ_i log n⌉.  Resetting to χ(P_v)
/// (instead of plain 0) is what prevents cascading resets: the new counter
/// is guaranteed to be outside every known competitor's critical range.
///
/// Neither entry point allocates: χ runs on every activation and every
/// counter reset of the receive path, so callers own the storage.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace urn::core {

/// χ for counter values already sorted ascending.  Values d > R constrain
/// nothing (their range lies above 0) and may be left out.
///
/// \param ascending current (aged) values d_v(w) for each w ∈ P_v, sorted
/// \param critical_range R ≥ 0
/// \return the largest x ≤ 0 with |x − d| > R for every d in `ascending`
[[nodiscard]] std::int64_t chi_sorted(std::span<const std::int64_t> ascending,
                                      std::int64_t critical_range);

/// χ for counter values in any order: copies them into the caller-owned
/// `scratch` (reused across calls, so no allocation once it has grown),
/// sorts, and returns `chi_sorted` of the copy.
[[nodiscard]] std::int64_t chi(std::span<const std::int64_t> counters,
                               std::int64_t critical_range,
                               std::vector<std::int64_t>& scratch);

}  // namespace urn::core
