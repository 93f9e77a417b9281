#include "core/chi.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace urn::core {

std::int64_t chi_sorted(std::span<const std::int64_t> ascending,
                        std::int64_t critical_range) {
  URN_CHECK(critical_range >= 0);
  // Walk the forbidden intervals [d − R, d + R] from the highest down.
  // All have width 2R, so both ends fall with d: when the candidate lands
  // inside interval i it sits at or below the upper end of every interval
  // already passed, and outside each of them, hence below their lower
  // ends — so jumping to d_i − R − 1 clears every interval seen so far
  // and skips only forbidden values.  The survivor is therefore the
  // largest feasible x ≤ 0 (intervals above 0 never contain a candidate).
  std::int64_t candidate = 0;
  for (auto it = ascending.rbegin(); it != ascending.rend(); ++it) {
    const std::int64_t lo = *it - critical_range;
    if (candidate >= lo && candidate <= *it + critical_range) {
      candidate = lo - 1;
    }
  }
  return candidate;
}

std::int64_t chi(std::span<const std::int64_t> counters,
                 std::int64_t critical_range,
                 std::vector<std::int64_t>& scratch) {
  scratch.clear();
  for (const std::int64_t d : counters) {
    if (d <= critical_range) scratch.push_back(d);  // the rest never bind
  }
  std::sort(scratch.begin(), scratch.end());
  return chi_sorted(scratch, critical_range);
}

}  // namespace urn::core
