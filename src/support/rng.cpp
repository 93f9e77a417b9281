#include "support/rng.hpp"

#include <cmath>

namespace urn {

double Rng::exponential(double rate) {
  URN_DCHECK(rate > 0.0);
  // -log(1 - U) with U in [0,1) avoids log(0).
  return -std::log1p(-uniform()) / rate;
}

std::pair<double, double> normal_pair(Rng& rng) {
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = rng.uniform(-1.0, 1.0);
    v = rng.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  return {u * factor, v * factor};
}

}  // namespace urn
