#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

#include "geom/spatial_grid.hpp"

namespace urn::graph {

namespace {

/// Build a UDG over explicit points using a spatial grid: O(n + m).
Graph udg_from_points(const std::vector<geom::Vec2>& points, double radius) {
  GraphBuilder builder(points.size());
  if (points.empty()) return builder.build();
  const geom::SpatialGrid grid(points, radius);
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    grid.for_each_within(i, radius, [&](std::uint32_t j) {
      if (j > i) builder.add_edge(i, j);
    });
  }
  return builder.build();
}

}  // namespace

GeometricGraph random_udg(std::size_t n, double side, double radius,
                          Rng& rng) {
  URN_CHECK(n > 0 && side > 0.0 && radius > 0.0);
  GeometricGraph out;
  out.positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.positions.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  out.graph = udg_from_points(out.positions, radius);
  return out;
}

GeometricGraph grid_udg(std::size_t nx, std::size_t ny, double spacing,
                        double radius, double jitter, Rng& rng) {
  URN_CHECK(nx > 0 && ny > 0 && spacing > 0.0 && radius > 0.0);
  URN_CHECK(jitter >= 0.0);
  GeometricGraph out;
  out.positions.reserve(nx * ny);
  for (std::size_t gy = 0; gy < ny; ++gy) {
    for (std::size_t gx = 0; gx < nx; ++gx) {
      const double x = static_cast<double>(gx) * spacing +
                       rng.uniform(-jitter, jitter);
      const double y = static_cast<double>(gy) * spacing +
                       rng.uniform(-jitter, jitter);
      out.positions.push_back({x, y});
    }
  }
  out.graph = udg_from_points(out.positions, radius);
  return out;
}

GeometricGraph clustered_udg(std::size_t clusters, std::size_t per_cluster,
                             double side, double sigma, double radius,
                             Rng& rng) {
  URN_CHECK(clusters > 0 && per_cluster > 0);
  URN_CHECK(side > 0.0 && sigma >= 0.0 && radius > 0.0);
  GeometricGraph out;
  out.positions.reserve(clusters * per_cluster);
  for (std::size_t c = 0; c < clusters; ++c) {
    const geom::Vec2 center{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    for (std::size_t i = 0; i < per_cluster; ++i) {
      const auto [dx, dy] = normal_pair(rng);
      geom::Vec2 p{center.x + sigma * dx, center.y + sigma * dy};
      p.x = std::clamp(p.x, 0.0, side);
      p.y = std::clamp(p.y, 0.0, side);
      out.positions.push_back(p);
    }
  }
  out.graph = udg_from_points(out.positions, radius);
  return out;
}

ObstacleGraph obstacle_big(std::vector<geom::Vec2> points,
                           std::vector<geom::Segment> walls, double radius) {
  URN_CHECK(radius > 0.0);
  ObstacleGraph out;
  out.positions = std::move(points);
  out.walls = std::move(walls);
  GraphBuilder builder(out.positions.size());
  if (!out.positions.empty()) {
    const geom::SpatialGrid grid(out.positions, radius);
    for (std::uint32_t i = 0; i < out.positions.size(); ++i) {
      grid.for_each_within(i, radius, [&](std::uint32_t j) {
        if (j <= i) return;
        const geom::Segment link{out.positions[i], out.positions[j]};
        const bool blocked =
            std::any_of(out.walls.begin(), out.walls.end(),
                        [&link](const geom::Segment& wall) {
                          return geom::segments_intersect(link, wall);
                        });
        if (!blocked) builder.add_edge(i, j);
      });
    }
  }
  out.graph = builder.build();
  return out;
}

ObstacleGraph random_obstacle_big(std::size_t n, double side, double radius,
                                  std::vector<geom::Segment> walls,
                                  Rng& rng) {
  URN_CHECK(n > 0 && side > 0.0);
  std::vector<geom::Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return obstacle_big(std::move(points), std::move(walls), radius);
}

std::vector<geom::Segment> random_walls(std::size_t count, double side,
                                        double min_len, double max_len,
                                        Rng& rng) {
  URN_CHECK(0.0 < min_len && min_len <= max_len);
  std::vector<geom::Segment> walls;
  walls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const geom::Vec2 a{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    const double len = rng.uniform(min_len, max_len);
    const geom::Vec2 b{a.x + len * std::cos(angle),
                       a.y + len * std::sin(angle)};
    walls.push_back({a, b});
  }
  return walls;
}

BallGraph random_unit_ball(std::size_t n, std::size_t dim, double side,
                           Rng& rng) {
  URN_CHECK(n > 0 && dim >= 1 && dim <= 4 && side > 0.0);
  BallGraph out;
  out.dim = dim;
  out.points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<double, 4> p{0.0, 0.0, 0.0, 0.0};
    for (std::size_t d = 0; d < dim; ++d) p[d] = rng.uniform(0.0, side);
    out.points.push_back(p);
  }
  GraphBuilder builder(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = out.points[i][d] - out.points[j][d];
        d2 += diff * diff;
      }
      if (d2 <= 1.0) builder.add_edge(i, j);
    }
  }
  out.graph = builder.build();
  return out;
}

Graph path_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) builder.add_edge(i, i + 1);
  return builder.build();
}

Graph cycle_graph(std::size_t n) {
  URN_CHECK(n >= 3);
  GraphBuilder builder(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    builder.add_edge(i, static_cast<NodeId>((i + 1) % n));
  }
  return builder.build();
}

Graph star_graph(std::size_t n) {
  URN_CHECK(n >= 1);
  GraphBuilder builder(n);
  for (std::uint32_t i = 1; i < n; ++i) builder.add_edge(0, i);
  return builder.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder builder(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) builder.add_edge(i, j);
  }
  return builder.build();
}

Graph empty_graph(std::size_t n) { return GraphBuilder(n).build(); }

Graph gnp(std::size_t n, double p, Rng& rng) {
  URN_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder builder(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.chance(p)) builder.add_edge(i, j);
    }
  }
  return builder.build();
}

}  // namespace urn::graph
