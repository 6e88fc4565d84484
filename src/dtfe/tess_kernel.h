// Zero-order (Voronoi-cell) surface density — the TESS/DENSE baseline
// (paper §II, Peterka et al.).
//
// TESS assigns each estimation point the density of the Voronoi cell that
// contains it, i.e. of its nearest particle: a zero-order interpolation, in
// contrast with DTFE's first-order linear interpolant. We evaluate it on the
// Delaunay (the Voronoi dual): locate the query, then greedily hill-climb
// over Delaunay vertex neighborhoods to the true nearest site — a standard
// exact nearest-neighbor search on Delaunay graphs.
//
// The per-site density is the inverse of the EXACT Voronoi cell volume
// (computed from the Delaunay dual, delaunay/voronoi.h):
// ρ₀(x_i) = m_i / V_vor(x_i), which integrates to the total mass exactly.
// Hull sites have unbounded cells and get ρ₀ = 0 (the ghost-zone padding
// keeps them away from any region of interest). When the density field was
// built from user-supplied vertex values (with_vertex_values), those values
// are used directly.
#pragma once

#include <cstdint>
#include <vector>

#include "dtfe/density.h"
#include "dtfe/field.h"
#include "util/cancel.h"

namespace dtfe {

struct TessOptions {
  std::size_t z_resolution = 0;  ///< 0 = match the 2D resolution
  std::uint64_t seed = 777;
  /// Cooperative cancellation (borrowed; may be null = never cancel).
  /// render() throws dtfe::Error once the deadline expires.
  const Deadline* deadline = nullptr;
};

struct TessStats {
  std::uint64_t points_located = 0;
  std::vector<double> thread_seconds;
};

class TessKernel {
 public:
  explicit TessKernel(const DensityField& density, TessOptions opt = {});

  /// Zero-order surface density: 3D-grid render + column collapse, like the
  /// DENSE stage of the TESS estimator.
  Grid2D render(const FieldSpec& spec) const;

  /// Exact nearest input site to q: locate q, then hill-climb
  /// (nearest_site_from) from the closest finite vertex of its cell.
  VertexId nearest_site(const Vec3& q, CellId location_hint,
                        std::uint64_t& rng) const;

  const TessStats& stats() const { return stats_; }

  /// Greedy descent over the Delaunay neighbor graph from `seed` (typically
  /// the previous z-sample's answer: the hot path of render()). From any
  /// vertex some neighbor is strictly closer to q unless the vertex is q's
  /// nearest site.
  VertexId nearest_site_from(const Vec3& q, VertexId seed) const;

 private:
  const DensityField* density_;
  TessOptions opt_;
  std::vector<double> site_density_;
  // CSR vertex adjacency (representative vertices only), built by the
  // constructor so the per-sample hill climb does no graph traversal setup.
  std::vector<std::uint32_t> adj_start_;
  std::vector<VertexId> adj_;
  mutable TessStats stats_;
};

}  // namespace dtfe
