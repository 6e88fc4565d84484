// The paper's surface-density kernel (§IV-A, Figs. 2–3).
//
// For each 2D grid cell the kernel marches its vertical line of sight ℓ
// through the tetrahedral mesh using Plücker ray–tetra intersections,
// accumulating the EXACT integral of the linear DTFE interpolant over each
// crossed tetrahedron: by Eq. 12, that integral equals the interpolant at
// the midpoint of the intersection interval times the interval length. No
// intermediate 3D grid is ever built, and the sample points are the
// mathematically optimal ones.
//
// The vertical hot path marches one line per pixel sample on coefficient
// rows (dtfe/march_tables.h, DESIGN.md §11): the field's own interpolant
// rows, and the geometry of the cube's table when the render's rays
// amortise it, else the same geometry computed off the mesh per crossing.
// The direct AoS classifiers remain behind
// use_general_plucker/use_moller_trumbore as the audit/ablation oracle.
//
// Degeneracies (ℓ hits a vertex/edge or is coplanar with a face) are handled
// by the paper's Perturb routine: nudge ℓ by ε toward a random vertex of the
// offending tetrahedron and retry.
#pragma once

#include <cstdint>
#include <memory>

#include "delaunay/hull_projection.h"
#include "dtfe/density.h"
#include "dtfe/field.h"
#include "dtfe/march_tables.h"
#include "util/cancel.h"

namespace dtfe {

class FieldCube;

struct MarchingOptions {
  /// Perturbation magnitude for degenerate rays, as a fraction of the grid
  /// cell size (the ε of paper Fig. 2).
  double perturb_epsilon = 1e-6;
  /// Abort a cell after this many perturbation restarts (the march then
  /// reports the best effort and counts the failure).
  int max_perturb_retries = 32;
  /// Monte Carlo samples per 2D cell (>1 jitters ξ within the cell and
  /// averages, the paper's mitigation for x/y under-sampling).
  int monte_carlo_samples = 1;
  /// Use Möller–Trumbore ray–triangle instead of Plücker (ablation only;
  /// more degeneracy-prone, as the paper notes).
  bool use_moller_trumbore = false;
  /// Use the general-direction Plücker test instead of the vertical-line
  /// specialization (ablation; identical results, ~3× more arithmetic).
  bool use_general_plucker = false;
  /// Dynamic grid spacing (the mode the paper disabled "for clarity" in its
  /// Fig. 6 comparison): when > 0, every 2D cell whose corner line integrals
  /// disagree by more than adaptive_tolerance (relative) is split into 4 and
  /// averaged, recursively up to this depth. Mitigates x/y under-sampling in
  /// dense regions deterministically, as an alternative to Monte Carlo.
  int adaptive_max_depth = 0;
  double adaptive_tolerance = 0.25;
  /// When > 0: instead of the exact per-tetra midpoint integral (Eq. 12),
  /// sample the interpolant at the z_samples fixed grid planes a 3D-grid
  /// renderer would use (Eq. 4 semantics) — locating each sample via the
  /// march, not a walk. This is the paper's Fig. 6 protocol, where both
  /// methods "locate and interpolate exactly the same number of grid cells";
  /// the marching kernel amortizes location over whole tetra intervals.
  int z_samples = 0;
  /// Stream seed. Each pixel's RNG state is pixel_seed(seed, iy·nx + ix)
  /// (util/parallel.h), never derived from the thread or the tile order that
  /// reaches it. A pixel's value is then a pure function of its own rays,
  /// written once, so a render is bitwise deterministic regardless of the
  /// schedule and team size. The pipeline folds the
  /// work item's identity into this seed so resumed runs replay identical
  /// perturbation sequences.
  std::uint64_t seed = 12345;
  /// Cooperative cancellation (borrowed; may be null = never cancel).
  /// render() throws dtfe::Error once the deadline expires.
  const Deadline* deadline = nullptr;
};

/// Where a render's vertical march read its geometry: a TetraGeomTable, or
/// MeshGeometry straight off the mesh (the ablation oracles read neither).
enum class MarchGeometry { kNone, kMesh, kTable };

struct MarchingStats {
  std::uint64_t cells_rendered = 0;
  std::uint64_t rays_marched = 0;        ///< lines of sight integrated
  std::uint64_t tetra_crossed = 0;       ///< total ray–tetra steps
  std::uint64_t perturb_restarts = 0;    ///< degenerate marches restarted
  std::uint64_t failed_cells = 0;        ///< cells that hit the retry cap
  std::uint64_t empty_cells = 0;         ///< ξ outside the hull silhouette
  /// Independent re-accumulation of every terminal ray's integral (weighted
  /// by its share of its 2D cell). In exact arithmetic this equals the sum
  /// of the rendered grid's values; the audit layer compares the two to
  /// catch grid-assembly corruption (see dtfe/audit.h).
  double ray_mass = 0.0;
  std::vector<double> thread_seconds;    ///< CPU seconds per team thread
  MarchGeometry geometry = MarchGeometry::kNone;  ///< the march's source
};

class MarchingKernel {
 public:
  /// Rays per live cell from which a render reads the geometry table rather
  /// than the mesh: just above the measured break-even of 0.14–0.2 rays per
  /// cell (table build included, one thread, DESIGN.md §11). Below it the
  /// table would cost ~196 B per cell and buy no time.
  static constexpr double kTableRaysPerCell = 0.25;

  /// The cube's density march: borrows the cube's density (with its
  /// interpolant rows) and hull, and asks the cube for its geometry table
  /// only when a render amortises it. The cube must outlive the kernel.
  explicit MarchingKernel(const FieldCube& cube, MarchingOptions opt = {});

  /// A march over another per-vertex field on the cube's mesh (the vector
  /// channels): the field's interpolant rows, the cube's hull and, when a
  /// render amortises it, the cube's one geometry table. Both must outlive
  /// the kernel.
  MarchingKernel(const FieldCube& cube, const DensityField& field,
                 MarchingOptions opt = {});

  /// A march over any per-vertex field on a triangulation (tests, benches).
  /// Reads the field's interpolant rows. A shared `geom` is used by every
  /// render; without one, the first render that amortises a table builds
  /// the kernel's own. Both referenced objects must outlive the kernel.
  MarchingKernel(const DensityField& density, const HullProjection& hull,
                 MarchingOptions opt = {},
                 std::shared_ptr<const TetraGeomTable> geom = nullptr);

  /// Render the surface density field (paper Fig. 3 over all grid cells,
  /// one render_tiles call on the calling thread's team). Returns an Ng×Ng
  /// grid of Σ̂ values. Pixels are visited in PixelTiles order, so
  /// neighbouring rays share cached table rows; the grid is the same for
  /// any order (see MarchingOptions::seed) and either geometry source. The
  /// table is read when the render plans at least kTableRaysPerCell rays
  /// per live cell (nx·ny·samples; 4 per pixel for adaptive renders), else
  /// the mesh; stats().geometry says which. Throws dtfe::Error naming the
  /// deadline if opt.deadline expires. Not for concurrent calls on one
  /// kernel (stats and the kernel's own table are per kernel).
  Grid2D render(const FieldSpec& spec) const;

  /// Integrate the DTFE interpolant along the single vertical line through
  /// ξ over [zmin, zmax], on a table the kernel already has, else the mesh.
  /// Exposed for tests and for the walking-comparison benches.
  double integrate_line(const Vec2& xi, double zmin, double zmax) const;

  /// Statistics from the most recent render() call.
  const MarchingStats& stats() const { return stats_; }

 private:
  /// Result of one un-perturbed march attempt along a fixed ξ.
  struct Attempt {
    double sigma = 0.0;
    std::uint64_t steps = 0;
    bool empty = false;
    bool degenerate = false;
    CellId degen_cell = Triangulation::kNoCell;
  };
  struct LineResult {
    double sigma = 0.0;
    std::uint64_t steps = 0;
    int restarts = 0;
    bool failed = false;
    bool empty = false;
  };
  /// One thread's ray counts over a render (render_tiles sums them).
  struct RayTally {
    std::uint64_t rays = 0, crossings = 0, restarts = 0, failed = 0,
                  empty = 0;
    double mass = 0.0;  ///< terminal rays' share of the grid (ray_mass)
    /// Count one marched ray and observe its crossings histogram.
    void count(const LineResult& r);
    RayTally& operator+=(const RayTally& o);
  };

  /// The vertical fast path marches on coefficient rows; the Möller /
  /// general-Plücker ablation oracles march the AoS geometry.
  bool uses_coef_rows() const {
    return !opt_.use_moller_trumbore && !opt_.use_general_plucker;
  }
  /// The table a render of `rays` rays marches on: the kernel's, else the
  /// cube's or a new one of its own when the rays amortise it; else null.
  const TetraGeomTable* table_for(double rays) const;
  /// The render over one geometry source (TetraGeomTable or MeshGeometry).
  template <class Geom>
  Grid2D render_on(const Geom& geom, MarchGeometry source,
                   const FieldSpec& spec) const;

  /// March ξ, perturbing and retrying on degenerate hits (paper Fig. 2);
  /// each perturbation moves ξ by at most `eps`.
  template <class Geom>
  LineResult march_line(const Geom& geom, Vec2 xi, double zmin, double zmax,
                        double eps, std::uint64_t& rng) const;
  template <class Geom>
  Attempt march_once_fast(const Geom& geom, const Vec2& xi, double zmin,
                          double zmax) const;
  Attempt march_once_slow(const Vec2& xi, double zmin, double zmax) const;
  /// Accumulate one tetra's contribution over [a, b) into sigma.
  void add_interval(CellId c, const Vec2& xi, double a, double b, double zmin,
                    double zmax, double dz, double& sigma) const;
  /// Adaptive (quadtree) estimate of the mean surface density over the
  /// square cell centered at `center` with side `size`. `weight` is this
  /// node's share of the top-level 2D cell (1.0 at the root), used to
  /// accumulate MarchingStats::ray_mass from terminal samples only.
  template <class Geom>
  double refine_cell(const Geom& geom, const Vec2& center, double size,
                     double zmin, double zmax, double eps, int depth,
                     double weight, std::uint64_t& rng,
                     RayTally& tally) const;

  const DensityField* density_;
  const HullProjection* hull_;
  const FieldCube* cube_ = nullptr;  ///< owner of the table, if any
  MarchingOptions opt_;
  /// Shared at construction, or taken by the first render that amortises
  /// it (from cube_, else built for this kernel).
  mutable std::shared_ptr<const TetraGeomTable> geom_;
  FieldCoefTable field_;
  mutable MarchingStats stats_;
};

}  // namespace dtfe
