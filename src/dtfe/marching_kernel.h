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
// The vertical hot path marches one line per pixel sample on precomputed
// SoA coefficient tables (dtfe/march_tables.h, DESIGN.md §11), built once
// per cube by dtfe::FieldCube and borrowed by every kernel over it. The direct AoS classifiers
// remain behind use_general_plucker/use_moller_trumbore as the
// audit/ablation oracle.
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
  /// Stream seed. Each pixel's RNG state is derived by splitmix from (seed,
  /// the pixel's row-major index iy·nx + ix), never from the thread or the
  /// tile order that reaches it. A pixel's value is then a pure function of
  /// its own rays, written once, so a render is bitwise deterministic
  /// regardless of OpenMP scheduling and team size. The pipeline folds the
  /// work item's identity into this seed so resumed runs replay identical
  /// perturbation sequences.
  std::uint64_t seed = 12345;
  /// Cooperative cancellation (borrowed; may be null = never cancel).
  /// render() throws dtfe::Error once the deadline expires.
  const Deadline* deadline = nullptr;
};

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
  std::vector<double> thread_seconds;    ///< per-OpenMP-thread busy time
};

class MarchingKernel {
 public:
  /// The cube's density march: borrows the cube's density, hull and both
  /// tables and builds nothing (the cube builds its coefficient table on the
  /// first such kernel). The cube must outlive the kernel.
  explicit MarchingKernel(const FieldCube& cube, MarchingOptions opt = {});

  /// A march over any per-vertex field on a triangulation (vector channels,
  /// tests). Builds the field's FieldCoefTable, and the TetraGeomTable too
  /// unless `geom` shares one (FieldCube::geom_table()). Both referenced
  /// objects must outlive the kernel.
  MarchingKernel(const DensityField& density, const HullProjection& hull,
                 MarchingOptions opt = {},
                 std::shared_ptr<const TetraGeomTable> geom = nullptr);

  /// Render the surface density field (paper Fig. 3 over all grid cells,
  /// OpenMP-parallel). Returns an Ng×Ng grid of Σ̂ values. Pixels are
  /// visited in PixelTiles order (8×8 tiles, one tile per dynamic-schedule
  /// unit), so neighbouring rays share cached table rows; the grid is the
  /// same for any order (see MarchingOptions::seed). Throws dtfe::Error
  /// naming the deadline if opt.deadline expires; each thread polls it on
  /// its first pixel and every 16th after.
  Grid2D render(const FieldSpec& spec) const;

  /// Integrate the DTFE interpolant along the single vertical line through
  /// ξ over [zmin, zmax]. Exposed for tests and for the walking-comparison
  /// benches.
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

  /// Rescaled-ε worker sharing the parent's tables (render() internal).
  MarchingKernel(const MarchingKernel& base, const MarchingOptions& opt);

  /// The vertical fast path marches on the tables; the Möller /
  /// general-Plücker ablation oracles march the AoS geometry and need none.
  bool uses_tables() const {
    return !opt_.use_moller_trumbore && !opt_.use_general_plucker;
  }

  /// March ξ, perturbing and retrying on degenerate hits (paper Fig. 2).
  LineResult march_line(Vec2 xi, double zmin, double zmax,
                        std::uint64_t& rng) const;
  Attempt march_once_fast(const Vec2& xi, double zmin, double zmax) const;
  Attempt march_once_slow(const Vec2& xi, double zmin, double zmax) const;
  /// Accumulate one tetra's contribution over [a, b) into sigma.
  void add_interval(CellId c, const Vec2& xi, double a, double b, double zmin,
                    double zmax, double dz, double& sigma) const;
  /// Adaptive (quadtree) estimate of the mean surface density over the
  /// square cell centered at `center` with side `size`. `weight` is this
  /// node's share of the top-level 2D cell (1.0 at the root), used to
  /// accumulate MarchingStats::ray_mass from terminal samples only.
  double refine_cell(const Vec2& center, double size, double zmin, double zmax,
                     int depth, double weight, std::uint64_t& rng,
                     MarchingStats* accum) const;

  const DensityField* density_;
  const HullProjection* hull_;
  MarchingOptions opt_;
  std::shared_ptr<const TetraGeomTable> geom_;
  std::shared_ptr<const FieldCoefTable> field_;
  mutable MarchingStats stats_;
};

}  // namespace dtfe
