// High-level single-volume API: the "just give me a surface density map"
// entry point — a view over one dtfe::FieldCube (triangulation + DTFE
// densities + hull projection + march tables) and the rendering kernels.
#pragma once

#include <vector>

#include "dtfe/field.h"
#include "dtfe/field_cube.h"
#include "dtfe/marching_kernel.h"
#include "dtfe/tess_kernel.h"
#include "dtfe/walking_kernel.h"
#include "geometry/rotation.h"

namespace dtfe {

/// Renders fields from one FieldCube, which it owns and which builds every
/// artefact once. Build once, render any number of fields; each render runs
/// on the calling thread's kernel team (util/parallel.h), and render calls
/// are thread-safe with respect to each other.
class Reconstructor {
 public:
  /// Equal-mass particles. Throws dtfe::Error for degenerate inputs
  /// (fewer than 4 non-coplanar points).
  Reconstructor(std::vector<Vec3> points, double particle_mass = 1.0);

  /// Surface density by the paper's marching kernel (exact per-tetra
  /// line-of-sight integration; no 3D grid).
  Grid2D surface_density(const FieldSpec& spec,
                         const MarchingOptions& opt = {}) const;

  /// Surface density by the walking / 3D-grid baseline (DTFE public
  /// software's approach).
  Grid2D surface_density_walking(const FieldSpec& spec,
                                 const WalkingOptions& opt = {}) const;

  /// Surface density by the zero-order Voronoi baseline (TESS/DENSE).
  Grid2D surface_density_zero_order(const FieldSpec& spec,
                                    const TessOptions& opt = {}) const;

  /// Full 3D density grid (the intermediate product the paper's kernel
  /// avoids — exposed for analysis and visualization).
  Grid3D density_grid(const FieldSpec& spec,
                      const WalkingOptions& opt = {}) const;

  /// Point estimate of the DTFE density (0 outside the convex hull).
  double density_at(const Vec3& p) const;

  /// Exact line-of-sight integral through (x, y) over [zmin, zmax].
  double integrate_los(double x, double y, double zmin, double zmax) const;

  /// A reconstructor whose +z axis is the given direction in THIS frame:
  /// the paper's "any arbitrary direction can be chosen by a simple rotation
  /// of the triangulation". Fields rendered from the result are projections
  /// along `direction`; their (x, y) plane is Rotation::frame_for_direction's
  /// in-plane basis. Rebuilds the cube on rotated copies of the points.
  Reconstructor rotated_for_direction(const Vec3& direction) const;

  const FieldCube& cube() const { return cube_; }
  const Triangulation& triangulation() const { return cube_.triangulation(); }
  const DensityField& density() const { return cube_.density(); }
  const HullProjection& hull() const { return cube_.hull(); }

 private:
  FieldCube cube_;
};

}  // namespace dtfe
