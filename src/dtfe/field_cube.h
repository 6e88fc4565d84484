// The triangulated particle cube: the one owner of a volume's DTFE
// artefacts.
//
// Every field over one particle volume is rendered from the same four
// pieces: the Delaunay mesh, its DTFE densities with their per-cell
// interpolant rows, the lower-hull locator (paper §IV-A-2), and the marching
// kernel's geometry table (dtfe/march_tables.h). FieldCube builds each of
// them at most once; the kernels, the audit, core::Reconstructor and the
// engine's FieldKernel registry borrow them instead of rebuilding. The
// first three are built with the cube; the table only when a march first
// asks for it, which a march does only when its rays amortise the table
// (MarchingKernel::render), so walk and tess items and small marches never
// build one.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "delaunay/hull_projection.h"
#include "delaunay/triangulation.h"
#include "dtfe/density.h"
#include "dtfe/march_tables.h"

namespace dtfe {

/// One Delaunay mesh plus its DTFE densities, hull silhouette and march
/// geometry table, built at most once per work item and shared by whichever
/// kernel (or audit) needs them. Immutable after construction apart from
/// the table's one-time build, which is thread-safe, so concurrent renders
/// may share one cube. Construction throws dtfe::Error for degenerate
/// inputs, exactly like the pieces it bundles.
class FieldCube {
 public:
  /// `particles` should already be in canonical (deterministic) order when
  /// bitwise reproducibility matters — the cube does not reorder them.
  FieldCube(std::vector<Vec3> particles, double particle_mass,
            const TriangulationOptions& topt = {});

  const Triangulation& triangulation() const { return *tri_; }
  const DensityField& density() const { return *density_; }
  const HullProjection& hull() const { return *hull_; }
  std::size_t n_particles() const { return points_.size(); }
  /// Canonical-order particle positions (ensemble smoothing jitters copies
  /// of these; velocity channels sample the analytic model at them).
  std::span<const Vec3> points() const { return points_; }
  double particle_mass() const { return particle_mass_; }

  /// The crossing-test tables for this cube's triangulation, built by the
  /// first call (on the caller's team) and shared by every marching kernel
  /// rendering from it afterwards (the density path and each channel of a
  /// vector render). Concurrent first calls build it once.
  std::shared_ptr<const TetraGeomTable> geom_table() const;

 private:
  std::vector<Vec3> points_;
  double particle_mass_ = 1.0;
  std::unique_ptr<Triangulation> tri_;
  std::unique_ptr<DensityField> density_;
  std::unique_ptr<HullProjection> hull_;
  mutable std::once_flag geom_once_;
  mutable std::shared_ptr<const TetraGeomTable> geom_;
};

}  // namespace dtfe
