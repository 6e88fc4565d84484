#include "core/reconstructor.h"

#include <cstdint>

namespace dtfe {

Reconstructor::Reconstructor(std::vector<Vec3> points, double particle_mass)
    : cube_(std::move(points), particle_mass) {}

Reconstructor Reconstructor::rotated_for_direction(const Vec3& direction) const {
  const Rotation frame = Rotation::frame_for_direction(direction);
  std::vector<Vec3> rotated;
  rotated.reserve(cube_.n_particles());
  for (const Vec3& p : cube_.points()) rotated.push_back(frame.apply(p));
  return Reconstructor(std::move(rotated), cube_.particle_mass());
}

Grid2D Reconstructor::surface_density(const FieldSpec& spec,
                                      const MarchingOptions& opt) const {
  return MarchingKernel(cube_, opt).render(spec);
}

Grid2D Reconstructor::surface_density_walking(const FieldSpec& spec,
                                              const WalkingOptions& opt) const {
  return WalkingKernel(density(), opt).render(spec);
}

Grid2D Reconstructor::surface_density_zero_order(const FieldSpec& spec,
                                                 const TessOptions& opt) const {
  return TessKernel(density(), opt).render(spec);
}

Grid3D Reconstructor::density_grid(const FieldSpec& spec,
                                   const WalkingOptions& opt) const {
  return WalkingKernel(density(), opt).render_3d(spec);
}

double Reconstructor::density_at(const Vec3& p) const {
  // A call-local walk state: the cube is shared by concurrent callers, so
  // the stateful Triangulation::locate is off limits here.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto loc =
      triangulation().locate_from(p, Triangulation::kNoCell, rng);
  if (loc.status == Triangulation::LocateStatus::kOutsideHull) return 0.0;
  return density().interpolate_in_cell(loc.cell, p);
}

double Reconstructor::integrate_los(double x, double y, double zmin,
                                    double zmax) const {
  return MarchingKernel(cube_).integrate_line({x, y}, zmin, zmax);
}

}  // namespace dtfe
