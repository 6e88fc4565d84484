#include "dtfe/field_cube.h"

namespace dtfe {

FieldCube::FieldCube(std::vector<Vec3> particles, double particle_mass,
                     const TriangulationOptions& topt)
    : points_(std::move(particles)), particle_mass_(particle_mass) {
  tri_ = std::make_unique<Triangulation>(points_, topt);
  density_ = std::make_unique<DensityField>(*tri_, particle_mass);
  hull_ = std::make_unique<HullProjection>(*tri_);
}

std::shared_ptr<const TetraGeomTable> FieldCube::geom_table() const {
  std::call_once(geom_once_, [this] {
    geom_ = std::make_shared<const TetraGeomTable>(*tri_);
  });
  return geom_;
}

}  // namespace dtfe
