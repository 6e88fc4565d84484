#include "dtfe/vector_field.h"

#include <vector>

#include "util/error.h"

namespace dtfe {

VectorField::VectorField(const Triangulation& tri, std::span<const Vec3> values)
    : tri_(&tri) {
  DTFE_CHECK_MSG(values.size() == tri.num_vertices(),
                 "vector sample count must match vertex count");
  std::vector<double> comp(values.size());
  for (int i = 0; i < 3; ++i) {
    for (std::size_t v = 0; v < values.size(); ++v) comp[v] = values[v][i];
    fields_[static_cast<std::size_t>(i)] = std::make_unique<DensityField>(
        DensityField::with_vertex_values(tri, comp));
  }
}

}  // namespace dtfe
