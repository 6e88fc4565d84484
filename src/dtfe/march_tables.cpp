#include "dtfe/march_tables.h"

#include "dtfe/density.h"
#include "dtfe/parallel_rows.h"

namespace dtfe {

TetraGeomTable::TetraGeomTable(const Triangulation& tri) {
  const std::size_t n = tri.cell_storage_size();
  coef_.assign(n, VerticalTetraCoef{});
  next_.assign(n * 4, Triangulation::kNoCell);
  mirror_.assign(n * 4, -1);
  parallel_rows(n, [&](std::size_t i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c) || tri.is_infinite(c)) return;
    coef_[i] = make_vertical_coef(tri.cell_points(c));
    const auto& cell = tri.cell(c);
    for (int f = 0; f < 4; ++f) {
      const CellId nb = cell.n[static_cast<std::size_t>(f)];
      if (nb == Triangulation::kNoCell || tri.is_infinite(nb)) continue;
      next_[i * 4 + static_cast<std::size_t>(f)] = nb;
      mirror_[i * 4 + static_cast<std::size_t>(f)] =
          static_cast<std::int8_t>(tri.mirror_index(c, f));
    }
  });
}

FieldCoefTable::FieldCoefTable(const DensityField& field) {
  const Triangulation& tri = field.triangulation();
  const std::size_t n = tri.cell_storage_size();
  coef_.assign(n, Coef{});
  parallel_rows(n, [&](std::size_t i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c) || tri.is_infinite(c)) return;
    const auto& t = tri.cell(c);
    const Vec3& x0 = tri.point(t.v[0]);
    const Vec3& g = field.cell_gradient(c);
    Coef& k = coef_[i];
    k.d0 = ((field.vertex_density(t.v[0]) - g.x * x0.x) - g.y * x0.y) -
           g.z * x0.z;
    k.gx = g.x;
    k.gy = g.y;
    k.gz = g.z;
  });
}

}  // namespace dtfe
