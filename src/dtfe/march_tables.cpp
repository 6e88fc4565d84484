#include "dtfe/march_tables.h"

#include "util/parallel.h"

namespace dtfe {

TetraGeomTable::TetraGeomTable(const Triangulation& tri) {
  const std::size_t n = tri.cell_storage_size();
  coef_.assign(n, VerticalTetraCoef{});
  next_.assign(n * 4, Triangulation::kNoCell);
  mirror_.assign(n * 4, -1);
  const MeshGeometry mesh(tri);
  parallel_rows(n, [&](std::size_t i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c) || tri.is_infinite(c)) return;
    coef_[i] = mesh.coef(c);
    for (int f = 0; f < 4; ++f) {
      const CellId nb = mesh.next(c, f);
      if (nb == Triangulation::kNoCell) continue;
      next_[i * 4 + static_cast<std::size_t>(f)] = nb;
      mirror_[i * 4 + static_cast<std::size_t>(f)] =
          static_cast<std::int8_t>(mesh.mirror(c, f));
    }
  });
}

}  // namespace dtfe
