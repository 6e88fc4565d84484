#include "dtfe/march_tables.h"

#include "dtfe/parallel.h"

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

}  // namespace dtfe
