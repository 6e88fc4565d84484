// Paper Fig. 7: distributed-memory comparison with the TESS/DENSE estimator
// — execution time and speedup of the corresponding stages (TESS ↔
// Triangulation, DENSE ↔ Interpolation) when one large surface-density grid
// is decomposed into per-rank sub-grids (multiple-process-single-thread
// mode). Paper observes ~8× improvement in execution time and near-linear
// speedup of both pipelines.
//
// Substitution note (DESIGN.md): both pipelines here share our Delaunay
// builder, so the tessellation stages coincide by construction; the
// reproducible content is the DENSE-vs-Interpolation gap and the scaling of
// every stage. Critical-path time = max per-rank thread-CPU busy time.
#include <mutex>

#include "fig_common.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace dtfe;
  bench::banner(
      "Fig. 7 — TESS/DENSE vs Triangulation/Interpolation, sub-grid scaling");

  const std::size_t ng = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;
  // Clustered sub-volume akin to the paper's 32 Mpc/h cut with 1.7M
  // particles, scaled down.
  const ParticleSet set = bench::planck_like_box(120000, 32.0, 7);
  std::printf("dataset: %zu particles, single %zux%zu grid decomposed into "
              "per-rank x-slabs\n\n",
              set.size(), ng, ng);

  struct Row {
    int ranks;
    double tri, interp, tess, dense;
  };
  std::vector<Row> rows;

  for (const int P : {1, 2, 4, 8, 16}) {
    std::vector<double> tri_t(P, 0), interp_t(P, 0), tess_t(P, 0),
        dense_t(P, 0);
    std::mutex mtx;
    simmpi::run(P, [&](simmpi::Comm& comm) {
      const int r = comm.rank();
      // x-slab of the grid plus a particle slab with ghost pad.
      const double slab_lo = set.box_length * r / P;
      const double slab_hi = set.box_length * (r + 1) / P;
      const double pad = 2.0;
      std::vector<Vec3> slab;
      for (const Vec3& p : set.positions)
        for (const double s : {-set.box_length, 0.0, set.box_length}) {
          const double x = p.x + s;  // periodic image unwrapped into the slab
          if (x >= slab_lo - pad && x <= slab_hi + pad) {
            slab.push_back({x, p.y, p.z});
            break;
          }
        }

      ThreadCpuTimer t;
      const Triangulation tri(slab);
      const double tri_time = t.seconds();
      t.reset();
      const DensityField rho(tri, set.particle_mass);
      const HullProjection hull(tri);
      const double setup = t.seconds();

      // This rank's share of the single large grid: an x-slab of ng/P
      // columns by ng rows (square cells).
      FieldSpec sub;
      sub.origin = {slab_lo, 0.0};
      sub.length = slab_hi - slab_lo;
      sub.resolution = ng / static_cast<std::size_t>(P);
      sub.resolution_y = ng;
      sub.zmin = 0.0;
      sub.zmax = set.box_length;

      t.reset();
      const MarchingKernel marching(rho, hull);
      (void)marching.render(sub);
      const double interp_time = t.seconds();

      t.reset();
      TessOptions topt;
      topt.z_resolution = ng;  // cubic 3D cells over the whole z column
      const TessKernel tess(rho, topt);
      // Voronoi volumes plus the hill climb's vertex adjacency.
      const double tess_setup = t.seconds();
      t.reset();
      (void)tess.render(sub);
      const double dense_time = t.seconds();

      std::lock_guard<std::mutex> lock(mtx);
      tri_t[static_cast<std::size_t>(r)] = tri_time + setup;
      interp_t[static_cast<std::size_t>(r)] = interp_time;
      tess_t[static_cast<std::size_t>(r)] = tri_time + setup + tess_setup;
      dense_t[static_cast<std::size_t>(r)] = dense_time;
    });

    auto maxof = [](const std::vector<double>& v) {
      double m = 0;
      for (double x : v) m = std::max(m, x);
      return m;
    };
    rows.push_back({P, maxof(tri_t), maxof(interp_t), maxof(tess_t),
                    maxof(dense_t)});
    std::printf("P=%2d done\n", P);
  }

  std::printf("\n%6s %14s %14s %10s %10s\n", "ranks", "Triangulation",
              "Interpolation", "TESS", "DENSE");
  for (const auto& r : rows)
    std::printf("%6d %14.3f %14.3f %10.3f %10.3f\n", r.ranks, r.tri, r.interp,
                r.tess, r.dense);

  std::printf("\nspeedups (vs 1 rank)\n%6s %14s %14s %10s %10s %8s\n", "ranks",
              "Triangulation", "Interpolation", "TESS", "DENSE", "linear");
  for (const auto& r : rows)
    std::printf("%6d %14.2f %14.2f %10.2f %10.2f %8d\n", r.ranks,
                rows[0].tri / r.tri, rows[0].interp / r.interp,
                rows[0].tess / r.tess, rows[0].dense / r.dense, r.ranks);

  const double gap = rows[0].dense / rows[0].interp;
  std::printf("\nDENSE / Interpolation execution gap at 1 rank: %.1fx "
              "[paper: ~8x overall improvement]\n", gap);
  return 0;
}
