// Galaxy-galaxy lensing workload (paper §V-3): compute many surface-density
// fields centered on the most massive objects of a clustered simulation,
// distributed over message-passing ranks with a-priori load balancing.
//
//   $ ./galaxy_lensing [n_ranks] [n_fields]
//
// Prints the per-phase busy times and the balance achieved, and writes the
// densest field as galaxy_field.pgm.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/dtfe.h"
#include "util/image.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t n_fields =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 48;

  // Clustered box (the regime where load imbalance bites).
  dtfe::HaloModelOptions gen;
  gen.n_particles = 120000;
  gen.box_length = 64.0;
  gen.n_halos = 48;
  gen.seed = 11;
  const dtfe::ParticleSet set = dtfe::generate_halo_model(gen);

  // "Galaxy positions": the centers of the most massive FOF groups.
  dtfe::FofOptions fof;
  fof.linking_parameter = 0.2;
  fof.min_group_size = 32;
  const auto groups = dtfe::find_fof_groups(set, fof);
  std::printf("FOF found %zu groups; centering %zu fields on the largest\n",
              groups.size(), n_fields);
  std::vector<dtfe::Vec3> centers;
  for (std::size_t i = 0; i < groups.size() && centers.size() < n_fields; ++i)
    centers.push_back(groups[i].center);

  dtfe::PipelineOptions opt;
  opt.field_length = 5.0;
  opt.field_resolution = 64;
  opt.load_balance = true;
  opt.keep_grids = true;

  std::mutex mtx;
  dtfe::RunningStats busy;
  dtfe::Grid2D densest;
  double densest_sum = -1.0;
  dtfe::simmpi::run(ranks, [&](dtfe::simmpi::Comm& comm) {
    const dtfe::PipelineResult res =
        dtfe::run_pipeline(comm, set, centers, opt);
    std::lock_guard<std::mutex> lock(mtx);
    busy.add(res.phases.total());
    const auto received = std::count_if(
        res.items.begin(), res.items.end(), [](const dtfe::ItemRecord& it) {
          return it.path == dtfe::ItemPath::kReceived;
        });
    std::printf(
        "rank %2d: items local=%zu sent=%zu recv=%td | partition %.2fs "
        "model %.2fs tri %.2fs render %.2fs share %.2fs\n",
        comm.rank(), res.local_items, res.items_sent, received,
        res.phases.partition, res.phases.model, res.phases.triangulate,
        res.phases.render, res.phases.work_share);
    for (std::size_t i = 0; i < res.grids.size(); ++i)
      if (res.grids[i].sum() > densest_sum) {
        densest_sum = res.grids[i].sum();
        densest = res.grids[i].plane(0);
      }
  });

  std::printf("\nper-rank busy time: mean %.2fs  max %.2fs  std %.2fs\n",
              busy.mean(), busy.max(), busy.stddev());
  if (densest.size() > 0) {
    dtfe::write_log_pgm("galaxy_field.pgm", densest.values(), densest.nx(),
                        densest.ny());
    std::printf("wrote galaxy_field.pgm (densest field)\n");
  }
  return 0;
}
