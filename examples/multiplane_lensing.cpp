// Multiplane lensing workload (paper §V-3): surface-density fields stacked
// along observer lines of sight through the full volume — a mixture of high
// and low density sub-volumes, the configuration where the paper observes
// the best work-sharing efficiency.
//
//   $ ./multiplane_lensing [n_ranks] [n_los] [planes_per_los]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/dtfe.h"
#include "util/rng.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t n_los = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12;
  const std::size_t planes = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 6;

  dtfe::ZeldovichOptions gen;
  gen.grid = 64;  // 64^3 = 262k particles of cosmic web (FFT needs a power of 2)
  gen.box_length = 64.0;
  gen.rms_displacement = 1.6;
  gen.seed = 5;
  const dtfe::ParticleSet set = dtfe::generate_zeldovich(gen);
  std::printf("generated %zu Zel'dovich particles\n", set.size());

  // Lines of sight: random (x, y) columns, fields stacked in z — every LOS
  // pierces dense knots and empty voids alike.
  dtfe::Rng rng(3);
  std::vector<dtfe::Vec3> centers;
  for (std::size_t l = 0; l < n_los; ++l) {
    const double x = rng.uniform(0.0, set.box_length);
    const double y = rng.uniform(0.0, set.box_length);
    for (std::size_t p = 0; p < planes; ++p)
      centers.push_back(
          {x, y,
           (static_cast<double>(p) + 0.5) * set.box_length /
               static_cast<double>(planes)});
  }
  std::printf("%zu lines of sight × %zu planes = %zu fields\n", n_los, planes,
              centers.size());

  dtfe::PipelineOptions opt;
  opt.field_length = 6.0;
  opt.field_resolution = 48;
  opt.load_balance = true;

  std::mutex mtx;
  dtfe::RunningStats busy;
  std::size_t total_shared = 0;
  dtfe::simmpi::run(ranks, [&](dtfe::simmpi::Comm& comm) {
    const dtfe::PipelineResult res =
        dtfe::run_pipeline(comm, set, centers, opt);
    std::lock_guard<std::mutex> lock(mtx);
    busy.add(res.phases.total());
    total_shared += res.items_sent;
    const auto received = std::count_if(
        res.items.begin(), res.items.end(), [](const dtfe::ItemRecord& it) {
          return it.path == dtfe::ItemPath::kReceived;
        });
    std::printf("rank %2d: %3zu local + %3td received items, busy %.2fs\n",
                comm.rank(), res.local_items, received, res.phases.total());
  });

  std::printf("\n%zu of %zu items were shared between ranks\n", total_shared,
              centers.size());
  std::printf("busy time: mean %.2fs max %.2fs std %.2fs (max/mean %.2f)\n",
              busy.mean(), busy.max(), busy.stddev(),
              busy.max() / std::max(busy.mean(), 1e-9));
  return 0;
}
