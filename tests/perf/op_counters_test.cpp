// Pinned work counts (ctest -L perf): the perf-smoke fixture run in-process
// and compared with bench/perf_reference.json. The fixture is the CLI run
//   pdtfe generate --n 40000 --box 16 --seed 3
//   pdtfe pipeline --ranks 2 --fields 6 --grid 24 --length 3
// and the counters are machine-independent: a change here means the
// triangulation walk or the marching kernel now does DIFFERENT work, which
// must be intentional (update the reference file in the same change).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "engine/config.h"
#include "engine/engine.h"
#include "nbody/fof.h"
#include "nbody/generators.h"
#include "nbody/snapshot_io.h"
#include "obs/metrics.h"
#include "util/cli.h"

namespace dtfe {
namespace {

/// Value of `"name": <number>` in the reference file (its only nesting is
/// the op_counters object, so a key search suffices).
double reference_counter(const std::string& json, const std::string& name) {
  const std::size_t key = json.find('"' + name + '"');
  if (key == std::string::npos) return -1.0;  // no count: fails the match
  const std::size_t colon = json.find(':', key);
  return std::strtod(json.c_str() + colon + 1, nullptr);
}

TEST(OpCounters, SmokeFixtureMatchesPerfReference) {
  std::ifstream in(PDTFE_PERF_REFERENCE);
  ASSERT_TRUE(in) << "cannot read " << PDTFE_PERF_REFERENCE;
  const std::string reference{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};

  // pdtfe generate --n 40000 --box 16 --seed 3 (halo kind, 4^3 blocks).
  const std::string snap =
      (std::filesystem::temp_directory_path() /
       ("pdtfe_op_counters_" + std::to_string(::getpid()) + ".bin"))
          .string();
  HaloModelOptions gen;
  gen.n_particles = 40000;
  gen.box_length = 16.0;
  gen.n_halos = std::max<std::size_t>(8, gen.n_particles / 2500);
  gen.seed = 3;
  write_snapshot(snap, generate_halo_model(gen), 4);

  // pdtfe pipeline --ranks 2 --fields 6 --grid 24 --length 3, with metrics
  // on from the snapshot read onward, as --metrics-out arms them.
  const char* argv[] = {"pdtfe",   "pipeline", "--in",   snap.c_str(),
                        "--ranks", "2",        "--fields", "6",
                        "--grid",  "24",       "--length", "3"};
  const CliArgs args(static_cast<int>(std::size(argv)),
                     const_cast<char**>(argv));
  const engine::EngineConfig cfg = engine::EngineConfig::from_cli(args);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  std::vector<engine::FieldRequest> requests;
  const auto groups = find_fof_groups(read_snapshot(cfg.snapshot));
  for (std::size_t i = 0; i < groups.size() && requests.size() < cfg.n_fields;
       ++i)
    requests.push_back({groups[i].center});
  engine::Engine eng(cfg);
  const auto fields = eng.run_batch(requests);
  const obs::MetricsSnapshot got = reg.snapshot();
  reg.set_enabled(false);
  std::filesystem::remove(snap);

  ASSERT_EQ(fields.size(), 6u);
  for (const auto& f : fields) EXPECT_TRUE(f.completed && !f.failed);
  for (const char* name :
       {"dtfe.delaunay.walk_steps", "dtfe.kernel.tetra_crossings"})
    EXPECT_EQ(got.counter(name), reference_counter(reference, name))
        << name << ": the amount of work changed";
}

}  // namespace
}  // namespace dtfe
