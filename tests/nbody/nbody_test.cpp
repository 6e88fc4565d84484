#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "nbody/fof.h"
#include "nbody/generators.h"
#include "nbody/snapshot_io.h"
#include "util/error.h"
#include "util/fft.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dtfe {
namespace {

TEST(Fft, RoundTrip1d) {
  Rng rng(1);
  std::vector<std::complex<double>> data(256);
  for (auto& c : data) c = {rng.normal(), rng.normal()};
  const auto orig = data;
  fft_1d(data, false);
  fft_1d(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, SingleModeFrequency) {
  // A pure cosine at mode k should produce two spikes at bins k and N−k.
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  const std::size_t k = 5;
  for (std::size_t i = 0; i < n; ++i)
    data[i] = std::cos(2.0 * M_PI * static_cast<double>(k * i) / n);
  fft_1d(data, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = (i == k || i == n - k) ? n / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(data[i]), expected, 1e-9) << "bin " << i;
  }
}

TEST(Fft, RoundTrip3d) {
  Rng rng(2);
  ComplexGrid3D g(8);
  std::vector<std::complex<double>> orig;
  for (auto& c : g.flat()) {
    c = {rng.normal(), rng.normal()};
    orig.push_back(c);
  }
  g.transform(false);
  g.transform(true);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(g.flat()[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(g.flat()[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(3);
  std::vector<std::complex<double>> data(128);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = {rng.normal(), rng.normal()};
    time_energy += std::norm(c);
  }
  fft_1d(data, false);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * 128.0, 1e-6 * freq_energy);
}

TEST(Generators, UniformInBox) {
  const auto set = generate_uniform(5000, 42.0, 7);
  EXPECT_EQ(set.size(), 5000u);
  for (const Vec3& p : set.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 42.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 42.0);
    EXPECT_GE(p.z, 0.0);
    EXPECT_LT(p.z, 42.0);
  }
}

TEST(Generators, LatticeSpacingAndJitter) {
  const auto set = generate_lattice(8, 16.0, 0.0, 1);
  EXPECT_EQ(set.size(), 512u);
  // no jitter → distinct lattice sites with spacing 2
  std::set<long long> keys;
  for (const Vec3& p : set.positions)
    keys.insert(llround(p.x * 100) * 1000000 + llround(p.y * 100) * 1000 +
                llround(p.z * 100));
  EXPECT_EQ(keys.size(), 512u);
}

TEST(Generators, ZeldovichClustersRelativeToUniform) {
  // Clustering proxy: variance of counts-in-cells should exceed Poisson.
  ZeldovichOptions opt;
  opt.grid = 32;
  opt.box_length = 100.0;
  opt.growth = 4.0;
  opt.spectrum.amplitude = 8.0;
  const auto zel = generate_zeldovich(opt);
  ASSERT_EQ(zel.size(), 32u * 32u * 32u);
  for (const Vec3& p : zel.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 100.0);
  }

  auto cic_variance = [](const ParticleSet& s, std::size_t cells) {
    std::vector<double> counts(cells * cells * cells, 0.0);
    const double inv = static_cast<double>(cells) / s.box_length;
    for (const Vec3& p : s.positions) {
      auto c = [&](double v) {
        return std::min(static_cast<std::size_t>(v * inv), cells - 1);
      };
      counts[(c(p.z) * cells + c(p.y)) * cells + c(p.x)] += 1.0;
    }
    RunningStats st;
    for (double v : counts) st.add(v);
    return st.variance() / std::max(st.mean(), 1e-9);  // Poisson ⇒ ≈ 1
  };

  const auto uni = generate_uniform(zel.size(), 100.0, 3);
  const double vz = cic_variance(zel, 8);
  const double vu = cic_variance(uni, 8);
  EXPECT_GT(vz, 3.0 * vu);
}

TEST(Generators, HaloModelConcentratesMass) {
  HaloModelOptions opt;
  opt.n_particles = 20000;
  opt.n_halos = 16;
  opt.background_fraction = 0.2;
  const auto set = generate_halo_model(opt);
  EXPECT_EQ(set.size(), 20000u);
  // Strong clustering: the densest 1% of cells should hold >20% of particles.
  const std::size_t cells = 16;
  std::vector<std::size_t> counts(cells * cells * cells, 0);
  const double inv = static_cast<double>(cells) / set.box_length;
  for (const Vec3& p : set.positions) {
    auto c = [&](double v) {
      return std::min(static_cast<std::size_t>(v * inv), cells - 1);
    };
    ++counts[(c(p.z) * cells + c(p.y)) * cells + c(p.x)];
  }
  std::sort(counts.begin(), counts.end(), std::greater<>());
  std::size_t top = 0;
  for (std::size_t i = 0; i < counts.size() / 100; ++i) top += counts[i];
  EXPECT_GT(static_cast<double>(top), 0.2 * 20000);
}

TEST(Fof, FindsPlantedClusters) {
  // Three tight blobs + sparse noise; FOF at standard linking must find the
  // blobs as the three largest groups with accurate centers.
  Rng rng(11);
  ParticleSet set;
  set.box_length = 100.0;
  const Vec3 centers[3] = {{20, 20, 20}, {70, 30, 60}, {40, 80, 85}};
  for (const Vec3& c : centers)
    for (int i = 0; i < 400; ++i)
      set.positions.push_back(wrap_periodic(
          c + Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.35, 100.0));
  for (int i = 0; i < 200; ++i)
    set.positions.push_back(
        {rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)});

  FofOptions opt;
  opt.linking_parameter = 0.2;
  const auto groups = find_fof_groups(set, opt);
  ASSERT_GE(groups.size(), 3u);
  for (int g = 0; g < 3; ++g) {
    EXPECT_GE(groups[static_cast<std::size_t>(g)].size(), 350u);
    double best = 1e300;
    for (const Vec3& c : centers)
      best = std::min(best,
                      periodic_dist2(groups[static_cast<std::size_t>(g)].center,
                                     c, 100.0));
    EXPECT_LT(std::sqrt(best), 1.0);
  }
}

TEST(Fof, PeriodicWrappingJoinsAcrossBoundary) {
  // A blob straddling the box corner must come back as ONE group.
  Rng rng(13);
  ParticleSet set;
  set.box_length = 50.0;
  for (int i = 0; i < 500; ++i)
    set.positions.push_back(wrap_periodic(
        Vec3{rng.normal() * 0.4, rng.normal() * 0.4, rng.normal() * 0.4},
        50.0));
  const auto groups = find_fof_groups(set);
  ASSERT_GE(groups.size(), 1u);
  EXPECT_GE(groups[0].size(), 480u);
  // center of mass should be near the corner (0,0,0) modulo wrapping
  const double d = std::sqrt(periodic_dist2(groups[0].center, {0, 0, 0}, 50.0));
  EXPECT_LT(d, 0.5);
}

/// O(n²) friends-of-friends: unite every pair within the linking length,
/// then gather and center exactly as find_fof_groups documents.
std::vector<FofGroup> brute_force_fof(const ParticleSet& set,
                                      const FofOptions& opt) {
  const std::size_t n = set.size();
  const double box = set.box_length;
  const double link =
      opt.linking_parameter * (box / std::cbrt(static_cast<double>(n)));
  const double link2 = link * link;
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::uint32_t{0});
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const Vec3 &pa = set.positions[a], &pb = set.positions[b];
      const double d2 =
          opt.periodic ? periodic_dist2(pa, pb, box) : (pa - pb).norm2();
      if (!(d2 <= link2)) continue;
      const std::uint32_t ra = find(a), rb = find(b);
      if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
    }
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_root;
  for (std::uint32_t i = 0; i < n; ++i) by_root[find(i)].push_back(i);
  std::vector<FofGroup> groups;
  for (auto& [root, members] : by_root) {
    if (members.size() < opt.min_group_size) continue;
    FofGroup g;
    g.members = std::move(members);
    const Vec3 ref = set.positions[g.members.front()];
    Vec3 acc{0, 0, 0};
    for (const std::uint32_t i : g.members)
      acc += opt.periodic ? min_image(set.positions[i] - ref, box)
                          : (set.positions[i] - ref);
    g.center = ref + acc / static_cast<double>(g.members.size());
    if (opt.periodic) g.center = wrap_periodic(g.center, box);
    groups.push_back(std::move(g));
  }
  return groups;
}

/// Groups keyed by their first member, so two finders compare regardless of
/// how they order groups of equal size.
std::map<std::uint32_t, const FofGroup*> by_first_member(
    const std::vector<FofGroup>& groups) {
  std::map<std::uint32_t, const FofGroup*> out;
  for (const FofGroup& g : groups) out[g.members.front()] = &g;
  return out;
}

/// Sets the calling thread's team size for one scope, then restores it.
class TeamSize {
 public:
  explicit TeamSize(int n) : saved_(default_team_size()) { set_team_size(n); }
  ~TeamSize() { set_team_size(saved_); }
  TeamSize(const TeamSize&) = delete;
  TeamSize& operator=(const TeamSize&) = delete;

 private:
  int saved_;
};

constexpr int kTeamSizes[] = {1, 2, 4};

/// find_fof_groups must return exactly the oracle's groups, on teams of 1, 2
/// and 4 threads: identical member lists and bitwise-equal centers, sorted
/// by descending size.
void expect_matches_oracle(const ParticleSet& set, const FofOptions& opt) {
  const auto want = brute_force_fof(set, opt);
  const auto want_map = by_first_member(want);
  for (const int team : kTeamSizes) {
    SCOPED_TRACE(testing::Message() << "team of " << team);
    const TeamSize scope(team);
    const auto got = find_fof_groups(set, opt);
    for (std::size_t g = 1; g < got.size(); ++g)
      EXPECT_GE(got[g - 1].size(), got[g].size());
    ASSERT_EQ(got.size(), want.size());
    const auto got_map = by_first_member(got);
    ASSERT_EQ(got_map.size(), got.size());
    for (const auto& [first, w] : want_map) {
      const auto it = got_map.find(first);
      ASSERT_NE(it, got_map.end()) << "no group starts at particle " << first;
      const FofGroup& g = *it->second;
      EXPECT_EQ(g.members, w->members) << "group of particle " << first;
      EXPECT_EQ(std::memcmp(&g.center, &w->center, sizeof(Vec3)), 0)
          << "center of the group of particle " << first;
    }
  }
}

/// FNV-1a over the groups in order: sizes, `%a` centers and members.
std::uint64_t groups_hash(const std::vector<FofGroup>& groups) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu groups\n", groups.size());
  mix(buf);
  for (const FofGroup& g : groups) {
    std::snprintf(buf, sizeof buf, "%zu: %a %a %a\n", g.size(), g.center.x,
                  g.center.y, g.center.z);
    mix(buf);
    for (const std::uint32_t m : g.members) mix(std::to_string(m) + " ");
  }
  return h;
}

TEST(Fof, GroupsDoNotDependOnTheTeamSize) {
  // Group order (ties in size included), members and center bits, hashed.
  // The pins were recorded from the serial finder the team version
  // replaced; the second case keeps all 24243 sets, singletons included.
  HaloModelOptions hopt;
  hopt.n_particles = 120000;
  hopt.box_length = 64.0;
  hopt.n_halos = 64;
  hopt.seed = 31;
  const auto set = generate_halo_model(hopt);
  FofOptions every_set;
  every_set.min_group_size = 1;
  every_set.periodic = false;
  const struct {
    FofOptions opt;
    std::size_t groups;
    std::uint64_t hash;
  } cases[] = {{FofOptions{}, 64, 0x0f1eb760ecb058aaull},
               {every_set, 24243, 0x3e6af9cf6d4d6b64ull}};
  for (const auto& c : cases)
    for (const int team : kTeamSizes) {
      SCOPED_TRACE(testing::Message()
                   << "min " << c.opt.min_group_size << ", team of " << team);
      const TeamSize scope(team);
      const auto groups = find_fof_groups(set, c.opt);
      EXPECT_EQ(groups.size(), c.groups);
      EXPECT_EQ(groups_hash(groups), c.hash);
    }
}

TEST(FofOracle, HaloModelBoxPeriodicAndOpen) {
  HaloModelOptions hopt;
  hopt.n_particles = 3000;
  hopt.box_length = 20.0;
  hopt.n_halos = 12;
  hopt.seed = 5;
  const auto set = generate_halo_model(hopt);
  for (const bool periodic : {true, false}) {
    SCOPED_TRACE(periodic ? "periodic" : "open");
    FofOptions opt;
    opt.periodic = periodic;
    opt.min_group_size = 1;
    expect_matches_oracle(set, opt);
    opt.min_group_size = 8;
    expect_matches_oracle(set, opt);
  }
}

TEST(FofOracle, ZeldovichBox) {
  ZeldovichOptions zopt;
  zopt.grid = 16;
  zopt.box_length = 32.0;
  zopt.growth = 3.0;
  zopt.seed = 9;
  const auto set = generate_zeldovich(zopt);
  FofOptions opt;
  opt.min_group_size = 2;
  expect_matches_oracle(set, opt);
}

TEST(FofOracle, CornerStraddlingBlob) {
  Rng rng(17);
  ParticleSet set;
  set.box_length = 10.0;
  for (int i = 0; i < 600; ++i)
    set.positions.push_back(wrap_periodic(
        Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.3, 10.0));
  for (int i = 0; i < 400; ++i)
    set.positions.push_back(
        {rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
  for (const bool periodic : {true, false}) {
    SCOPED_TRACE(periodic ? "periodic" : "open");
    FofOptions opt;
    opt.periodic = periodic;
    opt.min_group_size = 1;
    expect_matches_oracle(set, opt);
  }
}

TEST(FofOracle, OneAndTwoCellsPerAxisAliasTheStencil) {
  // 27 particles: the mean spacing is box/3, so b = 2.5 gives one cell per
  // axis and b = 1.2 two; every wrapped stencil offset lands on a cell
  // already visited.
  Rng rng(19);
  ParticleSet set;
  set.box_length = 6.0;
  for (int i = 0; i < 27; ++i)
    set.positions.push_back(
        {rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)});
  for (const double b : {2.5, 1.2, 0.6})
    for (const bool periodic : {true, false}) {
      SCOPED_TRACE(testing::Message() << "b " << b
                                      << (periodic ? " periodic" : " open"));
      FofOptions opt;
      opt.linking_parameter = b;
      opt.periodic = periodic;
      opt.min_group_size = 1;
      expect_matches_oracle(set, opt);
    }
}

TEST(FofOracle, TinyLinkingLengthNeedsNoDenseGrid) {
  // b = 0.01 on 4096 points: about 1600 cells per axis, 4e9 in all. Pairs
  // are planted at 0.5 and 1.5 linking lengths, so groups of two form.
  Rng rng(23);
  ParticleSet set;
  set.box_length = 16.0;
  const double link = 0.01 * 16.0 / 16.0;  // b × box / cbrt(4096)
  for (int i = 0; i < 2048; ++i) {
    const Vec3 p{rng.uniform(0, 16), rng.uniform(0, 16), rng.uniform(0, 16)};
    const double sep = (i % 2 == 0 ? 0.5 : 1.5) * link;
    set.positions.push_back(p);
    set.positions.push_back(wrap_periodic(p + Vec3{sep, 0, 0}, 16.0));
  }
  FofOptions opt;
  opt.linking_parameter = 0.01;
  opt.min_group_size = 2;
  const auto groups = find_fof_groups(set, opt);
  EXPECT_EQ(groups.size(), 1024u);
  expect_matches_oracle(set, opt);
}

TEST(FofOracle, DenseCoreContendsForOneRoot) {
  // 1200 particles inside one linking cell, 1200 more in a blob about it
  // and 1600 in the background: the core's cell and its neighbours, in
  // different chunks, all link into one set at once.
  Rng rng(37);
  ParticleSet set;
  set.box_length = 10.0;
  const std::size_t n = 4000;
  // Cells per axis: box / (b × box / cbrt(n)), rounded down.
  const double cell = 10.0 / std::floor(std::cbrt(double(n)) / 0.2);
  const Vec3 corner = Vec3{std::floor(4.7 / cell), std::floor(4.1 / cell),
                           std::floor(4.3 / cell)} *
                      cell;
  for (int i = 0; i < 1200; ++i)
    set.positions.push_back(corner + Vec3{rng.uniform(0.05, 0.95),
                                          rng.uniform(0.05, 0.95),
                                          rng.uniform(0.05, 0.95)} *
                                         cell);
  for (int i = 0; i < 1200; ++i)
    set.positions.push_back(
        corner + Vec3{0.5, 0.5, 0.5} * cell +
        Vec3{rng.normal(), rng.normal(), rng.normal()} * (1.5 * cell));
  while (set.positions.size() < n)
    set.positions.push_back(
        {rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
  std::size_t in_core = 0;
  for (const Vec3& p : set.positions)
    in_core += std::floor(p.x / cell) == std::floor(corner.x / cell) &&
               std::floor(p.y / cell) == std::floor(corner.y / cell) &&
               std::floor(p.z / cell) == std::floor(corner.z / cell);
  ASSERT_GE(in_core, 1000u);
  for (const bool periodic : {true, false}) {
    SCOPED_TRACE(periodic ? "periodic" : "open");
    FofOptions opt;
    opt.periodic = periodic;
    opt.min_group_size = 1;
    expect_matches_oracle(set, opt);
  }
}

TEST(Fof, PairAtExactlyTheLinkingLengthLinks) {
  // Eight particles: one pair exactly one linking length apart along x,
  // and a third particle just beyond it.
  ParticleSet set;
  set.box_length = 10.0;
  const double link = 0.2 * (10.0 / std::cbrt(8.0));
  set.positions = {{0, 5, 5}, {link, 5, 5}, {7, 5, 5},
                   {7, 5, 5 + 1.0001 * link}, {2, 2, 2}, {8, 8, 8},
                   {2, 8, 2}, {8, 2, 8}};
  for (const bool periodic : {true, false}) {
    FofOptions opt;
    opt.periodic = periodic;
    opt.min_group_size = 2;
    const auto groups = find_fof_groups(set, opt);
    ASSERT_EQ(groups.size(), 1u) << (periodic ? "periodic" : "open");
    EXPECT_EQ(groups[0].members, (std::vector<std::uint32_t>{0, 1}));
  }
}

TEST(Fof, RejectsUnusableLinkingParameterAndBox) {
  const auto set = generate_uniform(100, 10.0, 3);
  for (const double b : {0.0, -0.2, std::nan(""), HUGE_VAL}) {
    FofOptions opt;
    opt.linking_parameter = b;
    EXPECT_THROW(find_fof_groups(set, opt), Error) << "b " << b;
  }
  for (const double box : {0.0, -10.0, std::nan(""), HUGE_VAL}) {
    ParticleSet bad = set;
    bad.box_length = box;
    EXPECT_THROW(find_fof_groups(bad), Error) << "box " << box;
  }
}

TEST(Fof, NonFinitePositionsAreSingletons) {
  // A NaN and an infinity inside a tight blob link to nothing; the blob's
  // group is what it would be without them.
  Rng rng(29);
  ParticleSet set;
  set.box_length = 20.0;
  for (int i = 0; i < 200; ++i)
    set.positions.push_back(
        Vec3{10, 10, 10} + Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.2);
  set.positions[50] = {std::nan(""), 10.0, 10.0};
  set.positions[120] = {10.0, HUGE_VAL, 10.0};
  for (const bool periodic : {true, false}) {
    SCOPED_TRACE(periodic ? "periodic" : "open");
    FofOptions opt;
    opt.periodic = periodic;
    opt.min_group_size = 1;
    const auto groups = find_fof_groups(set, opt);
    const auto by_first = by_first_member(groups);
    for (const std::uint32_t bad : {50u, 120u}) {
      ASSERT_EQ(by_first.count(bad), 1u);
      EXPECT_EQ(by_first.at(bad)->members,
                std::vector<std::uint32_t>{bad});
    }
    opt.min_group_size = 2;
    expect_matches_oracle(set, opt);
    const auto blob = find_fof_groups(set, opt);
    ASSERT_EQ(blob.size(), 1u);
    EXPECT_EQ(blob[0].size(), 198u);
  }
}

TEST(SnapshotIo, RoundTripWithBlocks) {
  auto set = generate_uniform(3000, 64.0, 21);
  set.particle_mass = 2.25;
  const std::string path = "/tmp/pdtfe_test_snapshot.bin";
  write_snapshot(path, set, 2);

  const auto header = read_snapshot_header(path);
  EXPECT_EQ(header.n_particles, 3000u);
  EXPECT_EQ(header.blocks.size(), 8u);
  EXPECT_DOUBLE_EQ(header.box_length, 64.0);
  EXPECT_DOUBLE_EQ(header.particle_mass, 2.25);

  // Blocks partition the particles and respect their sub-volume bounds.
  std::size_t total = 0;
  for (std::size_t b = 0; b < header.blocks.size(); ++b) {
    const auto pts = read_snapshot_block(path, header, b);
    EXPECT_EQ(pts.size(), header.blocks[b].count);
    total += pts.size();
    for (const Vec3& p : pts) {
      EXPECT_GE(p.x, header.blocks[b].sub_lo.x);
      EXPECT_LE(p.x, header.blocks[b].sub_hi.x);
      EXPECT_GE(p.z, header.blocks[b].sub_lo.z);
      EXPECT_LE(p.z, header.blocks[b].sub_hi.z);
    }
  }
  EXPECT_EQ(total, 3000u);

  // Full read recovers the multiset of positions.
  const auto back = read_snapshot(path);
  EXPECT_EQ(back.size(), set.size());
  double sum_orig = 0.0, sum_back = 0.0;
  for (const Vec3& p : set.positions) sum_orig += p.x + p.y + p.z;
  for (const Vec3& p : back.positions) sum_back += p.x + p.y + p.z;
  EXPECT_NEAR(sum_orig, sum_back, 1e-9);
  std::remove(path.c_str());
}

TEST(Particles, PeriodicHelpers) {
  EXPECT_DOUBLE_EQ(wrap_periodic(-1.0, 10.0), 9.0);
  EXPECT_DOUBLE_EQ(wrap_periodic(11.5, 10.0), 1.5);
  EXPECT_DOUBLE_EQ(wrap_periodic(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(min_image(9.0, 10.0), -1.0);
  EXPECT_DOUBLE_EQ(min_image(-7.0, 10.0), 3.0);
  EXPECT_NEAR(periodic_dist2({0.5, 0, 0}, {9.5, 0, 0}, 10.0), 1.0, 1e-12);
}

TEST(Particles, ExtractCubeUnwrapsImages) {
  ParticleSet set;
  set.box_length = 10.0;
  set.positions = {{0.5, 5, 5}, {9.8, 5, 5}, {5, 5, 5}};
  const auto cube = extract_cube(set, {0.0, 5.0, 5.0}, 2.0);
  ASSERT_EQ(cube.size(), 2u);
  // The particle at x=9.8 appears unwrapped at x=-0.2.
  bool found = false;
  for (const Vec3& p : cube)
    if (std::abs(p.x + 0.2) < 1e-12) found = true;
  EXPECT_TRUE(found);
}

TEST(Particles, PeriodicPadAddsImages) {
  ParticleSet set;
  set.box_length = 10.0;
  set.positions = {{0.5, 5, 5}, {5, 5, 5}, {9.5, 9.5, 9.5}};
  const auto padded = with_periodic_pad(set, 1.0);
  // originals present
  EXPECT_GE(padded.size(), 3u);
  // image of the first particle at x=10.5
  bool right = false, corner = false;
  for (const Vec3& p : padded) {
    if (std::abs(p.x - 10.5) < 1e-12 && std::abs(p.y - 5) < 1e-12) right = true;
    if (std::abs(p.x + 0.5) < 1e-12 && std::abs(p.y + 0.5) < 1e-12 &&
        std::abs(p.z + 0.5) < 1e-12)
      corner = true;
  }
  EXPECT_TRUE(right);
  EXPECT_TRUE(corner);  // the (9.5,9.5,9.5) particle's 3-axis image
  // the centered particle contributes no images
  std::size_t center_count = 0;
  for (const Vec3& p : padded)
    if (std::abs(p.x - 5) < 1e-12 && std::abs(p.y - 5) < 1e-12 &&
        std::abs(p.z - 5) < 1e-12)
      ++center_count;
  EXPECT_EQ(center_count, 1u);
}

TEST(Particles, PeriodicPadFixesFullBoxMassRecovery) {
  // Full-box surface density from padded points recovers the total mass
  // (the unpadded hull loses boundary contributions).
  const auto set = generate_uniform(4000, 10.0, 51);
  const auto padded = with_periodic_pad(set, 1.0);
  EXPECT_GT(padded.size(), set.size());
}

}  // namespace
}  // namespace dtfe
