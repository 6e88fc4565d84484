#include "nbody/fof.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace dtfe {

namespace {

/// Union-find over a parent array shared by the team. Links and path
/// halving are compare-and-swaps on std::atomic_ref. A link hangs the larger
/// root under the smaller and halving moves a parent to that parent's
/// parent, so parents only ever decrease: each set's root is its smallest
/// member, whatever order the team's unions land in. Relaxed order is
/// enough: a stale parent is only a longer path, and a link succeeds only
/// on a current root.
class UnionFind {
 public:
  explicit UnionFind(std::vector<std::uint32_t>& parent)
      : parent_(parent.data()) {}
  std::uint32_t find(std::uint32_t x) const {
    for (;;) {
      std::uint32_t p = at(x).load(std::memory_order_relaxed);
      if (p == x) return x;
      const std::uint32_t g = at(p).load(std::memory_order_relaxed);
      if (g != p)  // path halving; losing the race leaves a longer path
        at(x).compare_exchange_weak(p, g, std::memory_order_relaxed);
      x = g;
    }
  }
  /// Join the sets of a and b; returns the joined set's root as of the link.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) const {
    for (;;) {
      a = find(a);
      b = find(b);
      if (a == b) return a;
      if (a > b) std::swap(a, b);
      std::uint32_t root = b;
      if (at(b).compare_exchange_strong(root, a, std::memory_order_relaxed))
        return a;  // else b was linked meanwhile: retry from its new root
    }
  }

 private:
  std::atomic_ref<std::uint32_t> at(std::uint32_t i) const {
    return std::atomic_ref<std::uint32_t>(parent_[i]);
  }
  std::uint32_t* parent_;
};

bool finite3(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

/// Cell coordinates are packed (z, y, x) into one 64-bit key, so ascending
/// keys walk the cells in the same z-major order as a dense grid would.
constexpr unsigned kAxisBits = 21;
constexpr std::uint64_t kAxisMask = (std::uint64_t{1} << kAxisBits) - 1;

std::uint64_t pack_cell(std::uint64_t x, std::uint64_t y, std::uint64_t z) {
  return (z << (2 * kAxisBits)) | (y << kAxisBits) | x;
}

/// Work split. None of these enters the result: the sort's order is total
/// and the union-find's roots are set minima.
constexpr std::size_t kParticleChunks = 64;  ///< hashing passes
constexpr std::size_t kSlabs = 64;           ///< z slabs, sorted one a task
constexpr std::size_t kPairChunks = 256;     ///< home-cell chunks

}  // namespace

std::vector<FofGroup> find_fof_groups(const ParticleSet& set,
                                      const FofOptions& opt) {
  const double box = set.box_length;
  DTFE_CHECK_MSG(std::isfinite(box) && box > 0.0,
                 "find_fof_groups: box length " << box << " is not usable");
  DTFE_CHECK_MSG(
      std::isfinite(opt.linking_parameter) && opt.linking_parameter > 0.0,
      "find_fof_groups: linking parameter " << opt.linking_parameter
                                            << " is not usable");
  const std::size_t n = set.size();
  if (n == 0) return {};
  const double mean_spacing = box / std::cbrt(static_cast<double>(n));
  const double link = opt.linking_parameter * mean_spacing;
  const double link2 = link * link;

  // Hash particles into cells of side >= the linking length; only same-cell
  // and forward-neighbor cells need pair checks. Only occupied cells are
  // stored: (key, particle) entries sorted by key, so memory is O(n) however
  // fine the cells get.
  const auto cells_per_dim = static_cast<std::uint64_t>(std::clamp(
      box / link, 1.0, static_cast<double>(std::uint64_t{1} << kAxisBits)));
  const double inv_cell = static_cast<double>(cells_per_dim) / box;
  // Clamped before the cast: out-of-box positions land in an edge cell.
  auto axis_cell = [&](double v) {
    return static_cast<std::uint64_t>(std::clamp(
        v * inv_cell, 0.0, static_cast<double>(cells_per_dim - 1)));
  };

  // The entries are written straight into z slabs (contiguous ranges of
  // z cells, so of keys) and each slab is sorted on its own: a counting
  // pass, then a filling pass, each over fixed particle chunks. A
  // non-finite position is within link2 of nothing: it stays out of the
  // cells and ends up a singleton.
  struct Entry {
    std::uint64_t key;
    std::uint32_t index;
  };
  const std::size_t slabs =
      static_cast<std::size_t>(std::min<std::uint64_t>(cells_per_dim, kSlabs));
  auto slab_of = [&](std::uint64_t z) {
    return static_cast<std::size_t>(z * slabs / cells_per_dim);
  };
  const std::size_t pchunk = (n + kParticleChunks - 1) / kParticleChunks;
  const std::size_t pchunks = (n + pchunk - 1) / pchunk;
  // next[k * slabs + s]: chunk k's slab-s count, then where chunk k writes
  // its next slab-s entry.
  std::vector<std::uint32_t> next(pchunks * slabs, 0);
  parallel_rows(pchunks, [&](std::size_t k) {
    for (std::size_t i = k * pchunk; i < std::min(n, (k + 1) * pchunk); ++i)
      if (finite3(set.positions[i]))
        ++next[k * slabs + slab_of(axis_cell(set.positions[i].z))];
  });
  std::vector<std::uint32_t> slab_start(slabs + 1, 0);
  std::uint32_t filled = 0;
  for (std::size_t s = 0; s < slabs; ++s) {
    slab_start[s] = filled;
    for (std::size_t k = 0; k < pchunks; ++k)
      filled += std::exchange(next[k * slabs + s], filled);
  }
  slab_start[slabs] = filled;
  std::vector<Entry> entries(filled);
  parallel_rows(pchunks, [&](std::size_t k) {
    for (std::size_t i = k * pchunk; i < std::min(n, (k + 1) * pchunk); ++i) {
      const Vec3& p = set.positions[i];
      if (!finite3(p)) continue;
      const std::uint64_t z = axis_cell(p.z);
      entries[next[k * slabs + slab_of(z)]++] = {
          pack_cell(axis_cell(p.x), axis_cell(p.y), z),
          static_cast<std::uint32_t>(i)};
    }
  });
  next = {};

  // Occupied cells: cell k's particles are order[cell_start[k] ..
  // cell_start[k+1]). No cell straddles two slabs, so each slab, once
  // sorted, counts and later writes its own cells.
  auto new_cell = [&](std::uint32_t e, std::size_t s) {
    return e == slab_start[s] || entries[e].key != entries[e - 1].key;
  };
  std::vector<std::uint32_t> slab_cells(slabs + 1, 0);
  parallel_tasks(slabs, [&](std::size_t s) {
    std::sort(entries.begin() + slab_start[s],
              entries.begin() + slab_start[s + 1],
              [](const Entry& a, const Entry& b) {
                return a.key != b.key ? a.key < b.key : a.index < b.index;
              });
    std::uint32_t cells = 0;
    for (std::uint32_t e = slab_start[s]; e < slab_start[s + 1]; ++e)
      cells += new_cell(e, s);
    slab_cells[s] = cells;
  });
  std::exclusive_scan(slab_cells.begin(), slab_cells.end(), slab_cells.begin(),
                      std::uint32_t{0});
  const std::size_t ncells = slab_cells[slabs];
  std::vector<std::uint64_t> cell_keys(ncells);
  std::vector<std::uint32_t> cell_start(ncells + 1);
  std::vector<std::uint32_t> order(entries.size());
  parallel_rows(slabs, [&](std::size_t s) {
    std::uint32_t c = slab_cells[s];
    for (std::uint32_t e = slab_start[s]; e < slab_start[s + 1]; ++e) {
      if (new_cell(e, s)) {
        cell_keys[c] = entries[e].key;
        cell_start[c++] = e;
      }
      order[e] = entries[e].index;
    }
  });
  cell_start[ncells] = static_cast<std::uint32_t>(entries.size());
  entries = {};

  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::uint32_t{0});
  const UnionFind uf(parent);
  auto d2 = [&](std::uint32_t a, std::uint32_t b) {
    return opt.periodic
               ? periodic_dist2(set.positions[a], set.positions[b], box)
               : (set.positions[a] - set.positions[b]).norm2();
  };

  // Neighbor cells are found with one cursor per stencil offset. Home cells
  // come in ascending key order, so each offset's neighbor keys ascend too
  // and its cursor only moves forward, except where the periodic wrap jumps
  // back; a binary search restarts it there. A cursor parked at ncells
  // restarts with a binary search over all cells.
  auto find_cell = [&](std::size_t& cursor, std::uint64_t key) {
    if (cursor > 0 && cell_keys[cursor - 1] >= key)
      cursor = static_cast<std::size_t>(
          std::lower_bound(cell_keys.data(), cell_keys.data() + cursor, key) -
          cell_keys.data());
    while (cursor < ncells && cell_keys[cursor] < key) ++cursor;
    return cursor < ncells && cell_keys[cursor] == key;
  };
  // Half the 26-neighborhood (plus self) to visit each pair once.
  static constexpr int off[14][3] = {
      {0, 0, 0},  {1, 0, 0},  {-1, 1, 0}, {0, 1, 0},  {1, 1, 0},
      {-1, -1, 1}, {0, -1, 1}, {1, -1, 1}, {-1, 0, 1}, {0, 0, 1},
      {1, 0, 1},  {-1, 1, 1}, {0, 1, 1},  {1, 1, 1}};

  const auto cpd = static_cast<std::int64_t>(cells_per_dim);
  auto wrap = [cpd](std::int64_t v) {  // v in [-1, cpd]
    return v < 0 ? v + cpd : (v >= cpd ? v - cpd : v);
  };
  // The home cells split into chunks taken dynamically by the team; each
  // chunk starts its cursors afresh.
  const std::size_t cchunk =
      std::max<std::size_t>(1, (ncells + kPairChunks - 1) / kPairChunks);
  parallel_tasks((ncells + cchunk - 1) / cchunk, [&](std::size_t t) {
    std::size_t cursors[14];
    std::fill(std::begin(cursors), std::end(cursors), ncells);
    for (std::size_t c = t * cchunk; c < std::min(ncells, (t + 1) * cchunk);
         ++c) {
      const std::uint64_t key = cell_keys[c];
      const auto cx = static_cast<std::int64_t>(key & kAxisMask);
      const auto cy = static_cast<std::int64_t>((key >> kAxisBits) & kAxisMask);
      const auto cz = static_cast<std::int64_t>(key >> (2 * kAxisBits));
      for (std::size_t k = 0; k < 14; ++k) {
        const int* o = off[k];
        std::int64_t nx = cx + o[0], ny = cy + o[1], nz = cz + o[2];
        if (opt.periodic) {
          nx = wrap(nx);
          ny = wrap(ny);
          nz = wrap(nz);
        } else if (nx < 0 || ny < 0 || nz < 0 || nx >= cpd || ny >= cpd ||
                   nz >= cpd) {
          continue;
        }
        const std::uint64_t nkey =
            pack_cell(static_cast<std::uint64_t>(nx),
                      static_cast<std::uint64_t>(ny),
                      static_cast<std::uint64_t>(nz));
        if (!find_cell(cursors[k], nkey)) continue;  // empty cell
        const std::size_t nc = cursors[k];
        const bool same = nc == c;
        for (std::uint32_t i = cell_start[c]; i < cell_start[c + 1]; ++i) {
          // a's root is found once per neighbor cell. Another thread may
          // link it under a smaller one meanwhile; a stale root still
          // belongs to a's set, so it only costs an extra distance test.
          const std::uint32_t a = order[i];
          std::uint32_t ra = uf.find(a);
          for (std::uint32_t j = same ? i + 1 : cell_start[nc];
               j < cell_start[nc + 1]; ++j) {
            const std::uint32_t b = order[j], rb = uf.find(b);
            // Inside a halo most pairs are already joined: skip their test.
            if (ra != rb && d2(a, b) <= link2) ra = uf.unite(ra, rb);
          }
        }
      }
    }
  });
  order = {};
  cell_keys = {};
  cell_start = {};

  // Gather groups. Parents point down, so one ascending pass leaves every
  // particle pointing at its root, its set's smallest member. Sets are
  // counted first and only those of min_group_size or more get a vector,
  // in ascending root order.
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = parent[parent[i]];
  std::vector<std::uint32_t> slot(n, 0);  // set sizes, then group slots
  for (std::uint32_t i = 0; i < n; ++i) ++slot[parent[i]];
  constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};
  std::vector<FofGroup> groups;
  for (std::uint32_t r = 0; r < n; ++r) {
    if (parent[r] != r || slot[r] < opt.min_group_size) {
      slot[r] = kNoGroup;
      continue;
    }
    groups.emplace_back().members.reserve(slot[r]);
    slot[r] = static_cast<std::uint32_t>(groups.size() - 1);
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (slot[parent[i]] != kNoGroup)
      groups[slot[parent[i]]].members.push_back(i);

  parallel_rows(groups.size(), [&](std::size_t k) {
    FofGroup& g = groups[k];
    // Center of mass with minimum-image unwrapping around the first member.
    const Vec3 ref = set.positions[g.members.front()];
    Vec3 acc{0, 0, 0};
    for (const std::uint32_t i : g.members)
      acc += opt.periodic ? min_image(set.positions[i] - ref, box)
                          : (set.positions[i] - ref);
    g.center = ref + acc / static_cast<double>(g.members.size());
    // A non-finite singleton's center is non-finite too; wrapping it would
    // cast a NaN to an integer.
    if (opt.periodic && finite3(ref)) g.center = wrap_periodic(g.center, box);
  });
  std::sort(groups.begin(), groups.end(),
            [](const FofGroup& a, const FofGroup& b) {
              return a.size() > b.size();
            });
  return groups;
}

}  // namespace dtfe
