#include "nbody/fof.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"

namespace dtfe {

namespace {

/// Union-find with path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::uint32_t> parent_;
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
  auto cell_of = [&](const Vec3& p) {
    // Clamped before the cast: out-of-box positions land in an edge cell.
    auto c = [&](double v) {
      return static_cast<std::uint64_t>(std::clamp(
          v * inv_cell, 0.0, static_cast<double>(cells_per_dim - 1)));
    };
    return pack_cell(c(p.x), c(p.y), c(p.z));
  };

  struct Entry {
    std::uint64_t key;
    std::uint32_t index;
  };
  std::vector<Entry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    // A non-finite position is within link2 of nothing: it stays out of the
    // cells and ends up a singleton.
    if (finite3(set.positions[i]))
      entries.push_back({cell_of(set.positions[i]),
                         static_cast<std::uint32_t>(i)});
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key < b.key : a.index < b.index;
            });

  // Occupied cells: cell k's particles are order[cell_start[k] ..
  // cell_start[k+1]).
  std::vector<std::uint64_t> cell_keys;
  std::vector<std::uint32_t> cell_start;
  std::vector<std::uint32_t> order(entries.size());
  for (std::size_t s = 0; s < entries.size(); ++s) {
    if (cell_keys.empty() || cell_keys.back() != entries[s].key) {
      cell_keys.push_back(entries[s].key);
      cell_start.push_back(static_cast<std::uint32_t>(s));
    }
    order[s] = entries[s].index;
  }
  cell_start.push_back(static_cast<std::uint32_t>(entries.size()));
  entries = {};

  UnionFind uf(n);
  auto d2 = [&](std::uint32_t a, std::uint32_t b) {
    return opt.periodic
               ? periodic_dist2(set.positions[a], set.positions[b], box)
               : (set.positions[a] - set.positions[b]).norm2();
  };

  // Neighbor cells are found with one cursor per stencil offset. Home cells
  // come in ascending key order, so each offset's neighbor keys ascend too
  // and its cursor only moves forward, except where the periodic wrap jumps
  // back; a binary search restarts it there.
  const std::size_t ncells = cell_keys.size();
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
  std::size_t cursors[14] = {};

  const auto cpd = static_cast<std::int64_t>(cells_per_dim);
  auto wrap = [cpd](std::int64_t v) {  // v in [-1, cpd]
    return v < 0 ? v + cpd : (v >= cpd ? v - cpd : v);
  };
  for (std::size_t c = 0; c < ncells; ++c) {
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
      for (std::uint32_t i = cell_start[c]; i < cell_start[c + 1]; ++i)
        for (std::uint32_t j = same ? i + 1 : cell_start[nc];
             j < cell_start[nc + 1]; ++j) {
          const std::uint32_t a = order[i], b = order[j];
          // Inside a halo most pairs are already joined: skip their test.
          if (uf.find(a) != uf.find(b) && d2(a, b) <= link2)
            uf.unite(a, b);
        }
    }
  }

  // Gather groups.
  std::vector<std::vector<std::uint32_t>> members_by_root;
  std::vector<std::int32_t> root_slot(n, -1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = uf.find(i);
    if (root_slot[r] < 0) {
      root_slot[r] = static_cast<std::int32_t>(members_by_root.size());
      members_by_root.emplace_back();
    }
    members_by_root[static_cast<std::size_t>(root_slot[r])].push_back(i);
  }

  std::vector<FofGroup> groups;
  for (auto& m : members_by_root) {
    if (m.size() < opt.min_group_size) continue;
    FofGroup g;
    g.members = std::move(m);
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
    groups.push_back(std::move(g));
  }
  std::sort(groups.begin(), groups.end(),
            [](const FofGroup& a, const FofGroup& b) {
              return a.size() > b.size();
            });
  return groups;
}

}  // namespace dtfe
