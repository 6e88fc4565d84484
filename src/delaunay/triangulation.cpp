#include "delaunay/triangulation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "geometry/aabb.h"
#include "geometry/predicates.h"
#include "geometry/tetra_math.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/morton.h"

namespace dtfe {

namespace {

struct DelaunayMetrics {
  obs::MetricId constructions = obs::counter("dtfe.delaunay.constructions");
  obs::MetricId points_inserted = obs::counter("dtfe.delaunay.points_inserted");
  obs::MetricId duplicates = obs::counter("dtfe.delaunay.duplicate_points");
  obs::MetricId cells_created = obs::counter("dtfe.delaunay.cells_created");
  obs::MetricId conflict_cells = obs::counter("dtfe.delaunay.conflict_cells");
  obs::MetricId walk_steps = obs::counter("dtfe.delaunay.walk_steps");
  obs::MetricId locates = obs::counter("dtfe.delaunay.locates");
};

const DelaunayMetrics& delaunay_metrics() {
  static const DelaunayMetrics m;
  return m;
}

// Exact 3D collinearity: all three coordinate-plane projections collinear.
bool collinear_exact(const Vec3& a, const Vec3& b, const Vec3& c) {
  return orient2d({a.x, a.y}, {b.x, b.y}, {c.x, c.y}) == 0.0 &&
         orient2d({a.x, a.z}, {b.x, b.z}, {c.x, c.z}) == 0.0 &&
         orient2d({a.y, a.z}, {b.y, b.z}, {c.y, c.z}) == 0.0;
}

std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

bool lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

// Symbolically perturbed insphere conflict (Devillers–Teillaud, the scheme
// CGAL's Delaunay_triangulation_3 uses): when q is exactly on the
// circumsphere of the positively oriented cell (p0..p3), each point's lifted
// coordinate is perturbed by an infinitesimal ε whose magnitude decreases
// with the point's lexicographic (x,y,z) rank. The sign of the perturbed
// determinant is the first nonzero cofactor — an orient3d with the
// top-ranked point's row replaced by q. If the top-ranked point is q itself,
// q is pushed outside: no conflict. This makes every cavity well-defined and
// star-shaped for arbitrarily degenerate inputs.
bool insphere_conflict_perturbed(const Vec3& p0, const Vec3& p1,
                                 const Vec3& p2, const Vec3& p3,
                                 const Vec3& q) {
  const double s = insphere(p0, p1, p2, p3, q);
  if (s != 0.0) return s > 0.0;
  const Vec3* pts[5] = {&p0, &p1, &p2, &p3, &q};
  std::sort(pts, pts + 5,
            [](const Vec3* a, const Vec3* b) { return lex_less(*a, *b); });
  for (int i = 4; i >= 0; --i) {
    const Vec3* top = pts[i];
    if (top == &q) return false;
    double o;
    if (top == &p3)
      o = orient3d(p0, p1, p2, q);
    else if (top == &p2)
      o = orient3d(p0, p1, q, p3);
    else if (top == &p1)
      o = orient3d(p0, q, p2, p3);
    else
      o = orient3d(q, p1, p2, p3);
    if (o != 0.0) return o > 0.0;
  }
  return false;  // unreachable: a valid cell is not coplanar
}

// Unordered pair of vertex ids as a hashable 64-bit key (ids fit in 32 bits
// even with the -1 infinite sentinel, via a +2 bias).
std::uint64_t edge_key(VertexId u, VertexId v) {
  const auto a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::min(u, v) + 2));
  const auto b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::max(u, v) + 2));
  return (a << 32) | b;
}

/// Boundary facet of the conflict cavity, already reversed to face it.
struct BoundaryFacet {
  VertexId a, b, d;  // new cell base
  CellId outside;    // surviving neighbor
  int outside_slot;  // slot in `outside` that pointed at the dead cell
};

/// Open cavity edge awaiting its partner during retriangulation.
struct CavityEdge {
  std::uint64_t key;  // unordered vertex pair
  CellId cell;
  std::int32_t slot;
};

}  // namespace

struct Triangulation::InsertState {
  CellId hint = kNoCell;  ///< walk start: the last insert's first new cell
  std::uint64_t walk_rng = 0x9e3779b97f4a7c15ull;  ///< one sequence per build
  std::vector<CellId> conflict;         // conflict-BFS queue
  std::vector<std::int8_t> mark;        // 0 unknown, 1 conflict, 2 boundary-safe
  std::vector<CellId> visited;          // every marked id, for cleanup
  std::vector<BoundaryFacet> boundary;  // cavity surface of the current insert
  std::vector<CavityEdge> edges;        // open edges during retriangulation
  std::array<std::size_t, 7> capacity{};  // at the previous growth() call

  /// Containers whose capacity changed since the previous call (a vector
  /// only reallocates to grow): one insert's alloc_events() increment.
  std::size_t growth(const std::vector<Cell>& cells,
                     const std::vector<CellId>& free_list) {
    const std::array<std::size_t, 7> now = {
        cells.capacity(),    free_list.capacity(), mark.capacity(),
        conflict.capacity(), visited.capacity(),   boundary.capacity(),
        edges.capacity()};
    std::size_t changed = 0;
    for (std::size_t i = 0; i < now.size(); ++i) changed += now[i] != capacity[i];
    capacity = now;
    return changed;
  }
};

Triangulation::Triangulation(std::span<const Vec3> points, Options opt)
    : points_(points.begin(), points.end()) {
  obs::TraceSpan span("delaunay.triangulate", "delaunay");
  const std::size_t n = points_.size();
  span.add_arg("points", static_cast<double>(n));
  DTFE_CHECK_MSG(n >= 4, "Delaunay triangulation needs at least 4 points");
  duplicate_of_.resize(n);
  std::iota(duplicate_of_.begin(), duplicate_of_.end(), VertexId{0});
  incident_cell_.assign(n, kNoCell);

  // Insertion order: Morton over the bounding box (BRIO-style locality).
  // Sorting packed (key, index) pairs keeps the comparator cache-local; the
  // index tie-break makes a plain std::sort reproduce the stable order
  // bit-for-bit, so the insertion sequence is unchanged.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  if (opt.spatial_sort) {
    Aabb box = Aabb::of(points_);
    const double ext = std::max(box.max_extent(), 1e-300);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
    for (std::size_t i = 0; i < n; ++i)
      keyed[i] = {morton_key(points_[i].x, points_[i].y, points_[i].z,
                             std::min({box.lo.x, box.lo.y, box.lo.z}), 1.0 / ext),
                  static_cast<std::uint32_t>(i)};
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < n; ++i)
      order[i] = static_cast<VertexId>(keyed[i].second);
  }

  // First simplex: the first 4 affinely independent points in `order`.
  std::size_t i0 = 0;
  std::size_t i1 = i0 + 1;
  const auto P = [&](std::size_t k) -> const Vec3& {
    return points_[static_cast<std::size_t>(order[k])];
  };
  while (i1 < n && P(i1) == P(i0)) ++i1;
  DTFE_CHECK_MSG(i1 < n, "all points coincide");
  std::size_t i2 = i1 + 1;
  while (i2 < n && collinear_exact(P(i0), P(i1), P(i2))) ++i2;
  DTFE_CHECK_MSG(i2 < n, "all points are collinear");
  std::size_t i3 = i2 + 1;
  while (i3 < n && orient3d(P(i0), P(i1), P(i2), P(i3)) == 0.0) ++i3;
  DTFE_CHECK_MSG(i3 < n, "all points are coplanar");

  VertexId a = order[i0], b = order[i1], c = order[i2], d = order[i3];
  if (orient3d(points_[static_cast<std::size_t>(a)], points_[static_cast<std::size_t>(b)],
               points_[static_cast<std::size_t>(c)], points_[static_cast<std::size_t>(d)]) < 0.0)
    std::swap(c, d);

  // Size the cell store up front: a 3D Delaunay triangulation of n points has
  // ~6.7n finite cells plus hull cells, and the free list recycles transient
  // cavity churn, so 7n slots covers the whole build without reallocating the
  // (hot) cell array mid-insertion. The scratch buffers are reused across
  // insertions and freed when the constructor returns.
  cells_.reserve(7 * n + 64);
  InsertState st;
  st.conflict.reserve(64);
  st.visited.reserve(128);
  st.boundary.reserve(64);
  st.edges.reserve(192);

  st.hint = init_first_cell(a, b, c, d);
  num_unique_ = 4;
  st.growth(cells_, free_list_);  // capacities before the first insert

  // Insert the rest in spatial order with a remembering hint.
  for (std::size_t k = 0; k < n; ++k) {
    if (k == i0 || k == i1 || k == i2 || k == i3) continue;
    // Cooperative watchdog: a pathological cube can make incremental
    // insertion the runaway phase, so poll the deadline at coarse intervals.
    // Every 64 insertions keeps the clock read under ~0.1% of insertion cost
    // while bounding cancellation latency even under sanitizer slowdowns.
    if (opt.deadline && (k & 63) == 0 && opt.deadline->expired())
      throw Error("triangulation cancelled: item deadline exceeded");
    insert(order[k], st);
  }

  if (obs::metrics_enabled()) {
    const DelaunayMetrics& m = delaunay_metrics();
    obs::add(m.constructions);
    obs::add(m.points_inserted, static_cast<double>(num_unique_));
    obs::add(m.duplicates, static_cast<double>(n - num_unique_));
    obs::add(m.cells_created, static_cast<double>(cells_allocated_));
  }
  span.add_arg("cells", static_cast<double>(live_cells_));
}

CellId Triangulation::init_first_cell(VertexId a, VertexId b, VertexId c,
                                      VertexId d) {
  cells_.reserve(64);
  const CellId t0 = new_cell();
  cells_[static_cast<std::size_t>(t0)].v = {a, b, c, d};

  // One infinite cell per face: (facet in outward order) + infinity at slot 3.
  std::array<CellId, 4> inf_cells;
  for (int f = 0; f < 4; ++f) {
    const CellId ic = new_cell();
    inf_cells[static_cast<std::size_t>(f)] = ic;
    Cell& t = cells_[static_cast<std::size_t>(ic)];
    const Cell& base = cells_[static_cast<std::size_t>(t0)];
    t.v = {base.v[kTetraFace[f][0]], base.v[kTetraFace[f][1]],
           base.v[kTetraFace[f][2]], kInfinite};
    t.n[3] = t0;
    cells_[static_cast<std::size_t>(t0)].n[f] = ic;
  }

  // Wire infinite-infinite adjacency by matching shared faces (brute force is
  // fine: 4 cells).
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      const CellId ci = inf_cells[static_cast<std::size_t>(i)];
      const CellId cj = inf_cells[static_cast<std::size_t>(j)];
      const Cell& ti = cells_[static_cast<std::size_t>(ci)];
      const Cell& tj = cells_[static_cast<std::size_t>(cj)];
      // Face of ci whose vertex set equals tj's vertex set minus one.
      for (int f = 0; f < 4; ++f) {
        const VertexId fa = ti.v[kTetraFace[f][0]];
        const VertexId fb = ti.v[kTetraFace[f][1]];
        const VertexId fc = ti.v[kTetraFace[f][2]];
        int shared = 0;
        for (int s = 0; s < 4; ++s)
          if (tj.v[s] == fa || tj.v[s] == fb || tj.v[s] == fc) ++shared;
        if (shared == 3 && f != 3) {
          cells_[static_cast<std::size_t>(ci)].n[f] = cj;
        }
      }
    }

  for (int s = 0; s < 4; ++s) {
    const VertexId vv = cells_[static_cast<std::size_t>(t0)].v[s];
    incident_cell_[static_cast<std::size_t>(vv)] = t0;
  }
  return t0;
}

CellId Triangulation::new_cell() {
  CellId c;
  if (!free_list_.empty()) {
    c = free_list_.back();
    free_list_.pop_back();
  } else {
    c = static_cast<CellId>(cells_.size());
    cells_.push_back({});
  }
  Cell& t = cells_[static_cast<std::size_t>(c)];
  t.v = {kInfinite, kInfinite, kInfinite, kInfinite};
  t.n = {kNoCell, kNoCell, kNoCell, kNoCell};
  ++live_cells_;
  ++cells_allocated_;
  return c;
}

void Triangulation::free_cell(CellId c) {
  Cell& t = cells_[static_cast<std::size_t>(c)];
  t.v = {kDead, kDead, kDead, kDead};
  t.n = {kNoCell, kNoCell, kNoCell, kNoCell};
  free_list_.push_back(c);
  --live_cells_;
}

bool Triangulation::cell_in_conflict(CellId c, const Vec3& p) const {
  const Cell& t = cell(c);
  int inf_slot = -1;
  for (int i = 0; i < 4; ++i)
    if (t.v[i] == kInfinite) {
      inf_slot = i;
      break;
    }
  if (inf_slot < 0) {
    const auto pts = cell_points(c);
    return insphere_conflict_perturbed(pts[0], pts[1], pts[2], pts[3], p);
  }
  // Infinite cell: its finite facet (face opposite infinity) winds INTO the
  // hull, so "outside the hull" is the negative side. When p lies exactly in
  // the facet plane, DELEGATE the decision to the finite neighbor across the
  // hull facet: geometrically "p inside the facet circumdisk ⇔ p inside the
  // neighbor's circumball" for coplanar p, and the neighbor's symbolically
  // perturbed insphere then also resolves the on-circle tie, keeping the two
  // sides of the facet consistent (no flat cells can be created).
  const Vec3& a = point(t.v[kTetraFace[inf_slot][0]]);
  const Vec3& b = point(t.v[kTetraFace[inf_slot][1]]);
  const Vec3& d = point(t.v[kTetraFace[inf_slot][2]]);
  const double o = orient3d(a, b, d, p);
  if (o < 0.0) return true;
  if (o > 0.0) return false;
  const CellId fin = t.n[inf_slot];
  DTFE_DCHECK(!is_infinite(fin));
  const auto np = cell_points(fin);
  return insphere_conflict_perturbed(np[0], np[1], np[2], np[3], p);
}

Triangulation::LocateResult Triangulation::locate_from(
    const Vec3& p, CellId hint, std::uint64_t& rng_state) const {
  CellId c = hint;
  if (c == kNoCell || !cell_alive(c)) {
    for (std::size_t i = 0; i < cells_.size(); ++i)
      if (cells_[i].v[0] != kDead) {
        c = static_cast<CellId>(i);
        break;
      }
  }
  DTFE_CHECK_MSG(c != kNoCell, "locate on empty triangulation");
  if (rng_state == 0) rng_state = 0x9e3779b97f4a7c15ull;

  // If the hint is infinite, step to its finite neighbor to start the walk.
  if (is_infinite(c)) {
    const int inf_slot = index_of(c, kInfinite);
    c = cell(c).n[inf_slot];
  }

  // Slot of the face we entered the current cell through, or -1. Its winding
  // is the reverse of the face we just crossed (shared facet, opposite
  // orientation), so p is strictly on its negative side — no need to re-test.
  int entry_face = -1;

  // Walk-length accounting (dtfe.delaunay.walk_steps / .locates): emitted on
  // every exit path, including the failure throw, via the destructor.
  struct WalkCount {
    std::size_t steps = 0;
    ~WalkCount() {
      if (obs::metrics_enabled()) {
        const DelaunayMetrics& m = delaunay_metrics();
        obs::add(m.locates);
        obs::add(m.walk_steps, static_cast<double>(steps));
      }
    }
  } walk;

  const std::size_t max_steps = 8 * cells_.size() + 64;
  for (std::size_t step = 0; step < max_steps; ++step) {
    walk.steps = step + 1;
    if (is_infinite(c)) {
      return {c, LocateStatus::kOutsideHull, kInfinite};
    }
    const Cell& t = cell(c);
    const auto pts = cell_points(c);
    const auto r = static_cast<int>(next_rand(rng_state) & 3);
    bool moved = false;
    for (int k = 0; k < 4; ++k) {
      const int f = (k + r) & 3;
      // Skipping the entry face drops ~1/4 of the orient3d calls while
      // leaving the stochastic face order, the chosen exit face, and the
      // walk_steps metric bitwise unchanged (the skipped test could only
      // ever have answered "negative side").
      if (f == entry_face) continue;
      const double o = orient3d(pts[kTetraFace[f][0]], pts[kTetraFace[f][1]],
                                pts[kTetraFace[f][2]], p);
      if (o > 0.0) {
        entry_face = mirror_index(c, f);
        c = t.n[f];
        moved = true;
        break;
      }
    }
    if (!moved) {
      for (int i = 0; i < 4; ++i)
        if (pts[static_cast<std::size_t>(i)] == p)
          return {c, LocateStatus::kOnVertex, t.v[i]};
      return {c, LocateStatus::kInside, kInfinite};
    }
  }
  throw Error("point location walk failed to terminate");
}

void Triangulation::insert(VertexId vid, InsertState& st) {
  const Vec3 p = points_[static_cast<std::size_t>(vid)];
  const LocateResult loc = locate_from(p, st.hint, st.walk_rng);
  if (loc.status == LocateStatus::kOnVertex) {
    duplicate_of_[static_cast<std::size_t>(vid)] = loc.vertex;
    return;
  }
  ++num_unique_;

  std::vector<CellId>& conflict = st.conflict;
  std::vector<std::int8_t>& mark = st.mark;
  std::vector<CellId>& visited = st.visited;
  std::vector<CavityEdge>& edges = st.edges;
  conflict.clear();
  visited.clear();
  st.boundary.clear();
  edges.clear();

  // --- grow the conflict region by BFS from the located cell ---------------
  if (mark.size() < cells_.size() + 8) mark.resize(cells_.size() + 8, 0);

  DTFE_DCHECK(cell_in_conflict(loc.cell, p));
  conflict.push_back(loc.cell);
  visited.push_back(loc.cell);
  mark[static_cast<std::size_t>(loc.cell)] = 1;

  // BFS over strictly conflicting cells (the queue grows while it is read).
  for (std::size_t qi = 0; qi < conflict.size(); ++qi) {
    const Cell t = cell(conflict[qi]);
    for (int f = 0; f < 4; ++f) {
      const CellId nb = t.n[f];
      if (mark[static_cast<std::size_t>(nb)] != 0) continue;
      if (cell_in_conflict(nb, p)) {
        mark[static_cast<std::size_t>(nb)] = 1;
        conflict.push_back(nb);
      } else {
        mark[static_cast<std::size_t>(nb)] = 2;
      }
      visited.push_back(nb);
    }
  }
  if (obs::metrics_enabled())
    obs::add(delaunay_metrics().conflict_cells,
             static_cast<double>(conflict.size()));

  for (const CellId cc : conflict) {
    const Cell t = cell(cc);  // copy: cells_ may reallocate later, not here
    for (int f = 0; f < 4; ++f) {
      const CellId nb = t.n[f];
      if (mark[static_cast<std::size_t>(nb)] == 1) continue;
      BoundaryFacet bf;
      bf.a = t.v[kTetraFace[f][0]];
      bf.b = t.v[kTetraFace[f][1]];
      bf.d = t.v[kTetraFace[f][2]];
      bf.outside = nb;
      bf.outside_slot = mirror_index(cc, f);
      st.boundary.push_back(bf);
    }
  }

  // --- retriangulate the cavity --------------------------------------------
  for (const CellId cc : conflict) free_cell(cc);

  // Create all cavity cells first, collecting the open apex-face edges; each
  // cavity edge is shared by exactly two boundary facets, so sorting the list
  // and pairing adjacent equal keys wires the same adjacency the per-insert
  // hash map used to — without its node allocations.
  CellId first_new = kNoCell;
  for (const BoundaryFacet& bf : st.boundary) {
    const CellId nc = new_cell();
    if (first_new == kNoCell) first_new = nc;
    Cell& t = cells_[static_cast<std::size_t>(nc)];
    // Reversed facet + apex keeps the cell positively oriented (see header).
    t.v = {bf.a, bf.d, bf.b, vid};
    t.n[3] = bf.outside;
    cells_[static_cast<std::size_t>(bf.outside)].n[bf.outside_slot] = nc;

    // Faces 0..2 contain the apex and one base edge each.
    for (std::int32_t k = 0; k < 3; ++k) {
      const VertexId u = t.v[static_cast<std::size_t>((k + 1) % 3)];
      const VertexId w = t.v[static_cast<std::size_t>((k + 2) % 3)];
      edges.push_back({edge_key(u, w), nc, k});
    }
    for (int s = 0; s < 4; ++s)
      if (t.v[s] != kInfinite)
        incident_cell_[static_cast<std::size_t>(t.v[s])] = nc;
  }
  std::sort(edges.begin(), edges.end(),
            [](const CavityEdge& x, const CavityEdge& y) {
              if (x.key != y.key) return x.key < y.key;
              if (x.cell != y.cell) return x.cell < y.cell;
              return x.slot < y.slot;
            });
  DTFE_CHECK_MSG((edges.size() & 1) == 0, "cavity boundary was not watertight");
  for (std::size_t e = 0; e < edges.size(); e += 2) {
    const CavityEdge& x = edges[e];
    const CavityEdge& y = edges[e + 1];
    DTFE_CHECK_MSG(x.key == y.key, "cavity boundary was not watertight");
    cells_[static_cast<std::size_t>(x.cell)].n[x.slot] = y.cell;
    cells_[static_cast<std::size_t>(y.cell)].n[y.slot] = x.cell;
  }

  for (const CellId cid : visited) mark[static_cast<std::size_t>(cid)] = 0;
  st.hint = first_new;
  alloc_events_ += st.growth(cells_, free_list_);
}

std::vector<CellId> Triangulation::finite_cells() const {
  std::vector<CellId> out;
  out.reserve(live_cells_);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellId c = static_cast<CellId>(i);
    if (cell_alive(c) && !is_infinite(c)) out.push_back(c);
  }
  return out;
}

std::vector<CellId> Triangulation::infinite_cells() const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellId c = static_cast<CellId>(i);
    if (cell_alive(c) && is_infinite(c)) out.push_back(c);
  }
  return out;
}

void Triangulation::incident_cells(VertexId v, std::vector<CellId>& out) const {
  out.clear();
  const CellId seed = incident_cell(v);
  if (seed == kNoCell) return;
  DTFE_DCHECK(index_of(seed, v) >= 0);
  out.push_back(seed);
  // BFS; membership by linear scan — vertex degrees are small (~24).
  for (std::size_t qi = 0; qi < out.size(); ++qi) {
    const Cell& t = cell(out[qi]);
    for (int f = 0; f < 4; ++f) {
      if (t.v[f] == v) continue;  // crossing face f keeps v
      const CellId nb = t.n[f];
      if (index_of(nb, v) < 0) continue;
      bool seen = false;
      for (const CellId c : out)
        if (c == nb) {
          seen = true;
          break;
        }
      if (!seen) out.push_back(nb);
    }
  }
}

void Triangulation::vertex_neighbors(VertexId v, std::vector<VertexId>& out,
                                     std::vector<CellId>& cell_scratch) const {
  out.clear();
  incident_cells(v, cell_scratch);
  for (const CellId c : cell_scratch) {
    const Cell& t = cell(c);
    for (int s = 0; s < 4; ++s) {
      const VertexId u = t.v[s];
      if (u == v || u == kInfinite) continue;
      bool seen = false;
      for (const VertexId w : out)
        if (w == u) {
          seen = true;
          break;
        }
      if (!seen) out.push_back(u);
    }
  }
}

void Triangulation::validate(bool check_delaunay) const {
  std::size_t live = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellId c = static_cast<CellId>(i);
    if (!cell_alive(c)) continue;
    ++live;
    const Cell& t = cell(c);

    int inf_count = 0;
    for (int s = 0; s < 4; ++s) {
      if (t.v[s] == kInfinite) ++inf_count;
      for (int s2 = s + 1; s2 < 4; ++s2)
        DTFE_CHECK_MSG(t.v[s] != t.v[s2], "repeated vertex in cell " << c);
    }
    DTFE_CHECK_MSG(inf_count <= 1, "cell with multiple infinite vertices");

    // Adjacency symmetry & facet agreement.
    for (int f = 0; f < 4; ++f) {
      const CellId nb = t.n[f];
      DTFE_CHECK_MSG(nb != kNoCell && cell_alive(nb), "dangling neighbor");
      const int mf = mirror_index(c, f);
      DTFE_CHECK_MSG(mf >= 0, "asymmetric adjacency at cell " << c);
      // Shared facet: vertex sets must agree.
      for (int k = 0; k < 3; ++k) {
        const VertexId fv = t.v[kTetraFace[f][k]];
        DTFE_CHECK_MSG(index_of(nb, fv) >= 0, "facet vertex mismatch");
      }
    }

    if (inf_count == 0) {
      const auto pts = cell_points(c);
      DTFE_CHECK_MSG(orient3d(pts[0], pts[1], pts[2], pts[3]) > 0.0,
                     "finite cell " << c << " not positively oriented");
    } else {
      // Hull facet must wind into the hull: the finite neighbor's apex is on
      // the positive side of the reversed facet.
      const int inf_slot = index_of(c, kInfinite);
      const CellId fin = t.n[inf_slot];
      DTFE_CHECK_MSG(!is_infinite(fin), "infinite cell not facing a finite one");
      const Vec3& a = point(t.v[kTetraFace[inf_slot][0]]);
      const Vec3& b = point(t.v[kTetraFace[inf_slot][1]]);
      const Vec3& d = point(t.v[kTetraFace[inf_slot][2]]);
      const int mf = mirror_index(c, inf_slot);
      const Vec3& apex = point(cell(fin).v[mf]);
      DTFE_CHECK_MSG(orient3d(a, b, d, apex) > 0.0,
                     "hull facet of cell " << c << " winds outward");
    }
  }
  DTFE_CHECK_MSG(live == live_cells_, "live cell count mismatch");

  validate_local_delaunay();

  if (check_delaunay) {
    // Exhaustive empty-circumsphere check.
    for (const CellId c : finite_cells()) {
      const auto pts = cell_points(c);
      for (std::size_t vi = 0; vi < points_.size(); ++vi) {
        const auto v = static_cast<VertexId>(vi);
        if (is_duplicate(v)) continue;
        if (index_of(c, v) >= 0) continue;
        DTFE_CHECK_MSG(insphere(pts[0], pts[1], pts[2], pts[3], point(v)) <= 0.0,
                       "vertex " << v << " violates circumsphere of cell " << c);
      }
    }
  }
}

void Triangulation::validate_local_delaunay() const {
  for (const CellId c : finite_cells()) {
    const auto pts = cell_points(c);
    for (int f = 0; f < 4; ++f) {
      const CellId nb = cell(c).n[f];
      if (is_infinite(nb)) continue;
      const int mf = mirror_index(c, f);
      const VertexId w = cell(nb).v[mf];
      DTFE_CHECK_MSG(insphere(pts[0], pts[1], pts[2], pts[3], point(w)) <= 0.0,
                     "facet between " << c << " and " << nb
                                      << " is not locally Delaunay");
    }
  }
}

}  // namespace dtfe
