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
// star-shaped for arbitrarily degenerate inputs. perturbed_tie settles a test
// whose insphere value is exactly 0.
bool perturbed_tie(const Vec3& p0, const Vec3& p1, const Vec3& p2,
                   const Vec3& p3, const Vec3& q) {
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

/// Conflict verdict from an insphere value s of (p0..p3, q).
bool conflict_from(double s, const Vec3& p0, const Vec3& p1, const Vec3& p2,
                   const Vec3& p3, const Vec3& q) {
  if (s != 0.0) return s > 0.0;
  return perturbed_tie(p0, p1, p2, p3, q);
}

bool insphere_conflict_perturbed(const Vec3& p0, const Vec3& p1,
                                 const Vec3& p2, const Vec3& p3,
                                 const Vec3& q) {
  return conflict_from(insphere(p0, p1, p2, p3, q), p0, p1, p2, p3, q);
}

// Unordered pair of vertex ids as a sortable 64-bit key (ids fit in 32 bits
// even with the -1 infinite sentinel, via a +2 bias).
std::uint64_t edge_key(VertexId u, VertexId v) {
  const auto a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::min(u, v) + 2));
  const auto b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::max(u, v) + 2));
  return (a << 32) | b;
}

/// Directed-edge table slot of ring vertices u→w on a ring of `n` vertices.
std::size_t ring_slot(std::int32_t u, std::int32_t w, std::size_t n) {
  return static_cast<std::size_t>(u) * n + static_cast<std::size_t>(w);
}

/// Largest cavity boundary, in vertices, paired through the R² edge table:
/// 128² eight-byte slots are 128 KiB.
constexpr std::size_t kRingTableMax = 128;
/// A ring number is a byte: a facet numbers at most 3 vertices past the
/// R <= kRingTableMax check, so every number stays below this marker.
constexpr std::uint8_t kNoRing = 0xff;
static_assert(kRingTableMax + 2 < kNoRing);

/// Boundary facet of the conflict cavity, already reversed to face it.
struct BoundaryFacet {
  VertexId a, b, d;  // new cell base
  CellId outside;    // surviving neighbor
  int outside_slot;  // slot in `outside` that pointed at the dead cell
  CellId cell;       // the new cell built on it
  std::int32_t ring[3];  // ring numbers of a, d, b (the new cell's v[0..2])
};

/// Slot of the directed-edge table: the new cell whose apex face holds the
/// edge, stamped with the insert that wrote it.
struct RingEdge {
  std::uint32_t stamp;
  CellId cell;
};

}  // namespace

struct Triangulation::InsertState {
  CellId hint = kNoCell;  ///< walk start: the last insert's first new cell
  std::uint64_t walk_rng = 0x9e3779b97f4a7c15ull;  ///< one sequence per build
  std::vector<CellId> conflict;         // conflict-BFS queue (high-water size)
  std::vector<std::int8_t> mark;        // 0 unknown, 1 conflict, 2 boundary-safe
  std::vector<BoundaryFacet> boundary;  // cavity surface (high-water size)
  std::vector<std::uint8_t> ring_of;    // vertex + 1 -> ring number or kNoRing
  std::vector<VertexId> ring;           // ring number -> vertex, for the reset
  std::vector<RingEdge> edges;          // directed-edge table, ring² slots
  std::uint32_t stamp = 0;              // unique inserts so far
  std::array<std::size_t, 8> capacity{};  // at the previous growth() call

  // Work tallies of the build, added to the metrics once, when the
  // constructor leaves (normally or by a throw), if metrics were on when it
  // started.
  bool metrics = false;
  std::size_t locates = 0;
  std::size_t walk_steps = 0;
  std::size_t conflict_cells = 0;

  InsertState() = default;
  InsertState(const InsertState&) = delete;
  InsertState& operator=(const InsertState&) = delete;
  ~InsertState() {
    if (!metrics) return;
    const DelaunayMetrics& m = delaunay_metrics();
    obs::add(m.locates, static_cast<double>(locates));
    obs::add(m.walk_steps, static_cast<double>(walk_steps));
    obs::add(m.conflict_cells, static_cast<double>(conflict_cells));
  }

  /// Containers whose capacity changed since the previous call (a vector
  /// only reallocates to grow): one insert's alloc_events() increment.
  std::size_t growth(const std::vector<Cell>& cells,
                     const std::vector<CellId>& free_list) {
    const std::array<std::size_t, 8> now = {
        cells.capacity(),    free_list.capacity(), mark.capacity(),
        conflict.capacity(), boundary.capacity(),  ring_of.capacity(),
        ring.capacity(),     edges.capacity()};
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
  st.metrics = obs::metrics_enabled();
  st.conflict.resize(64);
  st.boundary.resize(64);
  st.ring_of.assign(n + 1, kNoRing);
  st.ring.resize(kRingTableMax + 3);

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

  if (st.metrics) {
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
  // Cell 0 is the tetrahedron, cells 1..4 one infinite cell per face: (facet
  // in outward order) + infinity at slot 3.
  const CellId t0 = 0;
  cells_.push_back({{a, b, c, d}, {1, 2, 3, 4}});
  for (int f = 0; f < 4; ++f)
    cells_.push_back({{cells_[0].v[kTetraFace[f][0]], cells_[0].v[kTetraFace[f][1]],
                       cells_[0].v[kTetraFace[f][2]], kInfinite},
                      {kNoCell, kNoCell, kNoCell, t0}});
  live_cells_ = cells_allocated_ = 5;

  // Wire infinite-infinite adjacency by matching shared faces (brute force is
  // fine: 4 cells).
  for (CellId ci = 1; ci <= 4; ++ci)
    for (CellId cj = 1; cj <= 4; ++cj) {
      if (ci == cj) continue;
      const Cell& ti = cells_[static_cast<std::size_t>(ci)];
      const Cell& tj = cells_[static_cast<std::size_t>(cj)];
      // Face of ci whose vertex set equals tj's vertex set minus one.
      for (int f = 0; f < 3; ++f) {
        const VertexId fa = ti.v[kTetraFace[f][0]];
        const VertexId fb = ti.v[kTetraFace[f][1]];
        const VertexId fc = ti.v[kTetraFace[f][2]];
        int shared = 0;
        for (int s = 0; s < 4; ++s)
          if (tj.v[s] == fa || tj.v[s] == fb || tj.v[s] == fc) ++shared;
        if (shared == 3) cells_[static_cast<std::size_t>(ci)].n[f] = cj;
      }
    }

  for (const VertexId vv : cells_[0].v)
    incident_cell_[static_cast<std::size_t>(vv)] = t0;
  return t0;
}

bool Triangulation::cell_in_conflict(CellId c, const Vec3& p) const {
  const Cell& t = cell(c);
  for (int i = 0; i < 4; ++i)
    if (t.v[i] == kInfinite) return infinite_in_conflict(c, i, p);
  return insphere_conflict_perturbed(point(t.v[0]), point(t.v[1]),
                                     point(t.v[2]), point(t.v[3]), p);
}

bool Triangulation::infinite_in_conflict(CellId c, int inf_slot,
                                         const Vec3& p) const {
  // Its finite facet (face opposite infinity) winds INTO the hull, so
  // "outside the hull" is the negative side. When p lies exactly in the
  // facet plane, DELEGATE the decision to the finite neighbor across the
  // hull facet: geometrically "p inside the facet circumdisk ⇔ p inside the
  // neighbor's circumball" for coplanar p, and the neighbor's symbolically
  // perturbed insphere then also resolves the on-circle tie, keeping the two
  // sides of the facet consistent (no flat cells can be created).
  const Cell& t = cell(c);
  const Vec3& a = point(t.v[kTetraFace[inf_slot][0]]);
  const Vec3& b = point(t.v[kTetraFace[inf_slot][1]]);
  const Vec3& d = point(t.v[kTetraFace[inf_slot][2]]);
  const double o = orient3d(a, b, d, p);
  if (o < 0.0) return true;
  if (o > 0.0) return false;
  const CellId fin = t.n[inf_slot];
  DTFE_DCHECK(!is_infinite(fin));
  const Cell& f = cell(fin);
  return insphere_conflict_perturbed(point(f.v[0]), point(f.v[1]),
                                     point(f.v[2]), point(f.v[3]), p);
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
  } count;
  return walk(p, c, rng_state, count.steps);
}

Triangulation::LocateResult Triangulation::walk(const Vec3& p, CellId c,
                                                std::uint64_t& rng_state,
                                                std::size_t& steps) const {
  // If the start is infinite, step to its finite neighbor to start the walk.
  if (is_infinite(c)) {
    const int inf_slot = index_of(c, kInfinite);
    c = cell(c).n[inf_slot];
  }

  // Slot of the face we entered the current cell through, or -1. Its winding
  // is the reverse of the face we just crossed (shared facet, opposite
  // orientation), so p is strictly on its negative side — no need to re-test.
  int entry_face = -1;

  const std::size_t max_steps = 8 * cells_.size() + 64;
  for (std::size_t step = 0; step < max_steps; ++step) {
    ++steps;
    if (is_infinite(c)) {
      return {c, LocateStatus::kOutsideHull, kInfinite};
    }
    const Cell& t = cell(c);
    const Vec3* pts[4] = {&point(t.v[0]), &point(t.v[1]), &point(t.v[2]),
                          &point(t.v[3])};
    const auto r = static_cast<int>(next_rand(rng_state) & 3);
    bool moved = false;
    for (int k = 0; k < 4; ++k) {
      const int f = (k + r) & 3;
      // Skipping the entry face drops ~1/4 of the orient3d calls while
      // leaving the stochastic face order, the chosen exit face, and the
      // walk_steps metric bitwise unchanged (the skipped test could only
      // ever have answered "negative side").
      if (f == entry_face) continue;
      const double o = orient3d(*pts[kTetraFace[f][0]], *pts[kTetraFace[f][1]],
                                *pts[kTetraFace[f][2]], p);
      if (o > 0.0) {
        entry_face = mirror_index(c, f);
        c = t.n[f];
        moved = true;
        break;
      }
    }
    if (!moved) {
      for (int i = 0; i < 4; ++i)
        if (*pts[i] == p) return {c, LocateStatus::kOnVertex, t.v[i]};
      return {c, LocateStatus::kInside, kInfinite};
    }
  }
  throw Error("point location walk failed to terminate");
}

void Triangulation::insert(VertexId vid, InsertState& st) {
  const Vec3& p = points_[static_cast<std::size_t>(vid)];
  const LocateResult loc = walk(p, st.hint, st.walk_rng, st.walk_steps);
  ++st.locates;
  if (loc.status == LocateStatus::kOnVertex) {
    duplicate_of_[static_cast<std::size_t>(vid)] = loc.vertex;
    return;
  }
  ++num_unique_;

  // The scratch vectors keep their high-water size; the counts say how much
  // of them this insert uses, so a dequeued cell can write its (at most
  // four) queue and boundary entries without a branch per entry.
  std::vector<CellId>& conflict = st.conflict;
  std::vector<std::int8_t>& mark = st.mark;
  std::vector<BoundaryFacet>& boundary = st.boundary;
  std::vector<RingEdge>& edges = st.edges;
  std::size_t n_conflict = 0;
  std::size_t n_new = 0;

  // --- grow the conflict region by BFS from the located cell ---------------
  // Every id the BFS can meet is below cells_.size() <= capacity, so `mark`
  // grows only when the cell store does.
  if (mark.size() < cells_.capacity()) mark.resize(cells_.capacity(), 0);

  DTFE_DCHECK(cell_in_conflict(loc.cell, p));
  conflict[n_conflict++] = loc.cell;
  mark[static_cast<std::size_t>(loc.cell)] = 1;

  // BFS over strictly conflicting cells (the queue grows while it is read).
  // A dequeued cell first tests its unmarked neighbours, the finite ones two
  // per insphere2 call; a cell's verdict depends on nothing the BFS changes,
  // so this is the order-independent part. Then, in face order, it marks
  // them and queues the conflicting ones. Now every neighbour's mark is
  // final, so the faces toward non-conflicting neighbours are this cell's
  // share of the cavity boundary, gathered in (queue, face) order.
  for (std::size_t qi = 0; qi < n_conflict; ++qi) {
    const CellId cc = conflict[qi];
    const Cell& t = cells_[static_cast<std::size_t>(cc)];
    bool fresh[4] = {false, false, false, false};
    bool in[4] = {false, false, false, false};
    const Vec3* tet[4][4];  // the untested finite neighbours' vertices
    int tet_face[4] = {0, 0, 0, 0};
    int n_tet = 0;
    for (int f = 0; f < 4; ++f) {
      const CellId nb = t.n[f];
      if (mark[static_cast<std::size_t>(nb)] != 0) continue;
      fresh[f] = true;
      const Cell& u = cells_[static_cast<std::size_t>(nb)];
      int inf_slot = -1;
      for (int i = 0; i < 4; ++i)
        if (u.v[i] == kInfinite) inf_slot = i;
      if (inf_slot >= 0) {
        in[f] = infinite_in_conflict(nb, inf_slot, p);
        continue;
      }
      for (int i = 0; i < 4; ++i) tet[n_tet][i] = &point(u.v[i]);
      tet_face[n_tet++] = f;
    }
    for (int i = 0; i < n_tet; i += 2) {
      // An odd count runs its last tetrahedron in both lanes.
      const int lanes = std::min(2, n_tet - i);
      double s[2];
      insphere2(tet[i], tet[i + lanes - 1], p, lanes, s);
      for (int k = 0; k < lanes; ++k) {
        const Vec3* const* q = tet[i + k];
        in[tet_face[i + k]] = conflict_from(s[k], *q[0], *q[1], *q[2], *q[3], p);
      }
    }

    if (conflict.size() < n_conflict + 4) conflict.resize(2 * (n_conflict + 4));
    if (boundary.size() < n_new + 4) boundary.resize(2 * (n_new + 4));
    for (int f = 0; f < 4; ++f) {
      const CellId nb = t.n[f];
      std::int8_t& m = mark[static_cast<std::size_t>(nb)];
      const bool queue = fresh[f] && in[f];
      m = fresh[f] ? static_cast<std::int8_t>(in[f] ? 1 : 2) : m;
      conflict[n_conflict] = nb;
      n_conflict += queue;
      const CellId* un = cells_[static_cast<std::size_t>(nb)].n.data();
      const int slot = (un[1] == cc) + 2 * (un[2] == cc) + 3 * (un[3] == cc);
      boundary[n_new] = {t.v[kTetraFace[f][0]], t.v[kTetraFace[f][1]],
                         t.v[kTetraFace[f][2]], nb, slot, kNoCell, {0, 0, 0}};
      n_new += m != 1;
    }
  }
  st.conflict_cells += n_conflict;

  // --- retriangulate the cavity --------------------------------------------
  // New cell j takes the id that freeing every conflict cell onto the free
  // list, in queue order, and then popping would give: the conflict cells
  // from the back of the queue, then the older free list, then fresh slots.
  // Conflict cells left over (more cells than boundary facets) are freed as
  // that would leave them.
  const std::size_t reused = std::min(n_conflict, n_new);
  for (std::size_t i = 0; i + reused < n_conflict; ++i) {
    Cell& t = cells_[static_cast<std::size_t>(conflict[i])];
    t.v = {kDead, kDead, kDead, kDead};
    t.n = {kNoCell, kNoCell, kNoCell, kNoCell};
    free_list_.push_back(conflict[i]);
  }
  live_cells_ += n_new;
  live_cells_ -= n_conflict;
  cells_allocated_ += n_new;

  // One new cell per boundary facet, in facet order: base = the reversed
  // facet, apex = the new vertex. Its faces 0..2 each hold the apex and one
  // base edge, which is also in exactly one other new cell. The boundary is
  // a closed, consistently oriented triangulated sphere with F facets, so it
  // has R = F/2 + 2 vertices and each of its edges is crossed once in each
  // direction. Numbering those vertices in first-seen order (ring numbers),
  // a new cell parks its id at edges[u·R + w] for the directed base edge
  // u→w of each of its faces 0..2, and its neighbour across that face is the
  // cell parked at edges[w·R + u]: no hashing, probing or branching on which
  // side came first. The stamps catch a boundary that is not a closed
  // sphere: an edge crossed twice the same way, or never the other way.
  // Past kRingTableMax ring vertices (degenerate inputs; clustered and
  // uniform cavities stay under ~100) the R² table would be too large, and
  // sorting the edges pairs them instead.
  const std::size_t n_ring = n_new / 2 + 2;
  const bool use_table = n_ring <= kRingTableMax;
  if (use_table && edges.size() < n_ring * n_ring)
    edges.resize(n_ring * n_ring, RingEdge{0, kNoCell});
  const std::uint32_t stamp = ++st.stamp;
  std::size_t n_seen = 0;
  const std::size_t first_fresh = cells_.size();
  std::size_t n_fresh = 0;
  for (std::size_t j = 0; j < n_new; ++j) {
    BoundaryFacet& bf = boundary[j];
    if (j < reused) {
      bf.cell = conflict[n_conflict - 1 - j];
    } else if (!free_list_.empty()) {
      bf.cell = free_list_.back();
      free_list_.pop_back();
    } else {
      bf.cell = static_cast<CellId>(first_fresh + n_fresh++);
    }
    if (!use_table) continue;
    const VertexId base[3] = {bf.a, bf.d, bf.b};
    for (int i = 0; i < 3; ++i) {
      std::uint8_t& r = st.ring_of[static_cast<std::size_t>(base[i] + 1)];
      const bool first = r == kNoRing;
      st.ring[n_seen] = base[i];
      r = first ? static_cast<std::uint8_t>(n_seen) : r;
      n_seen += first;
      bf.ring[i] = r;
    }
    DTFE_CHECK_MSG(n_seen <= n_ring, "cavity boundary was not watertight");
    for (int k = 0; k < 3; ++k) {
      RingEdge& e = edges[ring_slot(bf.ring[(k + 1) % 3], bf.ring[(k + 2) % 3], n_ring)];
      DTFE_CHECK_MSG(e.stamp != stamp, "cavity boundary was not watertight");
      e = {stamp, bf.cell};
    }
  }

  // Store each new cell once, its faces 0..2 wired to `across(j, k)`.
  const auto build = [&](auto&& across) {
    CellId unused = kNoCell;  // where a write meant for no vertex goes
    for (std::size_t j = 0; j < n_new; ++j) {
      const BoundaryFacet& bf = boundary[j];
      // Reversed facet + apex keeps the cell positively oriented (see header).
      const Cell t{{bf.a, bf.d, bf.b, vid},
                   {across(j, 0), across(j, 1), across(j, 2), bf.outside}};
      cells_[static_cast<std::size_t>(bf.outside)].n[static_cast<std::size_t>(bf.outside_slot)] = bf.cell;
      if (static_cast<std::size_t>(bf.cell) == cells_.size())
        cells_.push_back(t);
      else
        cells_[static_cast<std::size_t>(bf.cell)] = t;
      // Base vertices; only these can be the infinite one. The apex is in
      // every new cell, so it ends on the last.
      for (int i = 0; i < 3; ++i) {
        const VertexId v = t.v[static_cast<std::size_t>(i)];
        *(v == kInfinite ? &unused : &incident_cell_[static_cast<std::size_t>(v)]) = bf.cell;
      }
    }
  };
  if (use_table) {
    build([&](std::size_t j, int k) {
      const BoundaryFacet& bf = boundary[j];
      const RingEdge& e = edges[ring_slot(bf.ring[(k + 2) % 3], bf.ring[(k + 1) % 3], n_ring)];
      DTFE_CHECK_MSG(e.stamp == stamp, "cavity boundary was not watertight");
      return e.cell;
    });
    for (std::size_t i = 0; i < n_seen; ++i)
      st.ring_of[static_cast<std::size_t>(st.ring[i] + 1)] = kNoRing;
  } else {
    // Every undirected apex-face edge must occur exactly twice.
    std::vector<std::pair<std::uint64_t, std::size_t>> by_edge(3 * n_new);
    for (std::size_t j = 0; j < n_new; ++j) {
      const BoundaryFacet& bf = boundary[j];
      const VertexId base[3] = {bf.a, bf.d, bf.b};
      for (std::size_t k = 0; k < 3; ++k)
        by_edge[3 * j + k] = {edge_key(base[(k + 1) % 3], base[(k + 2) % 3]), 3 * j + k};
    }
    std::sort(by_edge.begin(), by_edge.end());
    std::vector<CellId> partner(3 * n_new);
    for (std::size_t i = 0; i < by_edge.size(); i += 2) {
      DTFE_CHECK_MSG(i + 1 < by_edge.size() &&
                         by_edge[i].first == by_edge[i + 1].first &&
                         (i + 2 == by_edge.size() ||
                          by_edge[i + 2].first != by_edge[i].first),
                     "cavity boundary was not watertight");
      partner[by_edge[i].second] = boundary[by_edge[i + 1].second / 3].cell;
      partner[by_edge[i + 1].second] = boundary[by_edge[i].second / 3].cell;
    }
    build([&](std::size_t j, int k) { return partner[3 * j + static_cast<std::size_t>(k)]; });
  }
  st.hint = boundary[0].cell;
  incident_cell_[static_cast<std::size_t>(vid)] = boundary[n_new - 1].cell;

  // Every marked cell is a conflict cell or the outside of a boundary facet.
  for (std::size_t i = 0; i < n_conflict; ++i)
    mark[static_cast<std::size_t>(conflict[i])] = 0;
  for (std::size_t j = 0; j < n_new; ++j)
    mark[static_cast<std::size_t>(boundary[j].outside)] = 0;
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
