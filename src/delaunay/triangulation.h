// Incremental 3D Delaunay triangulation (Bowyer–Watson with an infinite
// vertex, in the style of CGAL's Delaunay_triangulation_3, built from
// scratch on the robust predicates of src/geometry).
//
// Structure:
//  * Vertices are indices into the input point array; duplicates map to a
//    representative via duplicate_of().
//  * Cells ("tetras") store 4 vertex ids and 4 neighbor ids; neighbor n[i]
//    is the cell across the face opposite vertex i. Face i of a positively
//    oriented cell lists its three vertices counterclockwise as seen from
//    OUTSIDE the cell (geometry/ray_tetra.h's kTetraFace table).
//  * Exactly one vertex of a hull-adjacent cell is kInfinite; the face
//    opposite it is a convex-hull facet whose stored winding points INTO the
//    hull (by the "replace infinity by a far outside point" convention every
//    cell, finite or not, is combinatorially positively oriented).
//
// Point location is a remembering stochastic walk (paper §III-C-1); insertion
// order is Morton/BRIO spatially sorted for near-linear total walk cost. Each
// insert grows its conflict region by BFS (finite neighbours tested two per
// insphere2 call), gathering the cavity boundary as it goes, and wires the
// new cells through a table of the boundary's directed edges. The
// walk hint, walk RNG and insertion scratch live only while the constructor
// runs, so a finished Triangulation holds just the mesh and every const
// method is safe to call from many threads.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/ray_tetra.h"
#include "geometry/vec3.h"
#include "util/cancel.h"

namespace dtfe {

using VertexId = std::int32_t;
using CellId = std::int32_t;

struct TriangulationOptions {
  bool spatial_sort = true;  ///< Morton-order the insertion sequence
  /// Cooperative cancellation (borrowed; may be null = never cancel). The
  /// incremental insertion loop polls it and throws dtfe::Error on expiry.
  const Deadline* deadline = nullptr;
};

class Triangulation {
 public:
  static constexpr VertexId kInfinite = -1;
  static constexpr CellId kNoCell = -1;

  struct Cell {
    std::array<VertexId, 4> v;
    std::array<CellId, 4> n;
  };

  using Options = TriangulationOptions;

  /// Build the Delaunay triangulation of `points`. Requires at least 4
  /// affinely independent points; throws dtfe::Error otherwise.
  explicit Triangulation(std::span<const Vec3> points, Options opt = {});

  // --- basic accessors -----------------------------------------------------

  std::size_t num_vertices() const { return points_.size(); }
  const Vec3& point(VertexId v) const { return points_[static_cast<std::size_t>(v)]; }
  std::span<const Vec3> points() const { return points_; }

  /// Representative vertex for duplicated input points (identity otherwise).
  VertexId duplicate_of(VertexId v) const { return duplicate_of_[static_cast<std::size_t>(v)]; }
  /// True if this input index was a duplicate of an earlier point.
  bool is_duplicate(VertexId v) const { return duplicate_of_[static_cast<std::size_t>(v)] != v; }
  std::size_t num_unique_vertices() const { return num_unique_; }

  std::size_t num_cells() const { return live_cells_; }
  const Cell& cell(CellId c) const { return cells_[static_cast<std::size_t>(c)]; }
  bool cell_alive(CellId c) const { return cells_[static_cast<std::size_t>(c)].v[0] != kDead; }
  bool is_infinite(CellId c) const {
    const Cell& t = cell(c);
    return t.v[0] == kInfinite || t.v[1] == kInfinite || t.v[2] == kInfinite ||
           t.v[3] == kInfinite;
  }
  std::size_t cell_storage_size() const { return cells_.size(); }
  /// Container-growth events (capacity changes of the cell store and the
  /// insertion scratch buffers) observed while inserting points. Divided by
  /// the number of inserts this is the allocations-per-insert figure that
  /// bench/micro_delaunay and perfbench report.
  std::size_t alloc_events() const { return alloc_events_; }

  /// Slot (0..3) of vertex `v` in cell `c`; -1 if absent.
  int index_of(CellId c, VertexId v) const {
    const Cell& t = cell(c);
    for (int i = 0; i < 4; ++i)
      if (t.v[i] == v) return i;
    return -1;
  }
  /// Slot in neighbor n[f] that points back at cell c (hot in the marching
  /// kernel: kept inline).
  int mirror_index(CellId c, int f) const {
    const CellId nb = cell(c).n[f];
    const Cell& t = cell(nb);
    if (t.n[0] == c) return 0;
    if (t.n[1] == c) return 1;
    if (t.n[2] == c) return 2;
    if (t.n[3] == c) return 3;
    return -1;
  }

  /// Geometric positions of a finite cell's four vertices.
  std::array<Vec3, 4> cell_points(CellId c) const {
    const Cell& t = cell(c);
    return {point(t.v[0]), point(t.v[1]), point(t.v[2]), point(t.v[3])};
  }

  /// Any live cell incident to vertex v.
  CellId incident_cell(VertexId v) const { return incident_cell_[static_cast<std::size_t>(v)]; }

  /// All live finite cells (compact list, built on demand).
  std::vector<CellId> finite_cells() const;
  /// All live infinite cells — one per convex-hull facet.
  std::vector<CellId> infinite_cells() const;

  /// All live cells (finite and infinite) incident to vertex v, found by
  /// BFS over adjacency from incident_cell(v). Appends to `out` (cleared
  /// first). Thread-safe (caller-provided buffers).
  void incident_cells(VertexId v, std::vector<CellId>& out) const;
  /// Vertices joined to v by a Delaunay edge (excluding the infinite
  /// vertex). Appends to `out` (cleared first). Thread-safe.
  void vertex_neighbors(VertexId v, std::vector<VertexId>& out,
                        std::vector<CellId>& cell_scratch) const;

  // --- point location ------------------------------------------------------

  enum class LocateStatus {
    kInside,       ///< strictly inside a finite cell (or on its boundary)
    kOutsideHull,  ///< in the outside region of an infinite cell
    kOnVertex,     ///< coincides exactly with an existing vertex
  };
  struct LocateResult {
    CellId cell = kNoCell;
    LocateStatus status = LocateStatus::kInside;
    VertexId vertex = kInfinite;  ///< set for kOnVertex
  };

  /// Stochastic walk from `hint` (any live cell if kNoCell or dead). All walk
  /// state (hint + RNG for the stochastic face order; 0 seeds it) is caller
  /// provided, so concurrent callers never share it. Pass the previous
  /// result's cell as the next hint for a remembering walk.
  LocateResult locate_from(const Vec3& p, CellId hint,
                           std::uint64_t& rng_state) const;

  // --- validation (tests & debug) -------------------------------------------

  /// Exhaustively checks structural invariants: adjacency symmetry, shared
  /// facets, positive orientation of finite cells, single infinite vertex per
  /// infinite cell, hull facet orientation, and — if `check_delaunay` — the
  /// empty-circumsphere property of every finite cell against every vertex
  /// (O(cells·vertices): tests only). Throws dtfe::Error on violation.
  void validate(bool check_delaunay) const;

  /// Local Delaunay check: every finite facet is locally Delaunay (the
  /// opposite vertex of the neighbor is not strictly inside the cell's
  /// circumsphere). O(cells).
  void validate_local_delaunay() const;

 private:
  static constexpr VertexId kDead = -2;

  /// Walk state, scratch buffers and work tallies of one construction
  /// (triangulation.cpp).
  struct InsertState;

  bool cell_in_conflict(CellId c, const Vec3& p) const;
  /// Conflict test of infinite cell c, whose slot `inf_slot` is kInfinite.
  bool infinite_in_conflict(CellId c, int inf_slot, const Vec3& p) const;
  /// The stochastic walk from live cell `start`; adds its steps to `steps`.
  LocateResult walk(const Vec3& p, CellId start, std::uint64_t& rng_state,
                    std::size_t& steps) const;
  void insert(VertexId vid, InsertState& st);
  CellId init_first_cell(VertexId a, VertexId b, VertexId c, VertexId d);

  std::vector<Vec3> points_;
  std::vector<VertexId> duplicate_of_;
  std::vector<CellId> incident_cell_;
  std::vector<Cell> cells_;
  std::vector<CellId> free_list_;
  std::size_t live_cells_ = 0;
  std::size_t cells_allocated_ = 0;  ///< new_cell() calls, incl. slot reuse
  std::size_t num_unique_ = 0;
  std::size_t alloc_events_ = 0;  ///< container growth during insertion
};

}  // namespace dtfe
