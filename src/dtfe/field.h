// Field containers and field-request descriptions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geometry/vec3.h"
#include "util/error.h"

namespace dtfe {

/// Dense row-major 2D scalar field (the surface density grids).
class Grid2D {
 public:
  Grid2D() = default;
  Grid2D(std::size_t nx, std::size_t ny, double fill = 0.0)
      : nx_(nx), ny_(ny), data_(checked_cells("Grid2D", nx, ny), fill) {}

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t size() const { return data_.size(); }

  double& at(std::size_t ix, std::size_t iy) {
    DTFE_ASSERT(ix < nx_ && iy < ny_);
    return data_[iy * nx_ + ix];
  }
  double at(std::size_t ix, std::size_t iy) const {
    DTFE_ASSERT(ix < nx_ && iy < ny_);
    return data_[iy * nx_ + ix];
  }
  double& flat(std::size_t i) {
    DTFE_ASSERT(i < data_.size());
    return data_[i];
  }
  double flat(std::size_t i) const {
    DTFE_ASSERT(i < data_.size());
    return data_[i];
  }
  std::span<const double> values() const { return data_; }
  std::span<double> values() { return data_; }

  double sum() const {
    double s = 0.0;
    for (double v : data_) s += v;
    return s;
  }

 private:
  std::size_t nx_ = 0, ny_ = 0;
  std::vector<double> data_;
};

/// Dense 3D scalar field (intermediate representation of the walking-based
/// baseline renderers).
class Grid3D {
 public:
  Grid3D() = default;
  Grid3D(std::size_t nx, std::size_t ny, std::size_t nz, double fill = 0.0)
      : nx_(nx), ny_(ny), nz_(nz),
        data_(checked_cells("Grid3D", nx, ny, nz), fill) {}

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t size() const { return data_.size(); }

  double& at(std::size_t ix, std::size_t iy, std::size_t iz) {
    DTFE_ASSERT(ix < nx_ && iy < ny_ && iz < nz_);
    return data_[(iz * ny_ + iy) * nx_ + ix];
  }
  double at(std::size_t ix, std::size_t iy, std::size_t iz) const {
    DTFE_ASSERT(ix < nx_ && iy < ny_ && iz < nz_);
    return data_[(iz * ny_ + iy) * nx_ + ix];
  }
  std::span<const double> values() const { return data_; }

 private:
  std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<double> data_;
};

/// Which DTFE estimator set a field request reconstructs. All kinds share
/// one tessellation per item; they differ only in what is interpolated and
/// projected (DESIGN.md §10).
enum class FieldKind {
  kDensity,   ///< surface density (1 plane) — the paper's field, the default
  kVelocity,  ///< density-weighted mean LOS velocity per component (3 planes)
  kVdiv,      ///< velocity divergence, volume-weighted per vertex (1 plane)
  kGrad,      ///< density gradient components, per vertex (3 planes)
};

/// CLI/report name of a kind ("density", "velocity", "vdiv", "grad").
const char* field_kind_name(FieldKind kind);

/// Parse a kind name; throws Error listing the valid names on mismatch.
FieldKind parse_field_kind(const std::string& name);

/// Number of channel planes a kind renders.
std::size_t field_channels(FieldKind kind);

/// Per-channel plane names, e.g. {"vx","vy","vz"} for kVelocity. Density's
/// single plane is named "density" so report tags read naturally.
std::vector<std::string> field_channel_names(FieldKind kind);

/// A rendered field item: N named Grid2D planes sharing one footprint. The
/// density default is exactly one plane, and every consumer that only ever
/// handled a scalar grid treats plane(0) of a 1-channel FieldGrid as the old
/// Grid2D — sums, checksums and journal bytes stay bitwise identical.
class FieldGrid {
 public:
  FieldGrid() = default;
  /// Channel-count planes of nx×ny zeros for `kind`.
  FieldGrid(FieldKind kind, std::size_t nx, std::size_t ny)
      : kind_(kind), planes_(field_channels(kind), Grid2D(nx, ny)) {}
  /// Wrap a single rendered plane (the scalar-era constructor).
  explicit FieldGrid(Grid2D plane, FieldKind kind = FieldKind::kDensity)
      : kind_(kind), planes_{std::move(plane)} {}
  /// Adopt pre-rendered planes; their count must match the kind's channels.
  FieldGrid(FieldKind kind, std::vector<Grid2D> planes)
      : kind_(kind), planes_(std::move(planes)) {
    DTFE_CHECK(planes_.size() == field_channels(kind_));
  }

  FieldKind kind() const { return kind_; }
  std::size_t channels() const { return planes_.size(); }
  std::size_t nx() const { return planes_.empty() ? 0 : planes_[0].nx(); }
  std::size_t ny() const { return planes_.empty() ? 0 : planes_[0].ny(); }

  Grid2D& plane(std::size_t c) {
    DTFE_ASSERT(c < planes_.size());
    return planes_[c];
  }
  const Grid2D& plane(std::size_t c) const {
    DTFE_ASSERT(c < planes_.size());
    return planes_[c];
  }

  double plane_sum(std::size_t c) const { return plane(c).sum(); }
  /// Total over every plane: equals Grid2D::sum() for density, and is the
  /// per-item checksum the run reports aggregate.
  double sum() const {
    double s = 0.0;
    for (const Grid2D& p : planes_) s += p.sum();
    return s;
  }

 private:
  FieldKind kind_ = FieldKind::kDensity;
  std::vector<Grid2D> planes_;
};

/// Where and how to compute one surface density field: a square Ng×Ng grid
/// in the xy-plane integrated along z over [zmin, zmax] (defaults: the whole
/// mesh). This mirrors the paper's field requests: a center point plus a
/// physical side length and a resolution shared by all requests.
struct FieldSpec {
  Vec2 origin;                ///< lower-left corner of the grid
  double length = 1.0;        ///< physical x-extent of the field
  std::size_t resolution = 64;///< Ng (cells along x)
  /// Cells along y; 0 = square field (resolution × resolution). Cells are
  /// always square: the y-extent is resolution_y · cell_size().
  std::size_t resolution_y = 0;
  double zmin = -std::numeric_limits<double>::infinity();
  double zmax = std::numeric_limits<double>::infinity();

  std::size_t nx() const { return resolution; }
  std::size_t ny() const { return resolution_y ? resolution_y : resolution; }

  static FieldSpec centered(const Vec3& center, double length,
                            std::size_t resolution) {
    FieldSpec s;
    s.origin = {center.x - 0.5 * length, center.y - 0.5 * length};
    s.length = length;
    s.resolution = resolution;
    s.zmin = center.z - 0.5 * length;
    s.zmax = center.z + 0.5 * length;
    return s;
  }

  double cell_size() const { return length / static_cast<double>(resolution); }
  /// Representative point ξ of 2D cell (ix, iy): the cell center.
  Vec2 cell_center(std::size_t ix, std::size_t iy) const {
    const double h = cell_size();
    return {origin.x + (static_cast<double>(ix) + 0.5) * h,
            origin.y + (static_cast<double>(iy) + 0.5) * h};
  }
};

/// The order in which the render loops visit an nx×ny grid: square tiles of
/// kSide×kSide pixels in row-major tile order, ragged at the right and top
/// edges, each visited row by row. A tile is one unit of dynamic scheduling.
/// Neighbouring lines of sight cross mostly the same tetrahedra, so a tile's
/// rays reuse table rows a whole image row would already have evicted from
/// L2 (DESIGN.md §11). Visiting order never enters a pixel's value.
class PixelTiles {
 public:
  /// 8, not 16: a 32² catalog grid still makes 16 tiles for a rank team.
  static constexpr std::size_t kSide = 8;

  PixelTiles(std::size_t nx, std::size_t ny)
      : nx_(nx), ny_(ny), tiles_x_((nx + kSide - 1) / kSide) {}

  std::size_t count() const { return tiles_x_ * ((ny_ + kSide - 1) / kSide); }

  /// Call f(ix, iy) for every pixel of tile t, row by row.
  template <class F>
  void for_each_pixel(std::size_t t, F&& f) const {
    const std::size_t x0 = (t % tiles_x_) * kSide, y0 = (t / tiles_x_) * kSide;
    const std::size_t x1 = std::min(x0 + kSide, nx_);
    const std::size_t y1 = std::min(y0 + kSide, ny_);
    for (std::size_t iy = y0; iy < y1; ++iy)
      for (std::size_t ix = x0; ix < x1; ++ix) f(ix, iy);
  }

 private:
  std::size_t nx_, ny_, tiles_x_;
};

}  // namespace dtfe
