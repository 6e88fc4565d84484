#include "engine/field_kernel.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "dtfe/vector_field.h"
#include "dtfe/velocity_model.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtfe::engine {

namespace {

double unit01(std::uint64_t& state) {
  return static_cast<double>(detail::splitmix64(state) >> 11) * 0x1.0p-53;
}

double tetra_volume(const std::array<Vec3, 4>& p) {
  return std::abs((p[1] - p[0]).dot((p[2] - p[0]).cross(p[3] - p[0]))) / 6.0;
}

/// Mean inter-particle spacing from the points' bounding box — the length
/// scale of the ensemble jitter (Aragon-Calvo 2020 jitters within roughly
/// one sampling cell).
double mean_spacing(std::span<const Vec3> pts) {
  if (pts.empty()) return 0.0;
  Vec3 lo = pts[0], hi = pts[0];
  for (const Vec3& p : pts) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  const Vec3 ext = hi - lo;
  double vol = ext.x * ext.y * ext.z;
  if (vol <= 0.0) {
    const double e = std::max({ext.x, ext.y, ext.z});
    vol = e * e * e;
  }
  if (vol <= 0.0) return 0.0;
  return std::cbrt(vol / static_cast<double>(pts.size()));
}

/// Realization e of the jittered point set: canonical order, one splitmix
/// stream per (item seed, realization), uniform in [-a, a]^3.
std::vector<Vec3> jittered_points(std::span<const Vec3> pts,
                                  std::uint64_t seed, int realization,
                                  double amplitude) {
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(realization));
  std::vector<Vec3> out;
  out.reserve(pts.size());
  for (const Vec3& p : pts) {
    const double dx = amplitude * (2.0 * unit01(state) - 1.0);
    const double dy = amplitude * (2.0 * unit01(state) - 1.0);
    const double dz = amplitude * (2.0 * unit01(state) - 1.0);
    out.push_back({p.x + dx, p.y + dy, p.z + dz});
  }
  return out;
}

/// Volume-weighted average of a per-cell quantity over each vertex's
/// incident finite cells — the DTFE estimate of a cell-constant field
/// (divergence, gradient components) at the sample points.
template <typename CellValue>
std::vector<double> vertex_cell_average(const Triangulation& tri,
                                        const std::vector<CellId>& cells,
                                        CellValue&& value_of) {
  std::vector<double> num(tri.num_vertices(), 0.0);
  std::vector<double> den(tri.num_vertices(), 0.0);
  for (const CellId c : cells) {
    const double vol = tetra_volume(tri.cell_points(c));
    const double val = value_of(c);
    const auto& t = tri.cell(c);
    for (int i = 0; i < 4; ++i) {
      const auto v = static_cast<std::size_t>(t.v[i]);
      num[v] += val * vol;
      den[v] += vol;
    }
  }
  std::vector<double> out(tri.num_vertices(), 0.0);
  for (std::size_t v = 0; v < out.size(); ++v)
    if (den[v] > 0.0) out[v] = num[v] / den[v];
  return out;
}

/// Per-channel, per-vertex sample values for the vector estimator sets.
/// Velocity channels come straight from the analytic model; vdiv and grad
/// are volume-weighted vertex averages of cell-constant derivatives.
std::vector<std::vector<double>> channel_vertex_values(
    const FieldCube& cube, const RenderRequest& request) {
  const Triangulation& tri = cube.triangulation();
  switch (request.field) {
    case FieldKind::kVelocity: {
      const VelocityModel model(request.model_seed,
                                request.spec.length > 0.0 ? request.spec.length
                                                          : 1.0);
      std::vector<std::vector<double>> out(
          3, std::vector<double>(tri.num_vertices()));
      for (std::size_t v = 0; v < tri.num_vertices(); ++v) {
        const Vec3 vel = model(tri.point(static_cast<VertexId>(v)));
        out[0][v] = vel.x;
        out[1][v] = vel.y;
        out[2][v] = vel.z;
      }
      return out;
    }
    case FieldKind::kVdiv: {
      const VelocityModel model(request.model_seed,
                                request.spec.length > 0.0 ? request.spec.length
                                                          : 1.0);
      std::vector<Vec3> vel;
      vel.reserve(tri.num_vertices());
      for (std::size_t v = 0; v < tri.num_vertices(); ++v)
        vel.push_back(model(tri.point(static_cast<VertexId>(v))));
      const VectorField vf(tri, vel);
      const std::vector<CellId> cells = tri.finite_cells();
      return {vertex_cell_average(
          tri, cells, [&vf](CellId c) { return vf.divergence(c); })};
    }
    case FieldKind::kGrad: {
      const DensityField& rho = cube.density();
      const std::vector<CellId> cells = tri.finite_cells();
      std::vector<std::vector<double>> out;
      out.reserve(3);
      for (int i = 0; i < 3; ++i)
        out.push_back(vertex_cell_average(tri, cells, [&rho, i](CellId c) {
          return rho.cell_gradient(c)[i];
        }));
      return out;
    }
    case FieldKind::kDensity:
      break;
  }
  throw Error("channel_vertex_values called for the density fast path");
}

/// integral / path per cell; 0 where the line of sight misses the hull.
Grid2D los_ratio(const Grid2D& integral, const Grid2D& path) {
  Grid2D out(integral.nx(), integral.ny());
  for (std::size_t i = 0; i < out.size(); ++i)
    out.flat(i) = path.flat(i) > 0.0 ? integral.flat(i) / path.flat(i) : 0.0;
  return out;
}

}  // namespace

FieldGrid FieldKernel::render(const FieldCube& cube,
                              const RenderRequest& request,
                              const Deadline* deadline,
                              KernelStats& stats) const {
  const int n = std::max(1, request.smooth_ensemble);
  if (n == 1) return render_one(cube, request, deadline, stats);

  // Aragon-Calvo 2020 mass-conserving stochastic smoothing: average N
  // reconstructions over jittered copies of the SAME particles. Each
  // realization carries the full particle mass, so the ensemble mean
  // conserves it; averaging ray_mass alongside keeps the audit identity
  // grid.sum() ≈ ray_mass exact under the average.
  FieldGrid accum = render_one(cube, request, deadline, stats);
  double mass_sum = stats.ray_mass;  // NaN (walk/tess) propagates → skip
  const double amplitude = 0.25 * mean_spacing(cube.points());
  for (int e = 1; e < n; ++e) {
    TriangulationOptions topt;
    topt.deadline = deadline;
    const FieldCube jittered(
        jittered_points(cube.points(), request.seed, e, amplitude),
        cube.particle_mass(), topt);
    KernelStats s;
    const FieldGrid g = render_one(jittered, request, deadline, s);
    for (std::size_t c = 0; c < accum.channels(); ++c) {
      Grid2D& acc = accum.plane(c);
      const Grid2D& add = g.plane(c);
      for (std::size_t i = 0; i < acc.size(); ++i) acc.flat(i) += add.flat(i);
    }
    mass_sum += s.ray_mass;
    stats.failed_cells += s.failed_cells;
    stats.perturb_restarts += s.perturb_restarts;
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (std::size_t c = 0; c < accum.channels(); ++c) {
    Grid2D& acc = accum.plane(c);
    for (std::size_t i = 0; i < acc.size(); ++i) acc.flat(i) *= inv;
  }
  stats.ray_mass = mass_sum * inv;
  return accum;
}

FieldGrid MarchingFieldKernel::render_one(const FieldCube& cube,
                                          const RenderRequest& request,
                                          const Deadline* deadline,
                                          KernelStats& stats) const {
  MarchingOptions opt = base_;
  if (request.seed != 0) opt.seed = request.seed;
  if (deadline != nullptr) opt.deadline = deadline;
  if (request.field == FieldKind::kDensity) {
    // The density march borrows the cube's rows and, when its rays amortise
    // it, the cube's geometry table.
    const MarchingKernel kernel(cube, opt);
    Grid2D grid = kernel.render(request.spec);
    stats.ray_mass = kernel.stats().ray_mass;
    stats.failed_cells = kernel.stats().failed_cells;
    stats.perturb_restarts = kernel.stats().perturb_restarts;
    return FieldGrid(std::move(grid));
  }

  // Vector channels: march ∫f dz and ∫dz with the same kernel options and
  // take the per-cell ratio — the volume-weighted line-of-sight mean. Each
  // channel is its own field with its own interpolant rows; the kernels
  // share the cube's one geometry table when their rays amortise it.
  // ray_mass stays NaN (there is no mass identity for these channels).
  const Triangulation& tri = cube.triangulation();
  const auto channels = channel_vertex_values(cube, request);
  const std::vector<double> ones(tri.num_vertices(), 1.0);
  const DensityField unit = DensityField::with_vertex_values(tri, ones);
  const MarchingKernel path_kernel(cube, unit, opt);
  const Grid2D path = path_kernel.render(request.spec);
  stats.failed_cells += path_kernel.stats().failed_cells;
  stats.perturb_restarts += path_kernel.stats().perturb_restarts;

  std::vector<Grid2D> planes;
  planes.reserve(channels.size());
  for (const std::vector<double>& values : channels) {
    const DensityField f = DensityField::with_vertex_values(tri, values);
    const MarchingKernel kernel(cube, f, opt);
    const Grid2D integral = kernel.render(request.spec);
    stats.failed_cells += kernel.stats().failed_cells;
    stats.perturb_restarts += kernel.stats().perturb_restarts;
    planes.push_back(los_ratio(integral, path));
  }
  return FieldGrid(request.field, std::move(planes));
}

FieldGrid WalkingFieldKernel::render_one(const FieldCube& cube,
                                         const RenderRequest& request,
                                         const Deadline* deadline,
                                         KernelStats& stats) const {
  (void)deadline;  // the walking baseline has no cooperative poll points
  (void)stats;     // and no independent mass re-accumulation (NaN = skip)
  WalkingOptions opt = base_;
  if (request.seed != 0) opt.seed = request.seed;
  if (request.field == FieldKind::kDensity) {
    const WalkingKernel kernel(cube.density(), opt);
    return FieldGrid(kernel.render(request.spec));
  }

  const Triangulation& tri = cube.triangulation();
  const auto channels = channel_vertex_values(cube, request);
  const std::vector<double> ones(tri.num_vertices(), 1.0);
  const DensityField unit = DensityField::with_vertex_values(tri, ones);
  const Grid2D path = WalkingKernel(unit, opt).render(request.spec);

  std::vector<Grid2D> planes;
  planes.reserve(channels.size());
  for (const std::vector<double>& values : channels) {
    const DensityField f = DensityField::with_vertex_values(tri, values);
    const Grid2D integral = WalkingKernel(f, opt).render(request.spec);
    planes.push_back(los_ratio(integral, path));
  }
  return FieldGrid(request.field, std::move(planes));
}

FieldGrid TessFieldKernel::render_one(const FieldCube& cube,
                                      const RenderRequest& request,
                                      const Deadline* deadline,
                                      KernelStats& stats) const {
  (void)stats;
  if (request.field != FieldKind::kDensity)
    throw Error(std::string("kernel 'tess' renders density only; --field=") +
                field_kind_name(request.field) +
                " needs the march or walk kernel");
  TessOptions opt = base_;
  if (request.seed != 0) opt.seed = request.seed;
  if (deadline != nullptr) opt.deadline = deadline;
  const TessKernel kernel(cube.density(), opt);
  return FieldGrid(kernel.render(request.spec));
}

const KernelRegistry& KernelRegistry::builtin() {
  static const KernelRegistry reg;
  return reg;
}

bool KernelRegistry::contains(const std::string& name) const {
  const std::vector<std::string> all = names();
  return std::find(all.begin(), all.end(), name) != all.end();
}

std::vector<std::string> KernelRegistry::names() const {
  return {"march", "tess", "walk"};
}

std::unique_ptr<FieldKernel> KernelRegistry::create(
    const std::string& name, const KernelOptions& opt) const {
  if (name == "march")
    return std::make_unique<MarchingFieldKernel>(opt.marching);
  if (name == "tess") return std::make_unique<TessFieldKernel>(opt.tess);
  if (name == "walk") return std::make_unique<WalkingFieldKernel>(opt.walking);
  std::string known;
  for (const auto& n : names()) known += " " + n;
  throw Error("unknown field kernel '" + name + "' (registered:" + known +
              ")");
}

}  // namespace dtfe::engine
