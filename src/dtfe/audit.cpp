#include "dtfe/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dtfe/marching_kernel.h"
#include "dtfe/vector_field.h"
#include "dtfe/velocity_model.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtfe {

namespace {

struct AuditMetrics {
  obs::MetricId items = obs::counter("dtfe.audit.items_audited");
  obs::MetricId violations = obs::counter("dtfe.audit.violations");
  obs::MetricId non_finite = obs::counter("dtfe.audit.non_finite");
  obs::MetricId negative = obs::counter("dtfe.audit.negative");
  obs::MetricId mass = obs::counter("dtfe.audit.mass_mismatch");
  obs::MetricId spot = obs::counter("dtfe.audit.spot_mismatch");
  obs::MetricId velocity_mean = obs::counter("dtfe.audit.velocity_mean");
  obs::MetricId div_theorem = obs::counter("dtfe.audit.div_theorem");
};

const AuditMetrics& audit_metrics() {
  static const AuditMetrics m;
  return m;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Walking-route column integral at ξ: locate each fixed z plane with the
/// stochastic walk and evaluate the linear interpolant there — the 3D-grid
/// baseline's semantics (paper Eq. 4), restricted to one column.
double walking_column(const DensityField& density, const Vec2& xi, double zmin,
                      double zmax, int nz, std::uint64_t& rng) {
  const Triangulation& tri = density.triangulation();
  const double dz = (zmax - zmin) / static_cast<double>(nz);
  double sigma = 0.0;
  CellId hint = Triangulation::kNoCell;
  for (int k = 0; k < nz; ++k) {
    const Vec3 p{xi.x, xi.y, zmin + (static_cast<double>(k) + 0.5) * dz};
    const auto loc = tri.locate_from(p, hint, rng);
    if (loc.status == Triangulation::LocateStatus::kInside) {
      hint = loc.cell;
      sigma += density.interpolate_in_cell(loc.cell, p) * dz;
    } else if (loc.status == Triangulation::LocateStatus::kOnVertex) {
      sigma += density.vertex_density(loc.vertex) * dz;
    }
    // kOutsideHull contributes zero, matching the march's empty intervals.
  }
  return sigma;
}

}  // namespace

AuditLevel parse_audit_level(const std::string& s) {
  if (s == "off") return AuditLevel::kOff;
  if (s == "cheap") return AuditLevel::kCheap;
  if (s == "full") return AuditLevel::kFull;
  throw Error("unknown audit level '" + s + "' (want off|cheap|full)");
}

const char* audit_level_name(AuditLevel level) {
  switch (level) {
    case AuditLevel::kOff: return "off";
    case AuditLevel::kCheap: return "cheap";
    case AuditLevel::kFull: return "full";
  }
  return "?";
}

std::string AuditResult::summary() const {
  if (violations.empty()) return "pass";
  std::string s;
  for (const AuditFinding& f : violations) {
    if (!s.empty()) s += ';';
    s += f.check;
  }
  return s;
}

AuditResult audit_field_item(const Grid2D& grid, const FieldSpec& spec,
                             double ray_mass, const DensityField* density,
                             const HullProjection* hull,
                             const AuditOptions& opt) {
  AuditResult res;
  if (opt.level == AuditLevel::kOff) return res;

  // (a) non-finite and (b) negativity scans over the committed grid.
  ++res.checks_run;
  std::size_t bad_finite = 0, bad_negative = 0;
  std::size_t first_bad = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double v = grid.flat(i);
    if (!std::isfinite(v)) {
      if (++bad_finite == 1) first_bad = i;
    } else if (v < 0.0) {
      if (++bad_negative == 1 && first_bad == grid.size()) first_bad = i;
    }
  }
  if (bad_finite > 0)
    res.violations.push_back(
        {"non_finite", std::to_string(bad_finite) + " non-finite cells (first flat index " +
                           std::to_string(first_bad) + ")"});
  ++res.checks_run;
  if (bad_negative > 0)
    res.violations.push_back(
        {"negative", std::to_string(bad_negative) +
                         " negative cells (interpolant of positive densities "
                         "cannot be negative)"});

  // (c) mass conservation: grid sum vs the kernel's independent terminal-ray
  // re-accumulation. Skipped when the producing kernel gave no ray mass.
  if (std::isfinite(ray_mass) && bad_finite == 0) {
    ++res.checks_run;
    const double gsum = grid.sum();
    const double scale = std::max(std::abs(ray_mass), std::abs(gsum));
    const double rel = scale > 0.0 ? std::abs(gsum - ray_mass) / scale : 0.0;
    if (rel > opt.mass_rel_tol)
      res.violations.push_back(
          {"mass", "grid sum " + fmt(gsum) + " vs ray mass " + fmt(ray_mass) +
                       " (rel " + fmt(rel) + " > tol " + fmt(opt.mass_rel_tol) +
                       ")"});
  }

  // full: equal-cells spot check — marching (z_samples mode) vs walking at
  // the SAME fixed z planes (paper Fig. 6 protocol).
  if (opt.level == AuditLevel::kFull && density != nullptr && hull != nullptr &&
      std::isfinite(spec.zmin) && std::isfinite(spec.zmax)) {
    MarchingOptions mo;
    mo.z_samples = opt.spot_z_samples;
    mo.seed = opt.seed;
    const MarchingKernel march(*density, *hull, mo);
    std::uint64_t rng = opt.seed ? opt.seed : 0x5eedf00dULL;
    for (int s = 0; s < opt.spot_checks; ++s) {
      ++res.checks_run;
      const std::size_t ix =
          static_cast<std::size_t>(detail::splitmix64(rng) % spec.nx());
      const std::size_t iy =
          static_cast<std::size_t>(detail::splitmix64(rng) % spec.ny());
      const Vec2 xi = spec.cell_center(ix, iy);
      const double via_march = march.integrate_line(xi, spec.zmin, spec.zmax);
      std::uint64_t walk_rng = detail::splitmix64(rng);
      const double via_walk = walking_column(*density, xi, spec.zmin,
                                             spec.zmax, opt.spot_z_samples,
                                             walk_rng);
      const double scale =
          std::max({std::abs(via_march), std::abs(via_walk), 1e-300});
      const double rel = std::abs(via_march - via_walk) / scale;
      if (rel > opt.spot_rel_tol)
        res.violations.push_back(
            {"spot", "cell (" + std::to_string(ix) + "," + std::to_string(iy) +
                         "): march " + fmt(via_march) + " vs walk " +
                         fmt(via_walk) + " (rel " + fmt(rel) + ")"});
    }
  }

  if (obs::metrics_enabled()) {
    const AuditMetrics& m = audit_metrics();
    obs::add(m.items);
    if (!res.violations.empty())
      obs::add(m.violations, static_cast<double>(res.violations.size()));
    for (const AuditFinding& f : res.violations) {
      if (f.check == "non_finite") obs::add(m.non_finite);
      else if (f.check == "negative") obs::add(m.negative);
      else if (f.check == "mass") obs::add(m.mass);
      else if (f.check == "spot") obs::add(m.spot);
    }
  }
  return res;
}

AuditResult audit_field_item(const FieldGrid& grid, const FieldSpec& spec,
                             double ray_mass, const DensityField* density,
                             const HullProjection* hull,
                             const AuditOptions& opt,
                             std::uint64_t velocity_model_seed) {
  // Density delegates to the scalar audit above: identical findings,
  // identical metrics — the bitwise-compatibility contract for --field
  // defaults extends to the audit trail.
  if (grid.kind() == FieldKind::kDensity && grid.channels() == 1)
    return audit_field_item(grid.plane(0), spec, ray_mass, density, hull, opt);

  AuditResult res;
  if (opt.level == AuditLevel::kOff) return res;
  const std::vector<std::string> names = field_channel_names(grid.kind());

  // Non-finite scan over every channel plane.
  ++res.checks_run;
  std::size_t bad_finite = 0;
  std::string first_bad;
  for (std::size_t c = 0; c < grid.channels(); ++c) {
    const Grid2D& plane = grid.plane(c);
    for (std::size_t i = 0; i < plane.size(); ++i)
      if (!std::isfinite(plane.flat(i)) && ++bad_finite == 1)
        first_bad = names[c] + " flat index " + std::to_string(i);
  }
  if (bad_finite > 0)
    res.violations.push_back({"non_finite", std::to_string(bad_finite) +
                                                " non-finite cells (first " +
                                                first_bad + ")"});

  if (grid.kind() == FieldKind::kVelocity && density != nullptr &&
      bad_finite == 0) {
    const Triangulation& tri = density->triangulation();
    const VelocityModel model(velocity_model_seed,
                              spec.length > 0.0 ? spec.length : 1.0);
    std::vector<Vec3> vel;
    vel.reserve(tri.num_vertices());
    for (std::size_t v = 0; v < tri.num_vertices(); ++v)
      vel.push_back(model(tri.point(static_cast<VertexId>(v))));

    // Volume-weighted mean-velocity consistency: every LOS mean is a convex
    // combination of vertex-sample values, so it must lie inside their
    // per-channel [min, max] envelope. Cells whose line of sight misses the
    // hull are exactly 0 by construction and exempt.
    for (std::size_t c = 0; c < grid.channels(); ++c) {
      ++res.checks_run;
      double vmin = vel[0][static_cast<int>(c)];
      double vmax = vmin;
      for (const Vec3& v : vel) {
        vmin = std::min(vmin, v[static_cast<int>(c)]);
        vmax = std::max(vmax, v[static_cast<int>(c)]);
      }
      const double tol =
          1e-9 * std::max({std::abs(vmin), std::abs(vmax), 1e-300});
      const Grid2D& plane = grid.plane(c);
      std::size_t out = 0;
      std::size_t first = plane.size();
      for (std::size_t i = 0; i < plane.size(); ++i) {
        const double v = plane.flat(i);
        if (v == 0.0) continue;  // missed-hull cell
        if (v < vmin - tol || v > vmax + tol)
          if (++out == 1) first = i;
      }
      if (out > 0)
        res.violations.push_back(
            {"velocity_mean",
             names[c] + ": " + std::to_string(out) +
                 " cells outside the vertex-velocity envelope [" + fmt(vmin) +
                 ", " + fmt(vmax) + "] (first flat index " +
                 std::to_string(first) + ")"});
    }

    // full: divergence-theorem spot checks. For the linear interpolant the
    // face-centroid flux through a tetrahedron equals ∇·v × V exactly, so
    // the two routes must agree to roundoff — far inside spot_rel_tol.
    if (opt.level == AuditLevel::kFull) {
      const VectorField vf(tri, vel);
      const std::vector<CellId> cells = tri.finite_cells();
      if (!cells.empty()) {
        std::uint64_t rng = opt.seed ? opt.seed : 0x5eedf00dULL;
        static const int kFaces[4][4] = {
            {1, 2, 3, 0}, {0, 3, 2, 1}, {0, 1, 3, 2}, {0, 2, 1, 3}};
        for (int s = 0; s < opt.spot_checks; ++s) {
          ++res.checks_run;
          const CellId c = cells[static_cast<std::size_t>(
              detail::splitmix64(rng) % cells.size())];
          const auto p = tri.cell_points(c);
          const double vol =
              std::abs((p[1] - p[0]).dot((p[2] - p[0]).cross(p[3] - p[0]))) /
              6.0;
          double flux = 0.0, flux_scale = 0.0;
          for (const auto& f : kFaces) {
            const Vec3& a = p[static_cast<std::size_t>(f[0])];
            const Vec3& b = p[static_cast<std::size_t>(f[1])];
            const Vec3& d = p[static_cast<std::size_t>(f[2])];
            const Vec3& opp = p[static_cast<std::size_t>(f[3])];
            Vec3 n = (b - a).cross(d - a);  // |n| = 2 × face area
            if (n.dot(opp - a) > 0.0) n = -n;  // outward
            const Vec3 centroid = (a + b + d) / 3.0;
            const double df = vf.interpolate_in_cell(c, centroid).dot(n) * 0.5;
            flux += df;
            flux_scale += std::abs(df);
          }
          const double div_vol = vf.divergence(c) * vol;
          const double scale =
              std::max({std::abs(div_vol), flux_scale, 1e-300});
          const double rel = std::abs(flux - div_vol) / scale;
          if (rel > opt.spot_rel_tol)
            res.violations.push_back(
                {"div_theorem", "cell " + std::to_string(c) + ": flux " +
                                    fmt(flux) + " vs div×V " + fmt(div_vol) +
                                    " (rel " + fmt(rel) + ")"});
        }
      }
    }
  }
  (void)hull;
  (void)ray_mass;  // no mass identity for the vector channels

  if (obs::metrics_enabled()) {
    const AuditMetrics& m = audit_metrics();
    obs::add(m.items);
    if (!res.violations.empty())
      obs::add(m.violations, static_cast<double>(res.violations.size()));
    for (const AuditFinding& f : res.violations) {
      if (f.check == "non_finite") obs::add(m.non_finite);
      else if (f.check == "velocity_mean") obs::add(m.velocity_mean);
      else if (f.check == "div_theorem") obs::add(m.div_theorem);
    }
  }
  return res;
}

}  // namespace dtfe
