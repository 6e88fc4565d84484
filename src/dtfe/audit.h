// Runtime conservation audits for rendered surface-density items.
//
// The pipeline can verify every work item it commits instead of trusting the
// kernels blindly:
//
//  * cheap — (a) non-finite scan, (b) negativity scan (the DTFE interpolant
//    is a convex combination of positive vertex densities inside each
//    tetrahedron, so a negative cell means corrupted assembly), and (c) mass
//    conservation: the rendered grid's sum must equal the kernel's
//    independent re-accumulation of terminal ray integrals
//    (MarchingStats::ray_mass) to within accumulation-order roundoff. The
//    two sums follow different code paths and different summation orders, so
//    an indexing bug, a torn write, or a checkpoint-decode error shows up as
//    a relative mismatch far above the default 1e-9 tolerance.
//  * full — cheap plus a random spot check of the paper's "equal cells"
//    protocol (Fig. 6): at a few random grid cells, the marching kernel in
//    z_samples mode and a walking-style locate+interpolate evaluate the SAME
//    interpolant at the SAME fixed z planes; the two routes must agree to
//    ~1e-6 relative, catching disagreements between the Plücker march and
//    the stochastic walk on the exact same tessellation.
//
// Violations are returned as structured findings, counted in dtfe.audit.*
// metrics, and tagged into the run report by the pipeline; --audit-fatal
// escalates them to errors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtfe/field.h"

namespace dtfe {

class FieldCube;

enum class AuditLevel { kOff, kCheap, kFull };

/// Parse "off" / "cheap" / "full" (throws Error otherwise).
AuditLevel parse_audit_level(const std::string& s);
const char* audit_level_name(AuditLevel level);

struct AuditOptions {
  AuditLevel level = AuditLevel::kOff;
  /// Relative tolerance for |grid.sum() − ray_mass|. Both are ~n·ε-accurate
  /// sums of the same terms in different orders, so honest renders sit many
  /// orders of magnitude below this.
  static constexpr double mass_rel_tol = 1e-9;
  /// full mode: number of random cells cross-checked per item.
  static constexpr int spot_checks = 4;
  /// full mode: fixed z planes per spot check (the equal-cells protocol).
  static constexpr int spot_z_samples = 64;
  /// full mode: relative tolerance between the marching and walking routes.
  double spot_rel_tol = 1e-6;
  /// Seed for the spot-check cell picks (folded with the item seed by the
  /// pipeline so resumed runs audit the same cells).
  std::uint64_t seed = 0x5eedf00dULL;
};

struct AuditFinding {
  std::string check;   ///< "non_finite" | "negative" | "mass" | "spot"
  std::string detail;  ///< human-readable specifics
};

struct AuditResult {
  std::vector<AuditFinding> violations;
  int checks_run = 0;
  bool ok() const { return violations.empty(); }
  /// "pass" or a ';'-joined list of check names.
  std::string summary() const;
};

/// Audit one rendered item. `ray_mass` is MarchingStats::ray_mass from the
/// render that produced `grid` (ignored, along with the mass check, when NaN
/// — the tess/walking paths don't provide it). `cube` is the cube the item
/// was rendered from; it is only needed for AuditLevel::kFull and may be
/// null otherwise.
AuditResult audit_field_item(const Grid2D& grid, const FieldSpec& spec,
                             double ray_mass, const FieldCube* cube,
                             const AuditOptions& opt);

/// Multi-channel variant. A density FieldGrid delegates to the scalar audit
/// above (identical findings and metrics). Velocity items add conservation
/// checks instead of the scalar mass/negativity ones:
///  * volume-weighted mean-velocity consistency (cheap): each LOS-mean cell
///    is a volume-weighted average of the linear interpolant, so it must lie
///    within the [min, max] of the model's vertex velocities (cells whose
///    line misses the hull are exactly 0 and exempt);
///  * divergence-theorem spot checks (full): at a few random tetrahedra the
///    face-centroid flux of the interpolated velocity must equal ∇·v × V —
///    an identity that is exact for the linear interpolant, so any mismatch
///    beyond spot_rel_tol means corrupted gradients or vertex values.
/// vdiv/grad items run the non-finite scan only; velocity checks need
/// `cube`. `velocity_model_seed` is the run-level analytic-model seed
/// (engine/field_kernel.h RenderRequest).
AuditResult audit_field_item(const FieldGrid& grid, const FieldSpec& spec,
                             double ray_mass, const FieldCube* cube,
                             const AuditOptions& opt,
                             std::uint64_t velocity_model_seed = 0);

}  // namespace dtfe
