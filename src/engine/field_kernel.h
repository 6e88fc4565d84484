// Unified rendering contract for the surface-density kernels.
//
// The three estimators (marching — the paper's §IV-A kernel; walking — the
// DTFE-public-software 3D-grid baseline, Cautun & van de Weygaert 2011;
// tess — the zero-order Voronoi baseline) historically had divergent ad-hoc
// signatures. FieldKernel puts them behind one
//   render(cube, request, deadline, stats)
// contract over a shared FieldCube (the triangulated particle cube), and
// KernelRegistry makes them addressable by the strings the CLI and
// EngineConfig already speak ("march" / "walk" / "tess"). A new estimator is
// one FieldKernel subclass plus a case in KernelRegistry::create; nothing in
// the stages changes.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dtfe/field.h"
#include "dtfe/field_cube.h"
#include "dtfe/marching_kernel.h"
#include "dtfe/tess_kernel.h"
#include "dtfe/walking_kernel.h"
#include "util/cancel.h"

namespace dtfe::engine {

/// Kept under the engine namespace: apps and benches spell engine::FieldCube.
using dtfe::FieldCube;

/// One resolved render request: where/how to evaluate the field, which
/// estimator set to reconstruct, plus the stream seed (0 = keep the
/// kernel's configured default seed).
struct RenderRequest {
  FieldSpec spec;
  std::uint64_t seed = 0;
  FieldKind field = FieldKind::kDensity;
  /// Number of jittered realizations to average (Aragon-Calvo 2020
  /// mass-conserving stochastic smoothing); 1 = the exact legacy render.
  int smooth_ensemble = 1;
  /// Run-level seed for the analytic velocity model. Must be identical on
  /// every rank that may render this item (owner, shipped, recovery), so it
  /// is the RUN seed, never the per-item seed.
  std::uint64_t model_seed = 0;
};

/// Kernel-agnostic health counters filled by render(). Kernels without a
/// given notion leave the field at its default (ray_mass stays NaN for the
/// walking/tess routes, which tells the audit layer to skip the mass check).
struct KernelStats {
  double ray_mass = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t failed_cells = 0;
  std::uint64_t perturb_restarts = 0;
};

class FieldKernel {
 public:
  virtual ~FieldKernel() = default;
  virtual const char* name() const = 0;
  /// Render the request over the cube. `deadline` (may be null) is polled
  /// cooperatively where the kernel supports cancellation; expiry surfaces
  /// as a thrown dtfe::Error, like every other contained render failure.
  /// When request.smooth_ensemble > 1 this averages that many jittered
  /// realizations (rebuilding the tessellation per realization under the
  /// same deadline); with the default of 1 it is exactly one render_one
  /// call on the caller's cube, bit-identical to the scalar-era path.
  FieldGrid render(const FieldCube& cube, const RenderRequest& request,
                   const Deadline* deadline, KernelStats& stats) const;

 protected:
  /// One realization of the requested estimator set over one cube.
  virtual FieldGrid render_one(const FieldCube& cube,
                               const RenderRequest& request,
                               const Deadline* deadline,
                               KernelStats& stats) const = 0;
};

/// Per-kernel knobs a creation site may want to thread through the registry
/// without knowing which kernel it is naming. Defaults reproduce each
/// kernel's stock configuration.
struct KernelOptions {
  MarchingOptions marching;
  WalkingOptions walking;
  TessOptions tess;
};

class MarchingFieldKernel final : public FieldKernel {
 public:
  explicit MarchingFieldKernel(MarchingOptions base = {}) : base_(base) {}
  const char* name() const override { return "march"; }

 protected:
  FieldGrid render_one(const FieldCube& cube, const RenderRequest& request,
                       const Deadline* deadline,
                       KernelStats& stats) const override;

 private:
  MarchingOptions base_;
};

class WalkingFieldKernel final : public FieldKernel {
 public:
  explicit WalkingFieldKernel(WalkingOptions base = {}) : base_(base) {}
  const char* name() const override { return "walk"; }

 protected:
  FieldGrid render_one(const FieldCube& cube, const RenderRequest& request,
                       const Deadline* deadline,
                       KernelStats& stats) const override;

 private:
  WalkingOptions base_;
};

class TessFieldKernel final : public FieldKernel {
 public:
  explicit TessFieldKernel(TessOptions base = {}) : base_(base) {}
  const char* name() const override { return "tess"; }

 protected:
  /// Density only: the zero-order Voronoi estimator has no meaningful
  /// interpolant for vector channels, so non-density requests throw.
  FieldGrid render_one(const FieldCube& cube, const RenderRequest& request,
                       const Deadline* deadline,
                       KernelStats& stats) const override;

 private:
  TessOptions base_;
};

/// The built-in kernels by name: "march", "tess" and "walk".
class KernelRegistry {
 public:
  /// The process-wide registry.
  static const KernelRegistry& builtin();

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted

  /// Instantiate the named kernel. Throws dtfe::Error for unknown names.
  std::unique_ptr<FieldKernel> create(const std::string& name,
                                      const KernelOptions& opt = {}) const;

 private:
  KernelRegistry() = default;
};

}  // namespace dtfe::engine
