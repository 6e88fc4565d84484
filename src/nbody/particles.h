// Particle containers and periodic-box helpers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/vec3.h"

namespace dtfe {

/// A snapshot of equal-mass tracer particles in a periodic cubic box
/// [0, box_length)^3 — the shape of the HACC/Gadget datasets the paper
/// consumes.
struct ParticleSet {
  std::vector<Vec3> positions;
  double box_length = 1.0;
  double particle_mass = 1.0;

  std::size_t size() const { return positions.size(); }
  double total_mass() const {
    return particle_mass * static_cast<double>(positions.size());
  }
};

/// Wrap x into [0, box).
inline double wrap_periodic(double x, double box) {
  x -= box * static_cast<double>(static_cast<long long>(x / box));
  if (x < 0.0) x += box;
  if (x >= box) x -= box;  // guards the x == box rounding case
  return x;
}

inline Vec3 wrap_periodic(const Vec3& p, double box) {
  return {wrap_periodic(p.x, box), wrap_periodic(p.y, box),
          wrap_periodic(p.z, box)};
}

/// Minimum-image displacement a−b in a periodic box.
inline double min_image(double d, double box) {
  if (d > 0.5 * box) d -= box;
  if (d < -0.5 * box) d += box;
  return d;
}

inline Vec3 min_image(const Vec3& d, double box) {
  return {min_image(d.x, box), min_image(d.y, box), min_image(d.z, box)};
}

/// Squared minimum-image distance.
inline double periodic_dist2(const Vec3& a, const Vec3& b, double box) {
  return min_image(a - b, box).norm2();
}

/// Collect all particles within the axis-aligned cube centered at `center`
/// with side `side`, unwrapped into the cube's frame (periodic images are
/// translated next to the center) — this is how a field sub-volume plus its
/// ghost shell is extracted from the global box.
std::vector<Vec3> extract_cube(const ParticleSet& set, const Vec3& center,
                               double side);

/// What to do with particles whose position is non-finite or outside
/// [0, box)^3 (real snapshots contain both: sensor glitches, unwrapped
/// coordinates from the writing code, flipped bits on disk).
enum class BadParticlePolicy {
  kReject,  ///< throw dtfe::Error naming the counts (default: fail loudly)
  kDrop,    ///< remove offending particles
  kClamp,   ///< wrap out-of-box positions into the box; drop non-finite ones
};

struct SanitizeCounts {
  std::size_t non_finite = 0;   ///< NaN/Inf coordinate (always unusable)
  std::size_t out_of_box = 0;   ///< finite but outside [0, box)^3
  std::size_t dropped = 0;      ///< removed from the array
  std::size_t clamped = 0;      ///< wrapped back into the box
  std::size_t bad() const { return non_finite + out_of_box; }
};

/// Validate and repair `positions` in place under `policy`. Returns the
/// tallies; throws dtfe::Error (after scanning everything, so the message
/// carries full counts) when policy is kReject and any particle is bad.
SanitizeCounts sanitize_positions(std::vector<Vec3>& positions, double box,
                                  BadParticlePolicy policy);

/// All positions plus the periodic images within `pad` outside the box on
/// every side: build a FieldCube (or a Reconstructor, which holds one) on
/// this to render full-box fields without convex-hull boundary artifacts
/// (the hull then encloses the whole box with correctly replicated
/// neighbors). pad must be < box/2.
std::vector<Vec3> with_periodic_pad(const ParticleSet& set, double pad);

}  // namespace dtfe
