// Uniform spatial volume decomposition with ghost zones (paper §IV-B).
//
// Each rank owns one equal-size sub-volume of the periodic box ("equal size
// and not guaranteed to have an equal number of particles"). Ghost zones
// replicate particles within a distance `ghost_radius` beyond the sub-volume
// so every field whose center lies in the active region can be computed
// without further communication (the paper sizes this l_F/2).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geometry/vec3.h"
#include "nbody/particles.h"
#include "simmpi/comm.h"

namespace dtfe {

class Decomposition {
 public:
  /// Factor `nranks` into the most cubic (px, py, pz) grid over a periodic
  /// box of length `box_length`.
  Decomposition(int nranks, double box_length);

  int nranks() const { return px_ * py_ * pz_; }
  std::array<int, 3> dims() const { return {px_, py_, pz_}; }
  double box_length() const { return box_; }

  /// Rank owning the point (positions are wrapped into the box first).
  int owner_of(const Vec3& p) const;

  /// Sub-volume [lo, hi) of a rank.
  Vec3 sub_lo(int rank) const;
  Vec3 sub_hi(int rank) const;

  /// Distribute `mine` so every rank ends with exactly the particles it owns
  /// — the redistribution step after the arbitrary-block parallel read.
  std::vector<Vec3> redistribute(simmpi::Comm& comm,
                                 std::vector<Vec3> mine) const;

  /// Given the owned particles, return owned + ghost particles within
  /// `radius` of the sub-volume, ghost copies unwrapped into the sub-volume's
  /// frame (periodic images are shifted next to the boundary they pad).
  std::vector<Vec3> exchange_ghosts(simmpi::Comm& comm,
                                    const std::vector<Vec3>& owned,
                                    double radius) const;

 private:
  std::array<int, 3> coords_of(int rank) const;

  int px_, py_, pz_;
  double box_;
};

}  // namespace dtfe
