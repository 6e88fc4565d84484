// Friends-of-friends halo finder (union-find over sorted occupied cells).
//
// The paper's large-scale experiment centers 233k fields on "the most
// massive objects found by a density based clustering algorithm", and the
// galaxy-galaxy experiment places fields at model-assigned galaxy positions
// in the densest regions. FOF supplies both: group particles whose mutual
// distance is below b× the mean interparticle spacing, rank groups by mass.
//
// Particles are hashed into cells of side >= the linking length, keyed by
// a packed 64-bit cell key and sorted; only occupied cells are visited, each
// against its 13 forward stencil neighbors. Memory is O(n) however small b
// is (at most 2^21 cells per axis; coarser cells stay exact, only slower).
// Positions are expected in [0, box)^3; an out-of-box one is hashed into the
// nearest edge cell, and a non-finite one links to nothing and stays a
// singleton.
//
// The search runs on the calling thread's team (util/parallel.h): the keys
// are written into z slabs that sort one per task, and chunks of home cells
// take their pairs concurrently, linking through a compare-and-swap
// union-find whose roots are always their sets' smallest members. The
// groups (order, members and center bits) are the same for any team size
// or schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "nbody/particles.h"

namespace dtfe {

struct FofOptions {
  /// Linking length in units of the mean interparticle spacing n^{-1/3}.
  double linking_parameter = 0.2;
  /// Groups below this size are discarded.
  std::size_t min_group_size = 8;
  bool periodic = true;
};

struct FofGroup {
  std::vector<std::uint32_t> members;  ///< particle indices
  Vec3 center;                         ///< center of mass (minimum image)
  std::size_t size() const { return members.size(); }
};

/// Returns groups sorted by descending size; each group's members ascend.
/// Throws dtfe::Error unless `set.box_length` and `opt.linking_parameter`
/// are finite and positive.
std::vector<FofGroup> find_fof_groups(const ParticleSet& set,
                                      const FofOptions& opt = {});

}  // namespace dtfe
