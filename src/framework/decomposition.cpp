#include "framework/decomposition.h"

#include <algorithm>

#include "util/error.h"

namespace dtfe {

namespace {
constexpr int kTagRedistribute = 100;
constexpr int kTagGhost = 101;
}  // namespace

Decomposition::Decomposition(int nranks, double box_length)
    : box_(box_length) {
  DTFE_CHECK(nranks >= 1);
  DTFE_CHECK(box_length > 0.0);
  // Most-cubic factorization: split the largest remaining factor each time.
  int dims[3] = {1, 1, 1};
  int n = nranks;
  for (int f = 2; f <= n;) {
    if (n % f == 0) {
      int* smallest = std::min_element(dims, dims + 3);
      *smallest *= f;
      n /= f;
    } else {
      ++f;
    }
  }
  std::sort(dims, dims + 3);
  px_ = dims[2];
  py_ = dims[1];
  pz_ = dims[0];
  DTFE_CHECK(px_ * py_ * pz_ == nranks);
}

std::array<int, 3> Decomposition::coords_of(int rank) const {
  return {rank % px_, (rank / px_) % py_, rank / (px_ * py_)};
}

int Decomposition::owner_of(const Vec3& p) const {
  const Vec3 w = wrap_periodic(p, box_);
  auto coord = [&](double v, int n) {
    auto c = static_cast<int>(v / box_ * n);
    return std::clamp(c, 0, n - 1);
  };
  return (coord(w.z, pz_) * py_ + coord(w.y, py_)) * px_ + coord(w.x, px_);
}

Vec3 Decomposition::sub_lo(int rank) const {
  const auto c = coords_of(rank);
  return {box_ * c[0] / px_, box_ * c[1] / py_, box_ * c[2] / pz_};
}

Vec3 Decomposition::sub_hi(int rank) const {
  const auto c = coords_of(rank);
  return {box_ * (c[0] + 1) / px_, box_ * (c[1] + 1) / py_,
          box_ * (c[2] + 1) / pz_};
}

std::vector<Vec3> Decomposition::redistribute(simmpi::Comm& comm,
                                              std::vector<Vec3> mine) const {
  const int P = comm.size();
  std::vector<std::vector<Vec3>> outgoing(static_cast<std::size_t>(P));
  for (const Vec3& p : mine)
    outgoing[static_cast<std::size_t>(owner_of(p))].push_back(
        wrap_periodic(p, box_));

  std::vector<Vec3> owned =
      std::move(outgoing[static_cast<std::size_t>(comm.rank())]);
  for (int r = 0; r < P; ++r) {
    if (r == comm.rank()) continue;
    comm.send_vector<Vec3>(r, kTagRedistribute,
                           outgoing[static_cast<std::size_t>(r)]);
  }
  for (int r = 0; r < P; ++r) {
    if (r == comm.rank()) continue;
    const auto in = comm.recv_vector<Vec3>(r, kTagRedistribute);
    owned.insert(owned.end(), in.begin(), in.end());
  }
  return owned;
}

std::vector<Vec3> Decomposition::exchange_ghosts(
    simmpi::Comm& comm, const std::vector<Vec3>& owned, double radius) const {
  const int P = comm.size();
  DTFE_CHECK_MSG(radius >= 0.0 && radius <= 0.5 * box_,
                 "ghost radius must be in [0, box/2]");

  // For each destination rank, ship every periodic image of every owned
  // particle that falls inside the destination's extended sub-volume; the
  // image coordinates are sent directly so the receiver's point set is
  // spatially contiguous around its sub-volume (required by the Delaunay
  // kernels, which know nothing about periodicity).
  std::vector<std::vector<Vec3>> outgoing(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const Vec3 lo = sub_lo(r), hi = sub_hi(r);
    // Candidate image shifts per dimension: those for which the shifted box
    // [0,L) can overlap [lo−radius, hi+radius].
    auto shifts = [&](double l, double h) {
      std::vector<double> s;
      for (const double cand : {-box_, 0.0, box_})
        if (cand < h + radius && cand + box_ > l - radius) s.push_back(cand);
      return s;
    };
    const auto sx = shifts(lo.x, hi.x);
    const auto sy = shifts(lo.y, hi.y);
    const auto sz = shifts(lo.z, hi.z);
    auto& out = outgoing[static_cast<std::size_t>(r)];
    for (const Vec3& p : owned) {
      for (const double dx : sx)
        for (const double dy : sy)
          for (const double dz : sz) {
            const Vec3 q{p.x + dx, p.y + dy, p.z + dz};
            if (q.x < lo.x - radius || q.x > hi.x + radius) continue;
            if (q.y < lo.y - radius || q.y > hi.y + radius) continue;
            if (q.z < lo.z - radius || q.z > hi.z + radius) continue;
            if (r == comm.rank() && dx == 0.0 && dy == 0.0 && dz == 0.0)
              continue;  // the owned copy itself is already present
            // Exclude points interior to the destination's own volume for
            // remote ranks (those arrive via ownership, not as ghosts).
            if (r != comm.rank() && q.x >= lo.x && q.x < hi.x &&
                q.y >= lo.y && q.y < hi.y && q.z >= lo.z && q.z < hi.z)
              continue;
            out.push_back(q);
          }
    }
  }

  std::vector<Vec3> result = owned;
  const auto& self = outgoing[static_cast<std::size_t>(comm.rank())];
  result.insert(result.end(), self.begin(), self.end());
  for (int r = 0; r < P; ++r) {
    if (r == comm.rank()) continue;
    comm.send_vector<Vec3>(r, kTagGhost, outgoing[static_cast<std::size_t>(r)]);
  }
  for (int r = 0; r < P; ++r) {
    if (r == comm.rank()) continue;
    const auto in = comm.recv_vector<Vec3>(r, kTagGhost);
    result.insert(result.end(), in.begin(), in.end());
  }
  return result;
}

}  // namespace dtfe
