#include "dtfe/velocity_model.h"

#include <cmath>

#include "util/rng.h"

namespace dtfe {

namespace {

constexpr int kModes = 6;

double unit_interval(std::uint64_t& state) {
  return static_cast<double>(detail::splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

VelocityModel::VelocityModel(std::uint64_t seed, double box, double vscale) {
  // Derive every mode from one splitmix stream: the draw order below is part
  // of the determinism contract (resume and recovery replay it).
  std::uint64_t state = seed ^ 0x76656c6f63697479ull;  // "velocity"
  modes_.reserve(kModes);
  const double two_pi = 2.0 * M_PI;
  for (int m = 0; m < kModes; ++m) {
    Mode mode;
    // Wavelength between box and box/4: long modes dominate so the field is
    // smooth on the cube scale, which keeps divergence spot checks stable.
    const double wavelength = box / (1.0 + 3.0 * unit_interval(state));
    const double k = two_pi / wavelength;
    // Isotropic direction via (cos θ uniform, φ uniform).
    const double cos_t = 2.0 * unit_interval(state) - 1.0;
    const double sin_t = std::sqrt(std::max(0.0, 1.0 - cos_t * cos_t));
    const double phi = two_pi * unit_interval(state);
    mode.wavevector = {k * sin_t * std::cos(phi), k * sin_t * std::sin(phi),
                       k * cos_t};
    const double a = vscale * (0.5 + unit_interval(state)) /
                     static_cast<double>(kModes);
    const double cos_ta = 2.0 * unit_interval(state) - 1.0;
    const double sin_ta = std::sqrt(std::max(0.0, 1.0 - cos_ta * cos_ta));
    const double phi_a = two_pi * unit_interval(state);
    mode.amplitude = {a * sin_ta * std::cos(phi_a), a * sin_ta * std::sin(phi_a),
                      a * cos_ta};
    mode.phase = two_pi * unit_interval(state);
    modes_.push_back(mode);
  }
}

Vec3 VelocityModel::operator()(const Vec3& p) const {
  Vec3 v;
  for (const Mode& m : modes_)
    v += m.amplitude * std::cos(m.wavevector.dot(p) + m.phase);
  return v;
}

std::vector<Vec3> VelocityModel::sample(std::span<const Vec3> positions) const {
  std::vector<Vec3> out;
  out.reserve(positions.size());
  for (const Vec3& p : positions) out.push_back((*this)(p));
  return out;
}

}  // namespace dtfe
