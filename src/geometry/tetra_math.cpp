#include "geometry/tetra_math.h"

namespace dtfe {

Vec3 tetra_circumcenter(const Vec3& a, const Vec3& b, const Vec3& c,
                        const Vec3& d) {
  // Solve 2(B−A)·x = |B|²−|A|² etc. relative to a to reduce cancellation.
  const Vec3 u = b - a, v = c - a, w = d - a;
  const double uu = u.norm2() * 0.5, vv = v.norm2() * 0.5, ww = w.norm2() * 0.5;

  const Vec3 vxw = v.cross(w);
  const Vec3 wxu = w.cross(u);
  const Vec3 uxv = u.cross(v);
  const double det = u.dot(vxw);
  if (det == 0.0) {
    return {1e300, 1e300, 1e300};  // flat tetra: no finite circumcenter
  }
  const Vec3 rel = (vxw * uu + wxu * vv + uxv * ww) / det;
  return a + rel;
}

}  // namespace dtfe
