#include "nbody/snapshot_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "util/error.h"

namespace dtfe {

namespace {

constexpr std::uint64_t kMagic = 0x44544645534e4150ull;  // "DTFESNAP"

/// A missing, unreadable or malformed file is bad input, not a broken
/// invariant: throw a plain Error carrying only the message.
template <typename... Parts>
void require(bool ok, const Parts&... parts) {
  if (ok) return;
  std::ostringstream os;
  (os << ... << parts);
  throw Error(os.str());
}

template <typename T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  require(in.good(), "unexpected end of snapshot file");
  return v;
}

}  // namespace

void write_snapshot(const std::string& path, const ParticleSet& set,
                    std::size_t blocks_per_dim) {
  DTFE_CHECK(blocks_per_dim >= 1);
  const std::size_t nb = checked_cells("snapshot block grid", blocks_per_dim,
                                      blocks_per_dim, blocks_per_dim);
  const double sub = set.box_length / static_cast<double>(blocks_per_dim);

  // Bucket particles by sub-volume (the "writing rank" layout).
  auto block_of = [&](const Vec3& p) {
    auto c = [&](double v) {
      auto i = static_cast<std::size_t>(v / sub);
      return std::min(i, blocks_per_dim - 1);
    };
    return (c(p.z) * blocks_per_dim + c(p.y)) * blocks_per_dim + c(p.x);
  };
  std::vector<std::vector<std::uint32_t>> buckets(nb);
  for (std::size_t i = 0; i < set.size(); ++i)
    buckets[block_of(set.positions[i])].push_back(
        static_cast<std::uint32_t>(i));

  std::ofstream out(path, std::ios::binary);
  require(out.good(), "cannot open ", path, " for writing");
  put(out, kMagic);
  put(out, set.box_length);
  put(out, set.particle_mass);
  put(out, static_cast<std::uint64_t>(set.size()));
  put(out, static_cast<std::uint64_t>(nb));

  std::uint64_t offset = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t bx = b % blocks_per_dim;
    const std::size_t by = (b / blocks_per_dim) % blocks_per_dim;
    const std::size_t bz = b / (blocks_per_dim * blocks_per_dim);
    put(out, offset);
    put(out, static_cast<std::uint64_t>(buckets[b].size()));
    put(out, Vec3{static_cast<double>(bx) * sub, static_cast<double>(by) * sub,
                  static_cast<double>(bz) * sub});
    put(out, Vec3{static_cast<double>(bx + 1) * sub,
                  static_cast<double>(by + 1) * sub,
                  static_cast<double>(bz + 1) * sub});
    offset += buckets[b].size();
  }
  for (std::size_t b = 0; b < nb; ++b)
    for (const std::uint32_t i : buckets[b]) put(out, set.positions[i]);
  require(out.good(), "short write to ", path);
}

namespace {

std::streamoff header_byte_size(std::size_t n_blocks) {
  return static_cast<std::streamoff>(
      4 * sizeof(std::uint64_t) + sizeof(double) +
      n_blocks * (2 * sizeof(std::uint64_t) + 6 * sizeof(double)));
}

bool finite3(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

}  // namespace

SnapshotHeader read_snapshot_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open ", path);
  in.seekg(0, std::ios::end);
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0, std::ios::beg);
  require(get<std::uint64_t>(in) == kMagic, path,
          " is not a DTFE snapshot (bad magic)");
  SnapshotHeader h;
  h.box_length = get<double>(in);
  h.particle_mass = get<double>(in);
  h.n_particles = get<std::uint64_t>(in);
  const auto nb = get<std::uint64_t>(in);
  require(std::isfinite(h.box_length) && h.box_length > 0.0, path,
          ": header box length ", h.box_length, " is not usable");
  require(std::isfinite(h.particle_mass) && h.particle_mass >= 0.0, path,
          ": header particle mass ", h.particle_mass, " is not usable");
  // Implausible table sizes catch corrupt headers before resize() tries to
  // allocate by them.
  require(nb >= 1 && nb <= (1u << 24), path, ": header block count ", nb,
          " is implausible");
  require(h.n_particles <= (1ull << 40), path, ": header particle count ",
          h.n_particles, " is implausible");
  const std::streamoff expected =
      header_byte_size(static_cast<std::size_t>(nb)) +
      static_cast<std::streamoff>(h.n_particles * sizeof(Vec3));
  require(file_bytes >= expected, path, " is truncated: ", file_bytes,
          " bytes on disk, ", expected, " required for ", h.n_particles,
          " particles in ", nb, " blocks");
  h.blocks.resize(nb);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < h.blocks.size(); ++i) {
    SnapshotBlock& b = h.blocks[i];
    b.offset_particles = get<std::uint64_t>(in);
    b.count = get<std::uint64_t>(in);
    b.sub_lo = get<Vec3>(in);
    b.sub_hi = get<Vec3>(in);
    require(b.offset_particles == running, path, ": block ", i, " offset ",
            b.offset_particles, " breaks the contiguous layout (expected ",
            running, ")");
    require(b.count <= h.n_particles - running, path, ": block ", i,
            " count ", b.count, " overruns the ", h.n_particles,
            " particles in the file");
    require(finite3(b.sub_lo) && finite3(b.sub_hi) &&
                b.sub_lo.x <= b.sub_hi.x && b.sub_lo.y <= b.sub_hi.y &&
                b.sub_lo.z <= b.sub_hi.z,
            path, ": block ", i, " has a malformed sub-volume");
    running += b.count;
  }
  require(running == h.n_particles, path, ": block counts sum to ", running,
          " but header promises ", h.n_particles, " particles");
  return h;
}

std::vector<Vec3> read_snapshot_block(const std::string& path,
                                      const SnapshotHeader& header,
                                      std::size_t block_index) {
  DTFE_CHECK_MSG(block_index < header.blocks.size(),
                 "block index " << block_index << " out of range for "
                                << header.blocks.size() << "-block snapshot "
                                << path);
  const SnapshotBlock& b = header.blocks[block_index];
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open ", path);
  in.seekg(0, std::ios::end);
  const std::streamoff file_bytes = in.tellg();
  const std::streamoff begin =
      header_byte_size(header.blocks.size()) +
      static_cast<std::streamoff>(b.offset_particles * sizeof(Vec3));
  const std::streamoff need =
      begin + static_cast<std::streamoff>(b.count * sizeof(Vec3));
  require(file_bytes >= need, path, " is truncated reading block ",
          block_index, ": ", file_bytes, " bytes on disk, ", need,
          " required for the block's ", b.count, " particles");
  in.seekg(begin);
  std::vector<Vec3> out(b.count);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(b.count * sizeof(Vec3)));
  require(in.good(), "unexpected end of snapshot file ", path, " in block ",
          block_index);
  return out;
}

std::vector<Vec3> read_snapshot_cube(const std::string& path,
                                     const SnapshotHeader& header,
                                     const Vec3& center, double side) {
  const double box = header.box_length;
  const double h = 0.5 * side;
  // A block intersects the periodic cube iff some periodic image of its
  // sub-volume overlaps [center - h, center + h] per dimension.
  auto overlaps = [&](double lo, double hi, double c) {
    for (const double shift : {-box, 0.0, box})
      if (lo + shift < c + h && hi + shift > c - h) return true;
    return false;
  };
  std::vector<Vec3> out;
  for (std::size_t i = 0; i < header.blocks.size(); ++i) {
    const SnapshotBlock& b = header.blocks[i];
    if (b.count == 0) continue;
    if (!overlaps(b.sub_lo.x, b.sub_hi.x, center.x) ||
        !overlaps(b.sub_lo.y, b.sub_hi.y, center.y) ||
        !overlaps(b.sub_lo.z, b.sub_hi.z, center.z))
      continue;
    for (const Vec3& p : read_snapshot_block(path, header, i)) {
      const Vec3 d = min_image(p - center, box);
      if (std::abs(d.x) <= h && std::abs(d.y) <= h && std::abs(d.z) <= h)
        out.push_back(center + d);
    }
  }
  return out;
}

ParticleSet read_snapshot(const std::string& path) {
  const SnapshotHeader h = read_snapshot_header(path);
  ParticleSet set;
  set.box_length = h.box_length;
  set.particle_mass = h.particle_mass;
  set.positions.reserve(h.n_particles);
  for (std::size_t b = 0; b < h.blocks.size(); ++b) {
    const auto block = read_snapshot_block(path, h, b);
    set.positions.insert(set.positions.end(), block.begin(), block.end());
  }
  return set;
}

}  // namespace dtfe
