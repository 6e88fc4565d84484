#include "framework/durable.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <span>

#include "util/bytes.h"
#include "util/error.h"

namespace dtfe {

namespace {

// "DTFECKP2" little-endian: the per-record magic. The payload is the
// request index followed by the FieldGrid layout of write_field_grid.
// Bump the trailing digit on any layout change — mismatched journals are
// then ignored, not misread.
constexpr std::uint64_t kRecordMagic = 0x32504B4345465444ull;
// "DTFECKP1": the single-plane density records earlier builds wrote
// (payload = request_index | nx | ny | values). Read, never written, so
// their journals still resume.
constexpr std::uint64_t kRecordMagicV1 = 0x31504B4345465444ull;

namespace fs = std::filesystem;

std::string journal_name(int rank) {
  return "journal-rank-" + std::to_string(rank) + ".ckpt";
}

/// The FieldGrid layout of a record: kind | plane count | nx | ny | plane
/// values (plane 0 first, row-major within each plane), every header field
/// a uint64.
void write_field_grid(ByteWriter& w, const FieldGrid& grid) {
  w.pod(static_cast<std::uint64_t>(grid.kind()));
  w.pod(static_cast<std::uint64_t>(grid.channels()));
  w.pod(static_cast<std::uint64_t>(grid.nx()));
  w.pod(static_cast<std::uint64_t>(grid.ny()));
  for (std::size_t c = 0; c < grid.channels(); ++c)
    w.pods(grid.plane(c).values());
}

/// Throws dtfe::Error on a truncated grid, an unknown kind, or a plane
/// count that does not match the kind.
FieldGrid read_field_grid(ByteReader& r) {
  const auto kind_raw = r.pod<std::uint64_t>();
  DTFE_CHECK_MSG(kind_raw <= static_cast<std::uint64_t>(FieldKind::kGrad),
                 "field grid: bad field kind " << kind_raw);
  const auto kind = static_cast<FieldKind>(kind_raw);
  const auto nplanes = r.pod<std::uint64_t>();
  DTFE_CHECK_MSG(nplanes == field_channels(kind),
                 "field grid: " << nplanes << " planes for field "
                                << field_kind_name(kind));
  const auto nx = static_cast<std::size_t>(r.pod<std::uint64_t>());
  const auto ny = static_cast<std::size_t>(r.pod<std::uint64_t>());
  DTFE_CHECK_MSG(checked_cells("field grid", nx, ny, nplanes) <=
                     r.left() / sizeof(double),
                 "field grid: " << nplanes << " planes of " << nx << "x" << ny
                                << " overrun the buffer");
  std::vector<Grid2D> planes(nplanes, Grid2D(nx, ny));
  for (Grid2D& plane : planes) r.pods(plane.values());
  return FieldGrid(kind, std::move(planes));
}

FieldGrid read_v1_grid(ByteReader& r) {
  const auto nx = static_cast<std::size_t>(r.pod<std::uint64_t>());
  const auto ny = static_cast<std::size_t>(r.pod<std::uint64_t>());
  DTFE_CHECK_MSG(checked_cells("v1 record", nx, ny) <=
                     r.left() / sizeof(double),
                 "v1 record: " << nx << "x" << ny << " overruns the payload");
  Grid2D plane(nx, ny);
  r.pods(plane.values());
  return FieldGrid(std::move(plane));
}

/// Decode one checksummed record payload; false if it is malformed.
bool decode_record(std::uint64_t magic, std::span<const std::byte> payload,
                   CheckpointItem& item) {
  try {
    ByteReader r(payload, "checkpoint record");
    item.request_index = static_cast<std::int64_t>(r.pod<std::uint64_t>());
    item.grid = magic == kRecordMagicV1 ? read_v1_grid(r) : read_field_grid(r);
    return r.done();
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

CheckpointWriter::CheckpointWriter(const std::string& dir, int rank) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // ok if it already exists
  path_ = (fs::path(dir) / journal_name(rank)).string();
  FILE* f = std::fopen(path_.c_str(), "ab");
  DTFE_CHECK_MSG(f != nullptr, "cannot open checkpoint journal " + path_);
  file_ = f;
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(static_cast<FILE*>(file_));
}

void CheckpointWriter::append(std::int64_t request_index,
                              const FieldGrid& grid) {
  // Record layout: magic | payload_bytes | payload | fnv1a64(payload). A
  // crash between the write and the fsync can only tear the LAST record,
  // which the loader detects.
  ByteWriter payload;
  payload.pod(static_cast<std::uint64_t>(request_index));
  write_field_grid(payload, grid);
  const std::span<const std::byte> body = payload.bytes();
  ByteWriter record;
  record.pod(kRecordMagic);
  record.pod(static_cast<std::uint64_t>(body.size()));
  record.raw(body);
  record.pod(fnv1a64(body.data(), body.size()));

  FILE* f = static_cast<FILE*>(file_);
  const std::span<const std::byte> out = record.bytes();
  const std::size_t wrote = std::fwrite(out.data(), 1, out.size(), f);
  DTFE_CHECK_MSG(wrote == out.size(),
                 "short write to checkpoint journal " + path_);
  DTFE_CHECK_MSG(std::fflush(f) == 0,
                 "cannot flush checkpoint journal " + path_);
  // Durability point: after this returns the record survives a crash.
  fsync(fileno(f));
  ++records_written_;
}

std::vector<CheckpointItem> load_checkpoints(const std::string& dir) {
  std::vector<CheckpointItem> items;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return items;

  // Deterministic replay order: sort the journal paths.
  std::vector<fs::path> journals;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("journal-rank-", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".ckpt")
      journals.push_back(e.path());
  }
  std::sort(journals.begin(), journals.end());

  std::set<std::int64_t> seen;
  for (const fs::path& jp : journals) {
    FILE* f = std::fopen(jp.string().c_str(), "rb");
    if (f == nullptr) continue;
    for (;;) {
      std::uint64_t head[2] = {};  // magic, payload bytes
      if (std::fread(head, 1, sizeof head, f) != sizeof head)
        break;                                      // clean EOF or torn
      if (head[0] != kRecordMagic && head[0] != kRecordMagicV1)
        break;                                      // corrupt: stop here
      if (head[1] > (1ull << 32)) break;
      std::vector<std::byte> payload(head[1]);
      if (std::fread(payload.data(), 1, payload.size(), f) != payload.size())
        break;                                      // torn
      std::uint64_t sum = 0;
      if (std::fread(&sum, 1, sizeof sum, f) != sizeof sum) break;  // torn
      if (sum != fnv1a64(payload.data(), payload.size())) break;  // bit damage
      CheckpointItem item;
      if (!decode_record(head[0], payload, item)) break;
      if (!seen.insert(item.request_index).second) continue;  // duplicate
      items.push_back(std::move(item));
    }
    std::fclose(f);
  }
  return items;
}

void write_checkpoint_manifest(const std::string& dir,
                               const std::string& fingerprint) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  // Temp name unique per writer. Pid alone is NOT unique: simmpi ranks are
  // threads of one process, and every rank publishes the manifest. All
  // writers produce identical bytes, so rename order cannot matter — but
  // each needs its own temp file or a loser renames a path the winner
  // already moved.
  static std::atomic<unsigned> manifest_seq{0};
  const fs::path tmp = fs::path(dir) /
      ("manifest.tmp." + std::to_string(::getpid()) + "." +
       std::to_string(manifest_seq.fetch_add(1)));
  const fs::path dst = fs::path(dir) / "manifest.txt";
  FILE* f = std::fopen(tmp.string().c_str(), "wb");
  DTFE_CHECK_MSG(f != nullptr, "cannot write checkpoint manifest in " + dir);
  std::fwrite(fingerprint.data(), 1, fingerprint.size(), f);
  std::fflush(f);
  fsync(fileno(f));
  std::fclose(f);
  fs::rename(tmp, dst, ec);
  DTFE_CHECK_MSG(!ec, "cannot publish checkpoint manifest in " + dir);
}

std::string read_checkpoint_manifest(const std::string& dir) {
  const fs::path p = fs::path(dir) / "manifest.txt";
  FILE* f = std::fopen(p.string().c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace dtfe
