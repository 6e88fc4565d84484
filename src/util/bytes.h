// The one binary byte codec: work packages and checkpoint journal records
// are both written with ByteWriter and read back with ByteReader.
//
// Values are stored in host byte order (PODs memcpy'd; vectors prefixed
// with a 64-bit length): every stream is read by the same binary on the
// same host that wrote it. ByteReader is bounds-checked and throws
// dtfe::Error on any read past the end, so a truncated or malformed stream
// can never be misread — callers catch the Error and reject the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace dtfe {

/// FNV-1a 64-bit over a byte range (the work-package and journal record
/// checksum; tests also use it to fingerprint grids).
inline std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw({reinterpret_cast<const std::byte*>(&v), sizeof(T)});
  }
  /// The elements alone, with no length prefix (the reader knows n).
  template <typename T>
  void pods(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(std::as_bytes(v));
  }
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    pod(static_cast<std::uint64_t>(v.size()));
    pods(std::span<const T>(v));
  }
  void raw(std::span<const std::byte> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  /// `what` names the stream in error messages ("work package", ...).
  ByteReader(std::span<const std::byte> bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  template <typename T>
  T pod() {
    T v{};
    pods(std::span<T>(&v, 1));
    return v;
  }
  /// Fill `out` from the next out.size() elements (no length prefix).
  template <typename T>
  void pods(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const std::byte> b = raw(out.size_bytes());
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
  }
  template <typename T>
  std::vector<T> pod_vec() {
    std::vector<T> v(len(sizeof(T)));
    pods(std::span<T>(v));
    return v;
  }
  /// A 64-bit count of items of `item_bytes` each, checked to fit in what
  /// is left of the stream.
  std::size_t len(std::size_t item_bytes) {
    const auto n = pod<std::uint64_t>();
    DTFE_CHECK_MSG(n <= left() / item_bytes,
                   what_ << ": count " << n << " overruns the buffer");
    return static_cast<std::size_t>(n);
  }
  /// The next n bytes, as a view into the stream.
  std::span<const std::byte> raw(std::size_t n) {
    DTFE_CHECK_MSG(n <= left(), what_ << ": truncated at offset " << off_);
    const std::span<const std::byte> b = bytes_.subspan(off_, n);
    off_ += n;
    return b;
  }
  std::size_t left() const { return bytes_.size() - off_; }
  bool done() const { return off_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  const char* what_;
  std::size_t off_ = 0;
};

}  // namespace dtfe
