// Minimal command-line flag parsing for the pdtfe tool and examples.
//
// Supports `--key value` and `--key=value` pairs after a positional
// subcommand; typed accessors with defaults; unknown-flag detection. Every
// malformed argument throws a dtfe::Error whose message names it, so a
// driver can print it next to its usage line.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/error.h"

namespace dtfe {

class CliArgs {
 public:
  /// Parse argv after `first` (typically 2: skip program + subcommand).
  CliArgs(int argc, char** argv, int first = 2) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw Error("expected --flag, got '" + arg + "'");
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else {
        if (i + 1 >= argc) throw Error("missing value for --" + arg);
        values_[arg] = argv[++i];
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Numeric getters throw dtfe::Error naming the flag when the value is
  /// empty, has trailing characters, or is out of range.
  double get(const std::string& key, double fallback) const {
    return parse_number(key, fallback, [](const char* s, char** end) {
      return std::strtod(s, end);
    });
  }
  long get(const std::string& key, long fallback) const {
    return parse_number(key, fallback, [](const char* s, char** end) {
      return std::strtol(s, end, 10);
    });
  }

  /// Throws if any flag outside `known` was provided (typo guard).
  void check_known(const std::vector<std::string>& known) const {
    for (const auto& [k, v] : values_) {
      bool ok = false;
      for (const auto& name : known)
        if (k == name) ok = true;
      if (!ok) throw Error("unknown flag --" + k);
    }
  }

 private:
  template <typename T, typename Parse>
  T parse_number(const std::string& key, T fallback, Parse parse) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const T v = parse(s, &end);
    if (end == s || *end != '\0')
      throw Error("--" + key + " expects a number, got '" + it->second + "'");
    if (errno == ERANGE)
      throw Error("--" + key + " is out of range: " + it->second);
    return v;
  }

  std::map<std::string, std::string> values_;
};

/// Integer flag checked against [lo, hi] before the caller narrows it, so an
/// out-of-range value can never wrap through the cast. Throws dtfe::Error
/// naming the flag and the range.
inline long bounded_flag(const CliArgs& args, const std::string& flag,
                         long fallback, long lo, long hi) {
  const long v = args.get(flag, fallback);
  if (v < lo || v > hi)
    throw Error("--" + flag + " must be " +
                (hi == LONG_MAX ? ">= " + std::to_string(lo)
                                : "in [" + std::to_string(lo) + ", " +
                                      std::to_string(hi) + "]") +
                ", got " + std::to_string(v));
  return v;
}

/// The flag quartet every field-producing subcommand understands. Each
/// command passes its own defaults (render: grid 512; pipeline: grid 64,
/// length 5; lensing: grid 256, length 8) and ignores the fields it has no
/// flag for — parsing stays in one place instead of three.
struct CommonFieldFlags {
  std::string in;         ///< --in: input snapshot path
  std::size_t grid = 0;   ///< --grid: output resolution (cells per side)
  double length = 0.0;    ///< --length: physical field side
  std::string method;     ///< --method: kernel name ("march", "walk", ...)
};

/// Throws dtfe::Error for --grid < 1.
inline CommonFieldFlags parse_common_field_flags(
    const CliArgs& args, long default_grid, double default_length = 0.0,
    const std::string& default_method = "march") {
  CommonFieldFlags f;
  f.in = args.get("in", std::string{});
  // Checked before the unsigned cast: --grid -3 would otherwise wrap to
  // 2^64 − 3 cells per side.
  const long grid = args.get("grid", default_grid);
  if (grid < 1) throw Error("--grid must be >= 1");
  f.grid = static_cast<std::size_t>(grid);
  f.length = args.get("length", default_length);
  f.method = args.get("method", default_method);
  return f;
}

}  // namespace dtfe
