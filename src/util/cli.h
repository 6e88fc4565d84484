// Minimal command-line flag parsing for the pdtfe tool and examples.
//
// Supports `--key value` and `--key=value` pairs after a positional
// subcommand; typed accessors with defaults; unknown-flag detection.
#pragma once

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
      DTFE_CHECK_MSG(arg.rfind("--", 0) == 0, "expected --flag, got " << arg);
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else {
        DTFE_CHECK_MSG(i + 1 < argc, "missing value for --" << arg);
        values_[arg] = argv[++i];
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double get(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  long get(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtol(it->second.c_str(), nullptr, 10);
  }

  /// Throws if any flag outside `known` was provided (typo guard).
  void check_known(const std::vector<std::string>& known) const {
    for (const auto& [k, v] : values_) {
      bool ok = false;
      for (const auto& name : known)
        if (k == name) ok = true;
      DTFE_CHECK_MSG(ok, "unknown flag --" << k);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

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
