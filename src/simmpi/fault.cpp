#include "simmpi/fault.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/error.h"

namespace dtfe::simmpi {

namespace {

// Injected-fault tallies (README "Fault tolerance").
struct FaultMetrics {
  obs::MetricId ranks_killed = obs::counter("dtfe.fault.ranks_killed");
  obs::MetricId dropped = obs::counter("dtfe.fault.messages_dropped");
  obs::MetricId truncated = obs::counter("dtfe.fault.messages_truncated");
  obs::MetricId bitflipped = obs::counter("dtfe.fault.messages_bitflipped");
  obs::MetricId delayed = obs::counter("dtfe.fault.messages_delayed");
  obs::MetricId rank_failed =
      obs::counter("dtfe.fault.rank_failed_notifications");
};

const FaultMetrics& fault_metrics() {
  static const FaultMetrics m;
  return m;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
}

std::int64_t parse_int(const std::string& clause, const std::string& v) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  DTFE_CHECK_MSG(end && *end == '\0' && !v.empty(),
                 "fault plan: bad integer '" << v << "' in clause '" << clause
                                             << "'");
  return x;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      plan.seed = static_cast<std::uint64_t>(
          parse_int(clause, clause.substr(5)));
      continue;
    }
    const std::size_t colon = clause.find(':');
    const std::string action = clause.substr(0, colon);
    FaultRule rule;
    if (action == "kill") {
      rule.action = FaultAction::kKill;
    } else if (action == "drop") {
      rule.action = FaultAction::kDrop;
    } else if (action == "trunc") {
      rule.action = FaultAction::kTruncate;
    } else if (action == "flip") {
      rule.action = FaultAction::kBitFlip;
    } else if (action == "delay") {
      rule.action = FaultAction::kDelay;
    } else {
      DTFE_CHECK_MSG(false, "fault plan: unknown action '"
                                << action << "' in clause '" << clause << "'");
    }
    if (colon != std::string::npos) {
      for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
        const std::size_t eq = kv.find('=');
        DTFE_CHECK_MSG(eq != std::string::npos,
                       "fault plan: expected key=value, got '"
                           << kv << "' in clause '" << clause << "'");
        const std::string key = kv.substr(0, eq);
        const std::int64_t val = parse_int(clause, kv.substr(eq + 1));
        if (key == "rank") {
          rule.rank = static_cast<int>(val);
        } else if (key == "at") {
          rule.at = static_cast<std::uint64_t>(val);
        } else if (key == "src") {
          rule.src = static_cast<int>(val);
        } else if (key == "dst") {
          rule.dst = static_cast<int>(val);
        } else if (key == "nth") {
          rule.nth = static_cast<std::uint64_t>(val);
        } else if (key == "tag") {
          rule.tag = static_cast<int>(val);
        } else if (key == "bytes") {
          rule.bytes = static_cast<std::uint64_t>(val);
        } else if (key == "byte") {
          rule.byte = val;
        } else if (key == "bit") {
          rule.bit = static_cast<int>(val);
        } else if (key == "ms") {
          rule.delay_ms = static_cast<std::uint64_t>(val);
        } else {
          DTFE_CHECK_MSG(false, "fault plan: unknown key '"
                                    << key << "' in clause '" << clause
                                    << "'");
        }
      }
    }
    if (rule.action == FaultAction::kKill) {
      DTFE_CHECK_MSG(rule.rank >= 0, "fault plan: kill needs rank= in clause '"
                                         << clause << "'");
      DTFE_CHECK_MSG(rule.at >= 1,
                     "fault plan: kill at= is 1-based in clause '" << clause
                                                                   << "'");
    } else {
      DTFE_CHECK_MSG(rule.src >= 0 && rule.dst >= 0,
                     "fault plan: message fault needs src= and dst= in clause '"
                         << clause << "'");
      DTFE_CHECK_MSG(rule.nth >= 1,
                     "fault plan: nth= is 1-based in clause '" << clause
                                                               << "'");
      if (rule.action == FaultAction::kDelay)
        DTFE_CHECK_MSG(rule.delay_ms > 0,
                       "fault plan: delay needs ms= in clause '" << clause
                                                                 << "'");
      if (rule.action == FaultAction::kBitFlip)
        DTFE_CHECK_MSG(rule.bit < 8,
                       "fault plan: flip bit= must be 0-7 in clause '"
                           << clause << "'");
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultArbiter::FaultArbiter(const FaultPlan* plan)
    : seed_(plan ? plan->seed : 1) {
  if (plan)
    for (const FaultRule& r : plan->rules) rules_.emplace_back(r);
}

bool FaultArbiter::on_comm_op(int rank, int tag) {
  if (rules_.empty()) return false;
  for (LiveRule& lr : rules_) {
    if (lr.fired.load(std::memory_order_relaxed) ||
        lr.r.action != FaultAction::kKill || lr.r.rank != rank)
      continue;
    if (lr.r.tag != -1 && lr.r.tag != tag) continue;
    if (lr.count.fetch_add(1, std::memory_order_relaxed) + 1 < lr.r.at)
      continue;
    lr.fired.store(true, std::memory_order_relaxed);
    if (obs::metrics_enabled()) obs::add(fault_metrics().ranks_killed);
    return true;
  }
  return false;
}

bool FaultArbiter::apply_message_faults(int src, int dst, int tag,
                                        std::vector<std::byte>& payload,
                                        std::uint64_t& delay_ms) {
  bool keep = true;
  for (LiveRule& lr : rules_) {
    if (lr.fired.load(std::memory_order_relaxed) ||
        lr.r.action == FaultAction::kKill)
      continue;
    if (lr.r.src != src || lr.r.dst != dst) continue;
    if (lr.r.tag != -1 && lr.r.tag != tag) continue;
    const std::uint64_t cnt =
        lr.count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cnt < lr.r.nth) continue;
    lr.fired.store(true, std::memory_order_relaxed);
    const bool metrics = obs::metrics_enabled();
    switch (lr.r.action) {
      case FaultAction::kDrop:
        if (metrics) obs::add(fault_metrics().dropped);
        keep = false;
        break;
      case FaultAction::kTruncate: {
        const std::size_t n = lr.r.bytes > 0
                                  ? static_cast<std::size_t>(lr.r.bytes)
                                  : payload.size() / 2;
        payload.resize(std::min(payload.size(), n));
        if (metrics) obs::add(fault_metrics().truncated);
        break;
      }
      case FaultAction::kBitFlip: {
        if (payload.empty()) break;
        const std::uint64_t h = mix64(
            seed_ ^ mix64((static_cast<std::uint64_t>(src) << 32) ^
                          static_cast<std::uint64_t>(dst) ^ (cnt << 16)));
        const std::size_t b =
            lr.r.byte >= 0 ? std::min(static_cast<std::size_t>(lr.r.byte),
                                      payload.size() - 1)
                           : static_cast<std::size_t>(h % payload.size());
        const int bit =
            lr.r.bit >= 0 ? lr.r.bit : static_cast<int>((h >> 32) % 8);
        payload[b] ^= static_cast<std::byte>(1u << bit);
        if (metrics) obs::add(fault_metrics().bitflipped);
        break;
      }
      case FaultAction::kDelay:
        delay_ms = lr.r.delay_ms;
        if (metrics) obs::add(fault_metrics().delayed);
        break;
      case FaultAction::kKill:
        break;  // unreachable
    }
  }
  return keep;
}

void count_rank_failed_notification() {
  if (obs::metrics_enabled()) obs::add(fault_metrics().rank_failed);
}

}  // namespace dtfe::simmpi
