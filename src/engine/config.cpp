#include "engine/config.h"

#include <climits>
#include <cmath>
#include <string>

#include "dtfe/audit.h"
#include "engine/field_kernel.h"
#include "util/error.h"

namespace dtfe::engine {

EngineConfig EngineConfig::from_cli(const CliArgs& args) {
  EngineConfig cfg;
  const CommonFieldFlags common = parse_common_field_flags(args, 64L, 5.0);
  cfg.snapshot = common.in;
  cfg.ranks = static_cast<int>(bounded_flag(args, "ranks", 8L, 1L, INT_MAX));
  cfg.n_fields =
      static_cast<std::size_t>(bounded_flag(args, "fields", 64L, 1L, LONG_MAX));

  PipelineOptions& opt = cfg.pipeline;
  opt.field_length = common.length;
  if (!std::isfinite(opt.field_length) || opt.field_length <= 0.0)
    throw Error("--length must be a positive finite number");
  opt.field_resolution = common.grid;
  opt.load_balance = args.get("balance", 1L) != 0;
  opt.comm_timeout_ms = static_cast<int>(
      bounded_flag(args, "comm-timeout-ms", 2000L, 1L, INT_MAX));

  const std::string bad = args.get("bad-particles", std::string{"reject"});
  if (bad == "reject") {
    opt.bad_particles = BadParticlePolicy::kReject;
  } else if (bad == "drop") {
    opt.bad_particles = BadParticlePolicy::kDrop;
  } else if (bad == "clamp") {
    opt.bad_particles = BadParticlePolicy::kClamp;
  } else {
    throw Error("unknown --bad-particles " + bad);
  }

  // Durable execution (README "Durable execution & audits").
  opt.checkpoint_dir = args.get("checkpoint-dir", std::string{});
  opt.resume = args.get("resume", 0L) != 0;
  if (opt.resume && opt.checkpoint_dir.empty())
    throw Error("--resume needs --checkpoint-dir");

  if (args.get("item-deadline-ms", std::string{}) == "auto") {
    opt.item_deadline_ms = 0.0;  // derive from the fitted cost model
  } else {
    opt.item_deadline_ms = args.get("item-deadline-ms", opt.item_deadline_ms);
    if (!std::isfinite(opt.item_deadline_ms))
      throw Error("--item-deadline-ms must be 'auto' or a finite number");
  }

  opt.audit.level = parse_audit_level(args.get("audit", std::string{"off"}));
  opt.audit_fatal = args.get("audit-fatal", 0L) != 0;

  opt.kernel = args.get("kernel", std::string{"march"});
  if (!KernelRegistry::builtin().contains(opt.kernel))
    throw Error("unknown --kernel " + opt.kernel);

  // Field channel selection (DESIGN.md §10). parse_field_kind throws the
  // user-facing message for unknown names.
  opt.field = parse_field_kind(args.get("field", std::string{"density"}));
  opt.smooth_ensemble = static_cast<int>(
      bounded_flag(args, "smooth-ensemble", 1L, 1L, INT_MAX));
  // Fail fast instead of surfacing this as a contained per-item failure on
  // every item of the run.
  if (opt.kernel == "tess" && opt.field != FieldKind::kDensity)
    throw Error(
        "kernel 'tess' renders density only; --field=" +
        std::string(field_kind_name(opt.field)) +
        " needs the march or walk kernel");

  opt.threads = static_cast<int>(bounded_flag(args, "threads", 0L, 0L, INT_MAX));

  cfg.fault_plan = simmpi::FaultPlan::parse(args.get("fault-plan",
                                                     std::string{}));
  return cfg;
}

}  // namespace dtfe::engine
