#include "engine/config.h"

#include <cmath>
#include <cstdlib>

#include "dtfe/audit.h"
#include "engine/field_kernel.h"
#include "util/error.h"

namespace dtfe::engine {

EngineConfig EngineConfig::from_cli(const CliArgs& args) {
  EngineConfig cfg;
  const CommonFieldFlags common = parse_common_field_flags(args, 64L, 5.0);
  cfg.snapshot = common.in;
  cfg.ranks = static_cast<int>(args.get("ranks", 8L));
  cfg.n_fields = static_cast<std::size_t>(args.get("fields", 64L));

  PipelineOptions& opt = cfg.pipeline;
  opt.field_length = common.length;
  if (!std::isfinite(opt.field_length) || opt.field_length <= 0.0)
    throw Error("--length must be a positive finite number");
  opt.field_resolution = common.grid;
  opt.load_balance = args.get("balance", 1L) != 0;
  opt.max_retries = static_cast<int>(args.get("max-retries", 3L));
  opt.comm_timeout_ms = static_cast<int>(args.get("comm-timeout-ms", 2000L));

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

  const std::string deadline_arg = args.get("item-deadline-ms", std::string{});
  if (deadline_arg == "auto")
    opt.item_deadline_ms = 0.0;  // derive from the fitted cost model
  else if (!deadline_arg.empty())
    opt.item_deadline_ms = std::strtod(deadline_arg.c_str(), nullptr);

  opt.audit.level = parse_audit_level(args.get("audit", std::string{"off"}));
  opt.audit_fatal = args.get("audit-fatal", 0L) != 0;

  opt.kernel = args.get("kernel", std::string{"march"});
  if (!KernelRegistry::builtin().contains(opt.kernel))
    throw Error("unknown --kernel " + opt.kernel);

  // Field channel selection (DESIGN.md §10). parse_field_kind throws the
  // user-facing message for unknown names.
  opt.field = parse_field_kind(args.get("field", std::string{"density"}));
  opt.smooth_ensemble =
      static_cast<int>(args.get("smooth-ensemble", 1L));
  if (opt.smooth_ensemble < 1)
    throw Error("--smooth-ensemble must be >= 1");
  // Fail fast instead of surfacing this as a contained per-item failure on
  // every item of the run.
  if (opt.kernel == "tess" && opt.field != FieldKind::kDensity)
    throw Error(
        "kernel 'tess' renders density only; --field=" +
        std::string(field_kind_name(opt.field)) +
        " needs the march or walk kernel");

  // Intra-rank compute pipeline (engine/executor.h).
  opt.compute_ahead = static_cast<int>(args.get("compute-ahead", 0L));
  if (opt.compute_ahead < 0) throw Error("--compute-ahead must be >= 0");
  opt.threads = static_cast<int>(args.get("threads", 0L));
  if (opt.threads < 0) throw Error("--threads must be >= 0");

  cfg.fault_plan = simmpi::FaultPlan::parse(args.get("fault-plan",
                                                     std::string{}));

  // Transport selection (DESIGN.md §9).
  const std::string transport = args.get("transport", std::string{"thread"});
  if (transport == "thread") {
    cfg.transport.kind = TransportKind::kThread;
  } else if (transport == "socket") {
    cfg.transport.kind = TransportKind::kSocket;
  } else {
    throw Error("unknown --transport " + transport +
                " (expected thread or socket)");
  }
  cfg.transport.heartbeat_interval_ms =
      static_cast<int>(args.get("heartbeat-interval-ms", 100L));
  if (cfg.transport.heartbeat_interval_ms < 1)
    throw Error("--heartbeat-interval-ms must be >= 1");
  cfg.transport.heartbeat_miss_limit =
      static_cast<int>(args.get("heartbeat-miss-limit", 20L));
  if (cfg.transport.heartbeat_miss_limit < 1)
    throw Error("--heartbeat-miss-limit must be >= 1");
  cfg.transport.worker_binary = args.get("worker-binary", std::string{});
  return cfg;
}

}  // namespace dtfe::engine
