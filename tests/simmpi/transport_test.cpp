// Socket-transport suite (ctest -L fault): wire framing, retry policy,
// fault-plan spec round-trips, the launch/result codec, heartbeat failure
// detection, and the acceptance property of DESIGN.md §9 — pipeline grids
// are bitwise identical between --transport=thread and --transport=socket,
// including under every class of replayed fault plan.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "framework/result_codec.h"
#include "simmpi/fault.h"
#include "simmpi/frame.h"
#include "simmpi/socket_transport.h"
#include "util/retry.h"

namespace {

using namespace dtfe;
using namespace dtfe::simmpi;

// ---- frame layer -----------------------------------------------------------

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Frame, RoundTripsOverSocketPair) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  Frame f;
  f.type = FrameType::kData;
  f.src = 2;
  f.dst = 5;
  f.tag = 200;
  f.delay_ms = 40;
  f.sent_ns = steady_now_ns();
  f.payload = bytes_of("work package bytes");
  ASSERT_TRUE(write_frame(sv[0], f));

  Frame g;
  ASSERT_EQ(FrameReadStatus::kOk, read_frame(sv[1], g));
  EXPECT_EQ(g.type, f.type);
  EXPECT_EQ(g.src, 2);
  EXPECT_EQ(g.dst, 5);
  EXPECT_EQ(g.tag, 200);
  EXPECT_EQ(g.delay_ms, 40u);
  EXPECT_EQ(g.sent_ns, f.sent_ns);
  EXPECT_EQ(g.payload, f.payload);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Frame, CleanEofAtBoundaryVsMidFrameError) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  // Clean close with nothing pending: kEof.
  ::close(sv[0]);
  Frame g;
  EXPECT_EQ(FrameReadStatus::kEof, read_frame(sv[1], g));
  ::close(sv[1]);

  // A frame truncated mid-payload is a desync, not a clean EOF.
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  Frame f;
  f.payload = bytes_of("0123456789");
  ASSERT_TRUE(write_frame(sv[0], f));
  // Reconstruct the byte stream, resend only a prefix, then close.
  std::array<std::byte, 4096> buf;
  const ssize_t n = ::recv(sv[1], buf.data(), buf.size(), 0);
  ASSERT_GT(n, 8);
  ::close(sv[0]);
  ::close(sv[1]);
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_EQ(n - 5, ::send(sv[0], buf.data(), static_cast<std::size_t>(n - 5),
                          MSG_NOSIGNAL));
  ::close(sv[0]);
  EXPECT_EQ(FrameReadStatus::kError, read_frame(sv[1], g));
  ::close(sv[1]);
}

TEST(Frame, CorruptedPayloadFailsCrcButKeepsStreamAligned) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  Frame f;
  f.payload = bytes_of("payload that will be corrupted");
  ASSERT_TRUE(write_frame(sv[0], f));
  Frame follow;
  follow.payload = bytes_of("follow-up");
  ASSERT_TRUE(write_frame(sv[0], follow));

  // Flip one payload byte of the FIRST frame in the raw stream.
  std::vector<std::byte> stream(8192);
  ssize_t total = 0, n;
  while ((n = ::recv(sv[1], stream.data() + total,
                     stream.size() - static_cast<std::size_t>(total),
                     MSG_DONTWAIT)) > 0)
    total += n;
  ASSERT_GT(total, 0);
  stream[45] ^= std::byte{0x10};  // inside frame 1's payload (40-byte header)
  ::close(sv[0]);
  ::close(sv[1]);

  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_EQ(total, ::send(sv[0], stream.data(),
                          static_cast<std::size_t>(total), MSG_NOSIGNAL));
  Frame g;
  EXPECT_EQ(FrameReadStatus::kBadCrc, read_frame(sv[1], g));
  // The stream stays aligned: the next frame reads fine.
  EXPECT_EQ(FrameReadStatus::kOk, read_frame(sv[1], g));
  EXPECT_EQ(g.payload, follow.payload);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Frame, Crc32MatchesKnownVector) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(0xCBF43926u, crc32(data));
}

// ---- retry policy ----------------------------------------------------------

TEST(RetryPolicy, DeterministicBoundedBackoff) {
  RetryPolicy p;
  p.max_retries = 3;
  p.base_delay_ms = 2.0;
  p.max_delay_ms = 100.0;
  p.seed = 42;

  EXPECT_FALSE(p.exhausted(3));
  EXPECT_TRUE(p.exhausted(4));

  // Same seed: identical delay sequence. Delays never exceed the ceiling.
  RetryPolicy q = p;
  double prev = 0.0;
  for (int retry = 1; retry <= 8; ++retry) {
    const double d = p.delay_ms(retry);
    EXPECT_DOUBLE_EQ(d, q.delay_ms(retry));
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, p.max_delay_ms);
    if (retry <= 4) {
      EXPECT_GE(d, prev * 0.5);  // grows modulo jitter
    }
    prev = d;
  }

  // Different seed: different jitter stream.
  q.seed = 43;
  bool any_differs = false;
  for (int retry = 1; retry <= 8; ++retry)
    any_differs = any_differs || p.delay_ms(retry) != q.delay_ms(retry);
  EXPECT_TRUE(any_differs);
}

// ---- fault-plan spec round-trip --------------------------------------------

TEST(FaultPlanSpec, ToSpecRoundTrips) {
  const std::string spec =
      "kill:rank=2,at=3,tag=200;drop:src=0,dst=3,nth=1,tag=200;"
      "trunc:src=1,dst=2,nth=2,bytes=16;flip:src=4,dst=0,nth=1,byte=7,bit=3;"
      "delay:src=5,dst=6,nth=1,ms=250;seed=7";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan again = FaultPlan::parse(plan.to_spec());
  ASSERT_EQ(plan.rules.size(), again.rules.size());
  EXPECT_EQ(plan.seed, again.seed);
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const FaultRule& a = plan.rules[i];
    const FaultRule& b = again.rules[i];
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.nth, b.nth);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.byte, b.byte);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_EQ(a.delay_ms, b.delay_ms);
  }
  EXPECT_TRUE(FaultPlan::parse("").to_spec().empty());
}

// ---- transport stats -------------------------------------------------------

TEST(TransportStats, FitRecoversLinearWireCost) {
  TransportStats s;
  const double a = 5e-5, b = 2e-9;  // latency = 50us + 2ns/byte
  for (std::size_t bytes : {100u, 1000u, 10000u, 100000u, 50000u})
    s.note(bytes, a + b * static_cast<double>(bytes));
  double intercept = 0.0, slope = 0.0;
  s.fit(intercept, slope);
  EXPECT_NEAR(intercept, a, 1e-9);
  EXPECT_NEAR(slope, b, 1e-12);

  // Degenerate (single message size): falls back to the mean, zero slope.
  TransportStats d;
  d.note(512, 1e-4);
  d.note(512, 3e-4);
  d.fit(intercept, slope);
  EXPECT_DOUBLE_EQ(slope, 0.0);
  EXPECT_DOUBLE_EQ(intercept, 2e-4);

  TransportStats merged;
  merged.merge(s);
  merged.merge(d);
  EXPECT_EQ(merged.messages, s.messages + d.messages);
}

// ---- launch/result codec ---------------------------------------------------

TEST(ResultCodec, LaunchConfigRoundTrips) {
  LaunchConfig cfg;
  cfg.snapshot = "/tmp/some/snap.bin";
  cfg.pipeline.field_length = 7.5;
  cfg.pipeline.field_resolution = 48;
  cfg.pipeline.kernel = "walk";
  cfg.pipeline.keep_grids = true;
  cfg.pipeline.checkpoint_dir = "/tmp/ckpt";
  cfg.pipeline.field = FieldKind::kVelocity;
  cfg.pipeline.smooth_ensemble = 4;
  cfg.field_centers = {{1.0, 2.0, 3.0}, {4.5, 5.5, 6.5}};

  const LaunchConfig back = decode_launch_config(encode_launch_config(cfg));
  EXPECT_EQ(back.snapshot, cfg.snapshot);
  EXPECT_EQ(back.pipeline.field_resolution, 48u);
  EXPECT_DOUBLE_EQ(back.pipeline.field_length, 7.5);
  EXPECT_EQ(back.pipeline.kernel, "walk");
  EXPECT_TRUE(back.pipeline.keep_grids);
  EXPECT_EQ(back.pipeline.checkpoint_dir, "/tmp/ckpt");
  EXPECT_EQ(back.pipeline.field, FieldKind::kVelocity);
  EXPECT_EQ(back.pipeline.smooth_ensemble, 4);
  ASSERT_EQ(back.field_centers.size(), 2u);
  EXPECT_DOUBLE_EQ(back.field_centers[1].x, 4.5);
  EXPECT_DOUBLE_EQ(back.field_centers[1].z, 6.5);
}

TEST(ResultCodec, WorkerPayloadRoundTrips) {
  WorkerPayload p;
  p.rank = 3;
  p.wire.note(1000, 2e-4);
  p.wire.note(2000, 3e-4);
  p.counters = {{"dtfe.pipeline.items_computed", 12.0},
                {"dtfe.simmpi.messages", 40.0}};
  p.gauges = {{"dtfe.schedule.binpack_fill_ratio", 0.75}};
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 10.0, 100.0};
  h.counts = {2.0, 5.0, 1.0, 0.0};  // 3 bounds -> 4 buckets
  h.sum = 57.5;
  h.count = 8.0;
  p.histograms = {{"dtfe.pipeline.item_ms", h}};

  // One item per path, the last two failed (one of them by the watchdog).
  const ItemPath paths[] = {ItemPath::kLocal, ItemPath::kReceived,
                            ItemPath::kRecover, ItemPath::kReplay};
  for (const ItemPath path : paths) {
    ItemRecord item;
    item.request_index = 7 + static_cast<int>(path);
    item.grid_sum = 123.456 * (1 + static_cast<int>(path));
    item.path = path;
    p.result.items.push_back(item);
  }
  p.result.items[2].failed = true;
  p.result.items[2].fail_reason = "degenerate cube";
  p.result.items[3].failed = true;
  p.result.items[3].cancelled = true;
  // One grid of each field kind.
  Grid2D grid(4, 4);
  grid.at(1, 2) = 9.0;
  p.result.grids.push_back(FieldGrid(grid));
  Grid2D vx(3, 3), vy(3, 3), vz(3, 3);
  vx.at(0, 1) = -1.5;
  vy.at(2, 2) = 4.25;
  vz.at(1, 0) = 1e-300;
  p.result.grids.push_back(
      FieldGrid(FieldKind::kVelocity, {vx, vy, vz}));
  Grid2D div(2, 5);
  div.at(1, 4) = -0.125;
  p.result.grids.push_back(FieldGrid(div, FieldKind::kVdiv));
  p.result.grids.push_back(FieldGrid(FieldKind::kGrad, {vz, vx, vy}));
  p.result.local_items = 1;
  p.result.failed_ranks = {1};
  p.result.phases.render = 0.25;

  const WorkerPayload back = decode_worker_payload(encode_worker_payload(p));
  EXPECT_EQ(back.rank, 3);
  EXPECT_EQ(back.wire.messages, 2u);
  EXPECT_DOUBLE_EQ(back.wire.sum_latency_s, p.wire.sum_latency_s);
  EXPECT_EQ(back.counters.at("dtfe.simmpi.messages"), 40.0);
  EXPECT_EQ(back.gauges.at("dtfe.schedule.binpack_fill_ratio"), 0.75);
  ASSERT_EQ(back.result.items.size(), p.result.items.size());
  for (std::size_t i = 0; i < p.result.items.size(); ++i) {
    const ItemRecord& sent = p.result.items[i];
    const ItemRecord& got = back.result.items[i];
    EXPECT_EQ(got.request_index, sent.request_index);
    EXPECT_EQ(got.grid_sum, sent.grid_sum);
    EXPECT_EQ(got.path, sent.path);
    EXPECT_EQ(got.failed, sent.failed);
    EXPECT_EQ(got.cancelled, sent.cancelled);
    EXPECT_EQ(got.fail_reason, sent.fail_reason);
  }
  ASSERT_EQ(back.histograms.size(), 1u);
  const obs::HistogramSnapshot& hb = back.histograms.at("dtfe.pipeline.item_ms");
  EXPECT_EQ(hb.bounds, h.bounds);
  EXPECT_EQ(hb.counts, h.counts);
  EXPECT_DOUBLE_EQ(hb.sum, 57.5);
  EXPECT_DOUBLE_EQ(hb.count, 8.0);
  ASSERT_EQ(back.result.grids.size(), p.result.grids.size());
  for (std::size_t i = 0; i < p.result.grids.size(); ++i) {
    const FieldGrid& sent = p.result.grids[i];
    const FieldGrid& got = back.result.grids[i];
    EXPECT_EQ(got.kind(), sent.kind());
    ASSERT_EQ(got.channels(), sent.channels());
    for (std::size_t c = 0; c < sent.channels(); ++c) {
      EXPECT_EQ(got.plane(c).nx(), sent.plane(c).nx());
      EXPECT_EQ(got.plane(c).ny(), sent.plane(c).ny());
      EXPECT_TRUE(std::equal(got.plane(c).values().begin(),
                             got.plane(c).values().end(),
                             sent.plane(c).values().begin(),
                             sent.plane(c).values().end()))
          << "grid " << i << " plane " << c;
    }
  }
  EXPECT_EQ(back.result.grids[1].plane(2).at(1, 0), 1e-300);
  ASSERT_EQ(back.result.failed_ranks.size(), 1u);
  EXPECT_EQ(back.result.failed_ranks[0], 1);
  EXPECT_DOUBLE_EQ(back.result.phases.render, 0.25);
}

TEST(ResultCodec, RejectsGarbage) {
  std::vector<std::byte> junk(16, std::byte{0x5a});
  EXPECT_THROW(decode_launch_config(junk), Error);
  EXPECT_THROW(decode_worker_payload(junk), Error);
  EXPECT_THROW(decode_worker_payload({}), Error);
}

// ---- heartbeat failure detection -------------------------------------------

TEST(Heartbeat, SilentWorkerIsDeclaredDead) {
  char tmpl[] = "/tmp/pdtfe-hb-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(tmpl));
  const std::string dir = tmpl;

  TransportOptions opt;
  opt.socket_path = dir + "/router.sock";
  opt.ranks = 1;
  opt.heartbeat_interval_ms = 20;
  opt.heartbeat_miss_limit = 5;
  Router router(opt);
  router.listen_socket();

  // A worker that says hello, takes its config — and then never beacons.
  std::thread silent([&] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opt.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)));
    Frame hello;
    hello.type = FrameType::kHello;
    hello.src = 0;
    hello.payload = encode_i32(0);
    ASSERT_TRUE(write_frame(fd, hello));
    Frame cfg;
    ASSERT_EQ(FrameReadStatus::kOk, read_frame(fd, cfg));
    ASSERT_EQ(FrameType::kConfig, cfg.type);
    // Stay connected but silent until the router gives up on us.
    Frame dead;
    read_frame(fd, dead);  // kDead broadcast or EOF — either ends the wait
    ::close(fd);
  });

  router.accept_workers();
  router.broadcast_config(bytes_of("cfg"));
  const auto outcomes = router.route();
  silent.join();

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].died);
  EXPECT_FALSE(outcomes[0].finished);
  const auto dead = router.dead_ranks();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 0);
  ::unlink(opt.socket_path.c_str());
  ::rmdir(dir.c_str());
}

// ---- thread vs socket pipeline parity (acceptance) -------------------------

#ifdef PDTFE_BINARY

std::string run_capture(const std::string& cmd, int& exit_code) {
  std::string out;
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) {
    exit_code = -1;
    return out;
  }
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe)) out += buf;
  exit_code = ::pclose(pipe);
  return out;
}

std::string grep_line(const std::string& text, const std::string& needle) {
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t end = text.find('\n', pos);
  return text.substr(pos, end == std::string::npos ? end : end - pos);
}

class TransportParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    char tmpl[] = "/tmp/pdtfe-parity-XXXXXX";
    ASSERT_NE(nullptr, ::mkdtemp(tmpl));
    dir_ = tmpl;
    int rc = 0;
    run_capture(std::string(PDTFE_BINARY) + " generate --out " + dir_ +
                    "/snap.bin --n 12000 --blocks 4 --seed 3",
                rc);
    ASSERT_EQ(rc, 0);
  }
  static void TearDownTestSuite() {
    if (!dir_.empty()) {
      ::unlink((dir_ + "/snap.bin").c_str());
      ::rmdir(dir_.c_str());
    }
  }

  /// Run the pipeline on both transports under `plan` and assert the grid
  /// checksum lines (printed at %.9e) are byte-identical.
  static void expect_parity(const std::string& plan,
                            const std::string& expect_also = {}) {
    const std::string base = std::string(PDTFE_BINARY) + " pipeline --in " +
                             dir_ + "/snap.bin --ranks 3 --fields 6";
    const std::string fault =
        plan.empty() ? std::string{} : " --fault-plan '" + plan + "'";
    int rc_thread = 0, rc_socket = 0;
    const std::string out_thread =
        run_capture(base + " --transport thread" + fault, rc_thread);
    const std::string out_socket =
        run_capture(base + " --transport socket" + fault, rc_socket);
    ASSERT_EQ(rc_thread, 0) << out_thread;
    ASSERT_EQ(rc_socket, 0) << out_socket;

    const std::string sum_thread =
        grep_line(out_thread, "grid checksum total:");
    const std::string sum_socket =
        grep_line(out_socket, "grid checksum total:");
    ASSERT_FALSE(sum_thread.empty()) << out_thread;
    EXPECT_EQ(sum_thread, sum_socket) << "thread:\n"
                                      << out_thread << "\nsocket:\n"
                                      << out_socket;
    EXPECT_NE(out_thread.find("fields completed: 6/6"), std::string::npos)
        << out_thread;
    EXPECT_NE(out_socket.find("fields completed: 6/6"), std::string::npos)
        << out_socket;
    if (!expect_also.empty()) {
      EXPECT_NE(out_thread.find(expect_also), std::string::npos) << out_thread;
      EXPECT_NE(out_socket.find(expect_also), std::string::npos) << out_socket;
    }
  }

  static std::string dir_;
};

std::string TransportParity::dir_;

TEST_F(TransportParity, FaultFree) { expect_parity(""); }

TEST_F(TransportParity, KilledWorkerIsContainedAndRecovered) {
  // The SIGKILLed worker's items, and those shipped to it, come back via
  // recovery, and both transports report the same dead rank.
  expect_parity("kill:rank=1,tag=200,at=1", "ranks failed: 1");
}

TEST_F(TransportParity, DroppedPackage) {
  expect_parity("drop:src=0,dst=2,nth=1,tag=200");
}

TEST_F(TransportParity, DelayedPackage) {
  expect_parity("delay:src=0,dst=2,nth=1,tag=200,ms=120");
}

TEST_F(TransportParity, BitFlippedPackage) {
  expect_parity("flip:src=0,dst=2,nth=1,tag=200");
}

/// The `"key":value` number in one trace event's JSON, or NaN.
double event_number(const std::string& event, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = event.find(needle);
  return pos == std::string::npos
             ? std::nan("")
             : std::strtod(event.c_str() + pos + needle.size(), nullptr);
}

// One product trace splits request generation: the snapshot read and the
// FOF search are child spans of pipeline.requests, and the FOF span says
// how many threads it ran on, their CPU time and the groups found.
TEST_F(TransportParity, TraceSplitsRequestGeneration) {
  const std::string trace = dir_ + "/trace.json";
  int rc = 0;
  const std::string out = run_capture(
      std::string(PDTFE_BINARY) + " pipeline --in " + dir_ +
          "/snap.bin --ranks 1 --fields 2 --threads 2 --trace-out " + trace,
      rc);
  ASSERT_EQ(rc, 0) << out;
  std::ifstream in(trace);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ::unlink(trace.c_str());
  auto event = [&](const std::string& name) {
    const std::size_t at = json.find("{\"name\":\"" + name + "\"");
    if (at == std::string::npos) return std::string{};
    return json.substr(at, json.find("}}", at) - at);
  };
  const std::string requests = event("pipeline.requests");
  const std::string read = event("nbody.read_snapshot");
  const std::string fof = event("nbody.fof");
  ASSERT_FALSE(requests.empty()) << json;
  ASSERT_FALSE(read.empty()) << json;
  ASSERT_FALSE(fof.empty()) << json;
  for (const std::string* child : {&read, &fof}) {
    EXPECT_GE(event_number(*child, "ts"), event_number(requests, "ts"));
    EXPECT_LE(event_number(*child, "ts") + event_number(*child, "dur"),
              event_number(requests, "ts") + event_number(requests, "dur"));
    EXPECT_GE(event_number(*child, "cpu_s"), 0.0) << *child;
  }
  EXPECT_GE(event_number(fof, "team_cpu_s"), 0.0) << fof;
  EXPECT_EQ(event_number(fof, "threads"), 2.0) << fof;
  EXPECT_EQ(event_number(fof, "groups"),
            event_number(requests, "fof_groups")) << fof;
  EXPECT_GT(event_number(fof, "groups"), 0.0) << fof;
}

// Out-of-range integer flags exit 2 naming the flag, before the snapshot is
// read or written (the paths below do not exist), instead of wrapping
// through the size_t cast into an abort or an out-of-bounds write.
TEST(CliFlags, OutOfRangeIntegerFlagsExitTwo) {
  const std::string spectrum =
      std::string(PDTFE_BINARY) + " spectrum --in /nonexistent/snap.bin";
  const std::string generate =
      std::string(PDTFE_BINARY) + " generate --out /nonexistent/snap.bin";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {spectrum + " --grid -3", "--grid"},
      {spectrum + " --grid 4194304", "--grid"},
      {spectrum + " --grid 48", "--grid"},  // not a power of two
      {spectrum + " --bins -1", "--bins"},
      {generate + " --blocks 4194304", "--blocks"},
      {generate + " --n -1", "--n"},
      // Malformed command lines are usage errors too, named plainly.
      {std::string(PDTFE_BINARY) + " render --in s.bin --grid", "--grid"},
      {std::string(PDTFE_BINARY) + " generate --help", "--help"},
      {std::string(PDTFE_BINARY) + " render in s.bin", "'in'"},
      {spectrum + " --bogus 1", "--bogus"},
      // Work packages are never resent, so there is no --max-retries.
      {std::string(PDTFE_BINARY) + " pipeline --in s.bin --max-retries 3",
       "--max-retries"},
  };
  for (const auto& [cmd, flag] : cases) {
    int rc = 0;
    const std::string out = run_capture(cmd, rc);
    ASSERT_TRUE(WIFEXITED(rc)) << cmd << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd << "\n" << out;
    EXPECT_NE(out.find(flag), std::string::npos) << cmd << "\n" << out;
    EXPECT_EQ(out.find("check failed"), std::string::npos) << cmd << "\n" << out;
  }
}

// A missing or garbage snapshot is bad input: the command exits 1 with a
// message naming the file, not an internal check failure and a source path.
TEST(CliFlags, BadSnapshotInputNamesTheFile) {
  char tmpl[] = "/tmp/pdtfe-badsnap-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(tmpl));
  const std::string dir = tmpl;
  const std::string missing = dir + "/missing.bin";
  const std::string garbage = dir + "/garbage.bin";
  std::ofstream(garbage, std::ios::binary) << std::string(256, 'Z');
  for (const std::string& path : {missing, garbage}) {
    int rc = 0;
    const std::string out =
        run_capture(std::string(PDTFE_BINARY) + " info --in " + path, rc);
    ASSERT_TRUE(WIFEXITED(rc)) << path << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << path << "\n" << out;
    EXPECT_NE(out.find(path), std::string::npos) << out;
    EXPECT_EQ(out.find("check failed"), std::string::npos) << out;
  }
  ::unlink(garbage.c_str());
  ::rmdir(dir.c_str());
}

#endif  // PDTFE_BINARY

}  // namespace
