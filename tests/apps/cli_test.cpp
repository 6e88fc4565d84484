// Command-line suite (ctest -L fault): drives the pdtfe binary to check
// its usage errors, its bad-input messages and the spans its trace holds.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace {

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
TEST(CliPipeline, TraceSplitsRequestGeneration) {
  char tmpl[] = "/tmp/pdtfe-cli-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(tmpl));
  const std::string dir = tmpl;
  const std::string snap = dir + "/snap.bin";
  const std::string trace = dir + "/trace.json";
  int rc = 0;
  run_capture(std::string(PDTFE_BINARY) + " generate --out " + snap +
                  " --n 12000 --blocks 4 --seed 3",
              rc);
  ASSERT_EQ(rc, 0);
  const std::string out = run_capture(
      std::string(PDTFE_BINARY) + " pipeline --in " + snap +
          " --ranks 1 --fields 2 --threads 2 --trace-out " + trace,
      rc);
  ASSERT_EQ(rc, 0) << out;
  std::ifstream in(trace);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ::unlink(trace.c_str());
  ::unlink(snap.c_str());
  ::rmdir(dir.c_str());
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
      // Ranks are threads of one process, so there is no --transport.
      {std::string(PDTFE_BINARY) + " pipeline --in s.bin --transport socket",
       "--transport"},
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
