#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

#include "util/timer.h"

namespace dtfe::obs {

namespace {
thread_local int t_rank = 0;

int next_tid() {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

int my_tid() {
  thread_local int tid = next_tid();
  return tid;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}
}  // namespace

TraceRecorder::TraceRecorder() : epoch_(steady_seconds()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* instance = new TraceRecorder();  // leaked on purpose
  return *instance;
}

void TraceRecorder::set_thread_rank(int rank) { t_rank = rank; }
int TraceRecorder::thread_rank() { return t_rank; }

double TraceRecorder::now_us() const {
  return (steady_seconds() - epoch_) * 1e6;
}

void TraceRecorder::emit_complete(
    std::string name, std::string cat, double ts_us, double dur_us,
    std::vector<std::pair<std::string, double>> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.phase = 'X';
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.pid = t_rank;
  ev.tid = my_tid();
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void TraceRecorder::emit_instant(
    std::string name, std::string cat,
    std::vector<std::pair<std::string, double>> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.phase = 'i';
  ev.ts_us = now_us();
  ev.pid = t_rank;
  ev.tid = my_tid();
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::string TraceRecorder::to_json() const {
  std::vector<TraceEvent> evs = events();
  // Stable display order: by pid, then timestamp.
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.pid != b.pid ? a.pid < b.pid : a.ts_us < b.ts_us;
                   });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  // Name each pid lane after its simulated rank.
  std::set<int> pids;
  for (const TraceEvent& e : evs) pids.insert(e.pid);
  for (const int pid : pids) {
    comma();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"rank ";
    out += std::to_string(pid);
    out += "\"}}";
  }
  for (const TraceEvent& e : evs) {
    comma();
    out += "{\"name\":";
    append_json_string(out, e.name);
    out += ",\"cat\":";
    append_json_string(out, e.cat.empty() ? "dtfe" : e.cat);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"ts\":";
    append_number(out, e.ts_us);
    if (e.phase == 'X') {
      out += ",\"dur\":";
      append_number(out, e.dur_us);
    }
    out += ",\"pid\":";
    out += std::to_string(e.pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : e.args) {
        if (!afirst) out += ',';
        afirst = false;
        append_json_string(out, k);
        out += ':';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

bool TraceRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string json = to_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

TraceSpan::TraceSpan(std::string name, std::string cat,
                     TraceRecorder* recorder)
    : TraceSpan(std::move(name), std::move(cat), nullptr, recorder) {}

TraceSpan::TraceSpan(std::string name, std::string cat, double* cpu_total,
                     TraceRecorder* recorder)
    : cpu_total_(cpu_total) {
  TraceRecorder* rec = recorder ? recorder : &TraceRecorder::global();
  if (rec->enabled()) {
    recorder_ = rec;
    name_ = std::move(name);
    cat_ = std::move(cat);
    start_us_ = rec->now_us();
  }
  if (recorder_ || cpu_total_) cpu_start_ = ThreadCpuTimer::now();
}

void TraceSpan::add_arg(std::string key, double value) {
  if (recorder_) args_.emplace_back(std::move(key), value);
}

void TraceSpan::close() {
  if (!recorder_ && !cpu_total_) return;
  const double cpu = ThreadCpuTimer::now() - cpu_start_;
  if (cpu_total_) *cpu_total_ += cpu;
  cpu_total_ = nullptr;
  if (!recorder_) return;
  args_.emplace_back("cpu_s", cpu);
  recorder_->emit_complete(std::move(name_), std::move(cat_), start_us_,
                           recorder_->now_us() - start_us_, std::move(args_));
  recorder_ = nullptr;
}

TraceSpan::~TraceSpan() { close(); }

}  // namespace dtfe::obs
