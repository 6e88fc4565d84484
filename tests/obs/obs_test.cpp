// Tests for the observability layer: metrics registry semantics (sharded
// counters/histograms merging across threads, gauge last-write, disabled
// no-op), trace recorder JSON validity and span nesting, and the end-to-end
// invariant that a pipeline run's emitted phase spans sum to PhaseTimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "framework/pipeline.h"
#include "nbody/generators.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "simmpi/comm.h"
#include "simmpi/fault.h"

namespace dtfe {
namespace {

TEST(Metrics, CounterMergesAcrossThreads) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId id = reg.counter("t.counter");
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) reg.add(id);
    });
  for (auto& t : threads) t.join();
  // Threads have exited; their shards must still be visible to snapshot().
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter("t.counter"),
                   static_cast<double>(kThreads) * kAdds);
  EXPECT_DOUBLE_EQ(snap.counter("no.such.metric"), 0.0);
}

TEST(Metrics, HistogramBucketsAndMergeAcrossThreads) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId id = reg.histogram("t.hist", {1.0, 2.0, 4.0});
  // Bucket b covers values <= bounds[b]; the last bucket catches overflow.
  const std::vector<double> values = {0.5, 1.0, 1.5, 2.0, 3.0, 100.0};
  std::thread a([&] {
    for (const double v : values) reg.observe(id, v);
  });
  std::thread b([&] {
    for (const double v : values) reg.observe(id, v);
  });
  a.join();
  b.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto it = snap.histograms.find("t.hist");
  ASSERT_NE(it, snap.histograms.end());
  const obs::HistogramSnapshot& h = it->second;
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_DOUBLE_EQ(h.counts[0], 4.0);  // 0.5, 1.0 ×2 threads
  EXPECT_DOUBLE_EQ(h.counts[1], 4.0);  // 1.5, 2.0
  EXPECT_DOUBLE_EQ(h.counts[2], 2.0);  // 3.0
  EXPECT_DOUBLE_EQ(h.counts[3], 2.0);  // 100.0 (overflow)
  EXPECT_DOUBLE_EQ(h.count, 12.0);
  EXPECT_DOUBLE_EQ(h.sum, 2.0 * (0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 100.0));
}

TEST(Metrics, GaugeLastWriteWinsAndUnsetGaugesAreOmitted) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId g = reg.gauge("t.gauge");
  reg.gauge("t.never_set");
  reg.set(g, 1.5);
  reg.set(g, 2.5);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.count("t.gauge"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("t.gauge"), 2.5);
  EXPECT_EQ(snap.gauges.count("t.never_set"), 0u);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId c = reg.counter("t.counter");
  const obs::MetricId h = reg.histogram("t.hist", {1.0});
  reg.add(c, 5.0);
  reg.observe(h, 0.5);
  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter("t.counter"), 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("t.hist").count, 0.0);
  // The ids registered before reset must still work.
  reg.add(c, 2.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().counter("t.counter"), 2.0);
}

TEST(Metrics, ReregistrationReturnsSameSlotAndKindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::MetricId a = reg.counter("t.counter");
  const obs::MetricId b = reg.counter("t.counter");
  EXPECT_EQ(a.slot, b.slot);
  reg.add(a);
  reg.add(b);
  EXPECT_DOUBLE_EQ(reg.snapshot().counter("t.counter"), 2.0);
  EXPECT_THROW(reg.histogram("t.counter", {1.0}), std::logic_error);
  EXPECT_THROW(reg.gauge("t.counter"), std::logic_error);
}

TEST(Metrics, DisabledModeIsANoOp) {
  obs::MetricsRegistry reg;  // disabled by default
  const obs::MetricId c = reg.counter("t.counter");
  const obs::MetricId h = reg.histogram("t.hist", {1.0});
  const obs::MetricId g = reg.gauge("t.gauge");
  reg.add(c, 5.0);
  reg.observe(h, 0.5);
  reg.set(g, 1.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter("t.counter"), 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("t.hist").count, 0.0);
  EXPECT_EQ(snap.gauges.count("t.gauge"), 0u);
  // Invalid (default-constructed) ids are ignored even when enabled.
  reg.set_enabled(true);
  reg.add(obs::MetricId{}, 1.0);
  reg.observe(obs::MetricId{}, 1.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().counter("t.counter"), 0.0);
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// no stray control characters, one top-level object.
void expect_valid_json(const std::string& s) {
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
  int depth = 0;
  bool in_string = false, escape = false;
  for (const char c : s) {
    if (escape) {
      escape = false;
      continue;
    }
    if (in_string) {
      if (c == '\\')
        escape = true;
      else if (c == '"')
        in_string = false;
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']': --depth; break;
      default: break;
    }
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Trace, SpanEmitsCompleteEventWithCpuArg) {
  obs::TraceRecorder rec;
  rec.set_enabled(true);
  {
    obs::TraceSpan span("outer", "test", &rec);
    span.add_arg("n", 42.0);
  }
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[0].cat, "test");
  EXPECT_EQ(evs[0].phase, 'X');
  EXPECT_GE(evs[0].dur_us, 0.0);
  bool has_n = false, has_cpu = false;
  for (const auto& [k, v] : evs[0].args) {
    if (k == "n") has_n = v == 42.0;
    if (k == "cpu_s") has_cpu = v >= 0.0;
  }
  EXPECT_TRUE(has_n);
  EXPECT_TRUE(has_cpu);
}

TEST(Trace, DisabledSpanStaysInertAndCloseIsIdempotent) {
  obs::TraceRecorder rec;
  {
    obs::TraceSpan span("never", "test", &rec);
    rec.set_enabled(true);  // enabling mid-span must not resurrect it
  }
  EXPECT_EQ(rec.size(), 0u);
  obs::TraceSpan span("once", "test", &rec);
  span.close();
  span.close();
  EXPECT_EQ(rec.size(), 1u);
}

// A span given a CPU accumulator times even with tracing off, and adds
// exactly the cpu_s it emits, once.
TEST(Trace, CpuAccumulatorAddsTheEmittedCpuOnceEvenWhenDisabled) {
  const auto burn = [] {
    volatile double x = 0.0;
    for (int i = 0; i < 200000; ++i) x = x + 1.0;
  };
  obs::TraceRecorder rec;
  double off_total = 0.0;
  {
    obs::TraceSpan span("off", "test", &off_total, &rec);
    burn();
  }
  EXPECT_GT(off_total, 0.0);
  EXPECT_EQ(rec.size(), 0u);

  rec.set_enabled(true);
  double on_total = 0.0;
  obs::TraceSpan span("on", "test", &on_total, &rec);
  burn();
  span.close();
  span.close();
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 1u);
  ASSERT_EQ(evs[0].args.size(), 1u);
  EXPECT_EQ(evs[0].args[0].first, "cpu_s");
  EXPECT_EQ(evs[0].args[0].second, on_total);
  EXPECT_GT(on_total, 0.0);
}

TEST(Trace, NestedSpansAreProperlyNestedAndJsonIsValid) {
  obs::TraceRecorder rec;
  rec.set_enabled(true);
  {
    obs::TraceSpan a("a", "test", &rec);
    {
      obs::TraceSpan b("b", "test", &rec);
      obs::TraceSpan c("c \"quoted\"\n", "test", &rec);
    }
  }
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  std::map<std::string, const obs::TraceEvent*> by_name;
  for (const auto& e : evs) by_name[e.name.substr(0, 1)] = &e;
  const auto contains = [](const obs::TraceEvent& outer,
                           const obs::TraceEvent& inner) {
    return outer.ts_us <= inner.ts_us &&
           inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us;
  };
  EXPECT_TRUE(contains(*by_name["a"], *by_name["b"]));
  EXPECT_TRUE(contains(*by_name["b"], *by_name["c"]));
  // Same thread: every event shares pid/tid.
  EXPECT_EQ(evs[0].pid, evs[1].pid);
  EXPECT_EQ(evs[0].tid, evs[1].tid);

  const std::string json = rec.to_json();
  expect_valid_json(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process_name
  EXPECT_NE(json.find("c \\\"quoted\\\"\\n"), std::string::npos);
}

TEST(Report, JsonAndCsvSerializeRanksMetricsAndSummary) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(reg.counter("t.counter"), 3.0);
  reg.observe(reg.histogram("t.hist", {1.0, 2.0}), 1.5);
  reg.set(reg.gauge("t.gauge"), 0.25);

  obs::RunReport report;
  report.add_summary("ranks", 2);
  report.add_rank_values(1, {{"total_s", 2.0}});
  report.add_rank_values(0, {{"total_s", 1.0}});
  report.set_metrics(reg.snapshot());

  const std::string json = report.to_json();
  expect_valid_json(json);
  // Ranks are sorted in the output regardless of insertion order.
  EXPECT_LT(json.find("{\"rank\":0"), json.find("{\"rank\":1"));
  EXPECT_NE(json.find("\"t.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"t.gauge\":0.25"), std::string::npos);

  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("kind,rank,name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("phase,0,total_s,1\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,,t.counter,3\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram_count,,t.hist,1\n"), std::string::npos);

  expect_valid_json(obs::metrics_to_json(reg.snapshot()));
}

// End-to-end invariant: for every rank, the cpu_s arguments of the
// "pipeline"-category spans emitted during a run sum to PhaseTimes::total().
// Each phase and item span reads the clock once and both emits that value as
// cpu_s and adds it into its PhaseTimes field (items via actual_tri /
// actual_interp). Only summation order differs, so the tolerance is tiny.
TEST(PipelineObs, PhaseSpansSumToPhaseTimes) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  reg.reset();
  reg.set_enabled(true);
  rec.clear();
  rec.set_enabled(true);

  const auto set = generate_uniform(4000, 20.0, 29);
  std::vector<Vec3> centers(set.positions.begin(), set.positions.begin() + 12);
  PipelineOptions opt;
  opt.field_length = 4.0;
  opt.field_resolution = 24;
  opt.load_balance = true;

  constexpr int kRanks = 4;
  std::mutex mtx;
  std::map<int, PhaseTimes> phases;
  std::size_t total_items = 0;
  simmpi::run(kRanks, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    std::lock_guard<std::mutex> lock(mtx);
    phases[c.rank()] = res.phases;
    total_items += res.items.size();
  });

  rec.set_enabled(false);
  reg.set_enabled(false);

  std::map<int, double> span_cpu;
  for (const auto& e : rec.events())
    if (e.cat == "pipeline")
      for (const auto& [k, v] : e.args)
        if (k == "cpu_s") span_cpu[e.pid] += v;

  ASSERT_EQ(phases.size(), static_cast<std::size_t>(kRanks));
  for (const auto& [rank, pt] : phases) {
    ASSERT_EQ(span_cpu.count(rank), 1u) << "no pipeline spans for rank " << rank;
    EXPECT_NEAR(span_cpu[rank], pt.total(), 1e-9 + 1e-9 * pt.total())
        << "rank " << rank;
  }

  // The layer counters named in the acceptance criteria must be non-zero.
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter("dtfe.pipeline.items_computed"),
                   static_cast<double>(total_items));
  EXPECT_GT(snap.counter("dtfe.delaunay.points_inserted"), 0.0);
  EXPECT_GT(snap.counter("dtfe.kernel.rays_integrated"), 0.0);
  EXPECT_GT(snap.counter("dtfe.simmpi.bytes_sent"), 0.0);
  const auto hist = snap.histograms.find("dtfe.kernel.crossings_per_ray");
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_GT(hist->second.count, 0.0);

  const std::string json = rec.to_json();
  expect_valid_json(json);
  rec.clear();
  reg.reset();
}

// Runs the pipeline on four rank threads with tracing on and checks, per
// rank thread on real timestamps: the "pipeline"-category spans (phase spans
// and item spans) are pairwise disjoint, every Delaunay build lies inside an
// item.triangulate span and every march inside an item.render span.
// Returns how many items the survivors recovered.
std::size_t expect_phase_spans_nest(const simmpi::FaultPlan* plan) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.set_enabled(true);
  const auto set = generate_uniform(4000, 20.0, 29);
  std::vector<Vec3> centers(set.positions.begin(), set.positions.begin() + 12);
  PipelineOptions opt;
  opt.field_length = 4.0;
  opt.field_resolution = 24;
  simmpi::RunOptions run_opts;
  run_opts.fault_plan = plan;
  std::mutex mtx;
  std::size_t recovered = 0;
  simmpi::run(4, run_opts, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items)
      recovered += it.path == ItemPath::kRecover;
  });
  rec.set_enabled(false);
  const std::vector<obs::TraceEvent> events = rec.events();
  rec.clear();

  using Lane = std::pair<int, int>;  // (rank, thread)
  std::map<Lane, std::vector<const obs::TraceEvent*>> phase_spans;
  for (const obs::TraceEvent& e : events)
    if (e.phase == 'X' && e.cat == "pipeline")
      phase_spans[{e.pid, e.tid}].push_back(&e);
  EXPECT_FALSE(phase_spans.empty());
  constexpr double kSlackUs = 1e-3;  // 1 ns of floating-point rounding
  for (auto& [lane, spans] : phase_spans) {
    std::sort(spans.begin(), spans.end(),
              [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1]->ts_us + spans[i - 1]->dur_us,
                spans[i]->ts_us + kSlackUs)
          << spans[i - 1]->name << " overlaps " << spans[i]->name
          << " on rank " << lane.first;
  }

  const auto inside_one = [&](const obs::TraceEvent& child,
                              const char* parent) {
    for (const obs::TraceEvent* p : phase_spans[{child.pid, child.tid}])
      if (p->name == parent && p->ts_us <= child.ts_us + kSlackUs &&
          child.ts_us + child.dur_us <= p->ts_us + p->dur_us + kSlackUs)
        return true;
    return false;
  };
  std::size_t builds = 0, marches = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "delaunay.triangulate") {
      ++builds;
      EXPECT_TRUE(inside_one(e, "item.triangulate"))
          << "Delaunay build outside every item.triangulate on rank " << e.pid;
    } else if (e.name == "kernel.march_render") {
      ++marches;
      EXPECT_TRUE(inside_one(e, "item.render"))
          << "march outside every item.render on rank " << e.pid;
    }
  }
  EXPECT_GT(builds, 0u);
  EXPECT_GT(marches, 0u);
  return recovered;
}

TEST(PipelineObs, PhaseSpansAreDisjointAndContainTheirChildren) {
  EXPECT_EQ(expect_phase_spans_nest(nullptr), 0u);
  // Rank 1 finishes its items and dies at the allgather that opens
  // RecoverStage, before it reports its committed items, so the survivors
  // recompute them. (1 << 24) + 2 is simmpi's internal allgather tag; at 4
  // ranks each allgather is 3 sends and 3 receives, and two come before
  // recovery (the model's sample pool and the work-sharing times), so the
  // recovery allgather's first send is rank 1's 13th op on that tag.
  const simmpi::FaultPlan plan = simmpi::FaultPlan::parse(
      "kill:rank=1,tag=" + std::to_string((1 << 24) + 2) + ",at=13");
  EXPECT_GT(expect_phase_spans_nest(&plan), 0u);
}

}  // namespace
}  // namespace dtfe
