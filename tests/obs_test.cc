#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/csa_system.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ironsafe::obs {
namespace {

// ---------------- tracer: span structure ----------------

TEST(TracerTest, NestedSpansTileTheTimeline) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("root", "test", &cost);
    {
      SpanGuard a("a", "test", &cost);
      cost.ChargeFixed(1000);
      SpanGuard b("b", "test", &cost);
      cost.ChargeFixed(250);
    }
    {
      SpanGuard c("c", "test", &cost);
      cost.ChargeFixed(500);
    }
  }
  ASSERT_EQ(tracer.open_count(), 0u);
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);

  const Span& root = spans[0];
  const Span& a = spans[1];
  const Span& b = spans[2];
  const Span& c = spans[3];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.parent, -1);
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(a.parent, root.id);
  EXPECT_EQ(a.depth, 1);
  EXPECT_EQ(b.parent, a.id);
  EXPECT_EQ(b.depth, 2);
  EXPECT_EQ(c.parent, root.id);

  // a charged 1000 before opening b and b charged 250 inside it.
  EXPECT_EQ(a.sim_start_ns, 0u);
  EXPECT_EQ(a.sim_duration_ns(), 1250u);
  EXPECT_EQ(b.sim_duration_ns(), 250u);
  // c starts where its sibling a ended.
  EXPECT_EQ(c.sim_start_ns, a.sim_end_ns);
  EXPECT_EQ(c.sim_duration_ns(), 500u);
  // The root spans exactly the sum of its children.
  EXPECT_EQ(root.sim_duration_ns(), a.sim_duration_ns() + c.sim_duration_ns());
  // Wall clock moves forward (auxiliary, not asserted tightly).
  EXPECT_GE(root.wall_end_us, root.wall_start_us);
}

TEST(TracerTest, NullModelSpanDerivesDurationFromChildren) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("root", "test", nullptr);
    {
      SpanGuard a("a", "test", &cost);
      cost.ChargeFixed(100);
    }
    {
      SpanGuard b("b", "test", &cost);
      cost.ChargeFixed(300);
    }
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].sim_duration_ns(), 400u);
}

TEST(TracerTest, SequentialRootsDoNotOverlap) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard first("first", "test", &cost);
    cost.ChargeFixed(700);
  }
  {
    SpanGuard second("second", "test", &cost);
    cost.ChargeFixed(100);
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].sim_start_ns, spans[0].sim_end_ns);
}

TEST(TracerTest, TagsAttachToTheirSpan) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard span("tagged", "test", &cost);
    span.Tag("rows", int64_t{42});
    span.Tag("table", "lineitem");
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].tags.size(), 2u);
  EXPECT_EQ(spans[0].tags[0], (std::pair<std::string, std::string>{"rows",
                                                                   "42"}));
  EXPECT_EQ(spans[0].tags[1].second, "lineitem");
}

TEST(TracerTest, DetailSpanDoesNotAdvanceTheCursor) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("root", "test", &cost);
    tracer.AddDetailSpan("morsel", "test", 5000, /*lane=*/2, 0, 0);
    {
      SpanGuard child("child", "test", &cost);
      cost.ChargeFixed(100);
    }
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_TRUE(spans[1].detail);
  EXPECT_EQ(spans[1].lane, 2);
  EXPECT_EQ(spans[1].sim_duration_ns(), 5000u);
  // The detail span starts where the next real child starts: it did not
  // move the parent's layout cursor.
  EXPECT_EQ(spans[2].sim_start_ns, spans[1].sim_start_ns);
}

// One shard group's subtree, as a fleet group task records it: a group
// span with a detail slice, two charged children and a tag, on its own
// zero-based model.
void RecordGroup(int g, sim::CostModel* cost) {
  SpanGuard group("shard-" + std::to_string(g), "test", cost);
  group.Tag("group", static_cast<int64_t>(g));
  if (Tracer* tracer = CurrentTracer()) {
    tracer->AddDetailSpan("morsel", "test", 700, /*lane=*/g, 0, 0);
  }
  cost->ChargeFixed(100 * static_cast<sim::SimNanos>(g + 1));
  {
    SpanGuard fragment("fragment", "test", cost);
    cost->ChargeFixed(1000 + static_cast<sim::SimNanos>(g));
    SpanGuard ship("ship", "test", cost);
    cost->ChargeFixed(50);
  }
}

TEST(TracerTest, GraftEqualsTheSameSpansOpenedSerially) {
  constexpr int kGroups = 3;
  sim::CostModel serial_cost;
  Tracer serial;
  {
    ScopedTracer scope(&serial);
    SpanGuard query("query", "test", &serial_cost);
    {
      SpanGuard plan("plan", "test", &serial_cost);
      serial_cost.ChargeFixed(300);
    }
    for (int g = 0; g < kGroups; ++g) {
      sim::CostModel child;
      RecordGroup(g, &child);
    }
    SpanGuard merge("merge", "test", &serial_cost);
    serial_cost.ChargeFixed(40);
  }

  sim::CostModel grafted_cost;
  Tracer grafted;
  int64_t before_parts_us = 0;
  {
    ScopedTracer scope(&grafted);
    SpanGuard query("query", "test", &grafted_cost);
    {
      SpanGuard plan("plan", "test", &grafted_cost);
      grafted_cost.ChargeFixed(300);
    }
    before_parts_us = grafted.WallNowUs();
    // Each part records on its own thread, in reverse order, against a
    // fresh tracer; the graft order alone fixes the result.
    std::vector<std::unique_ptr<Tracer>> parts;
    for (int g = 0; g < kGroups; ++g) {
      parts.push_back(std::make_unique<Tracer>());
    }
    for (int g = kGroups - 1; g >= 0; --g) {
      std::thread([&parts, g] {
        ScopedTracer part_scope(parts[g].get());
        sim::CostModel child;
        RecordGroup(g, &child);
      }).join();
    }
    for (const auto& part : parts) grafted.Graft(*part);
    SpanGuard merge("merge", "test", &grafted_cost);
    grafted_cost.ChargeFixed(40);
  }

  std::vector<Span> want = serial.spans();
  std::vector<Span> got = grafted.spans();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("span " + std::to_string(i) + " " + want[i].name);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].parent, want[i].parent);
    EXPECT_EQ(got[i].depth, want[i].depth);
    EXPECT_EQ(got[i].sim_start_ns, want[i].sim_start_ns);
    EXPECT_EQ(got[i].sim_end_ns, want[i].sim_end_ns);
    EXPECT_EQ(got[i].detail, want[i].detail);
    EXPECT_EQ(got[i].lane, want[i].lane);
    EXPECT_EQ(got[i].tags, want[i].tags);
    // Wall times are on the receiving tracer's epoch: every span after
    // `plan` started after `before_parts_us`.
    if (i >= 2 && !want[i].detail) {
      EXPECT_GE(got[i].wall_start_us, before_parts_us);
      EXPECT_GE(got[i].wall_end_us, got[i].wall_start_us);
    }
  }
  std::ostringstream a, b;
  serial.ExportChromeTrace(a, ExportOptions{});
  grafted.ExportChromeTrace(b, ExportOptions{});
  EXPECT_EQ(b.str(), a.str());
}

TEST(TracerTest, GraftWithoutAnOpenSpanAddsRoots) {
  Tracer part;
  {
    ScopedTracer scope(&part);
    sim::CostModel cost;
    SpanGuard root("part-root", "test", &cost);
    cost.ChargeFixed(10);
  }
  Tracer tracer;
  sim::CostModel cost;
  {
    ScopedTracer scope(&tracer);
    SpanGuard first("first", "test", &cost);
    cost.ChargeFixed(25);
  }
  tracer.Graft(part);
  tracer.Graft(part);
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_EQ(spans[1].sim_start_ns, 25u);
  EXPECT_EQ(spans[2].sim_start_ns, 35u);
  EXPECT_EQ(spans[2].sim_end_ns, 45u);
}

TEST(TracerTest, TimelineSpanSitsAtExplicitCoordinates) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("root", "test", &cost);
    cost.ChargeFixed(1000);
    // An event-driven component places the span itself: no cursor is
    // consulted, so the coordinates land exactly as given (this is how
    // overlapping pipeline stages of different sessions render).
    tracer.AddTimelineSpan("stage-execute", "server.pipeline", 200, 450,
                           /*lane=*/2);
    {
      SpanGuard child("child", "test", &cost);
      cost.ChargeFixed(100);
    }
  }
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& stage = spans[1];
  EXPECT_TRUE(stage.detail);
  EXPECT_EQ(stage.lane, 2);
  EXPECT_EQ(stage.sim_start_ns, 200u);
  EXPECT_EQ(stage.sim_end_ns, 450u);
  EXPECT_EQ(stage.sim_duration_ns(), 250u);
  EXPECT_EQ(stage.parent, spans[0].id);  // tree readers keep parentage
  // The cursor never moved: the next real child starts at the parent's
  // layout cursor (no completed siblings yet), not where the timeline
  // span ended.
  EXPECT_EQ(spans[2].sim_start_ns, 0u);
}

TEST(TracerTest, TimelineSpanClampsInvertedIntervalsAndCanBeARoot) {
  Tracer tracer;
  ScopedTracer scope(&tracer);
  tracer.AddTimelineSpan("stream", "server.pipeline", 900, 100, /*lane=*/4);
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, -1);  // no open span: a detail root
  EXPECT_EQ(spans[0].sim_start_ns, 900u);
  EXPECT_EQ(spans[0].sim_end_ns, 900u);  // end clamps to start
}

TEST(ChromeExportTest, TimelineSpansAreExcludedFromTheDefaultExport) {
  // Timeline spans are detail spans: the default (deterministic) export
  // drops them, the opt-in detail export shows them at their explicit
  // simulated coordinates.
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("root", "test", &cost);
    cost.ChargeFixed(5000);
    tracer.AddTimelineSpan("stage-decode", "server.pipeline", 1000, 3000,
                           /*lane=*/0);
  }
  std::ostringstream plain;
  tracer.ExportChromeTrace(plain, ExportOptions{});
  EXPECT_EQ(plain.str().find("stage-decode"), std::string::npos);

  ExportOptions opts;
  opts.include_detail = true;
  std::ostringstream detail;
  tracer.ExportChromeTrace(detail, opts);
  auto doc = JsonParse(detail.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_EQ(events->array_value.size(), 2u);
  const JsonValue& stage = events->array_value[1];
  EXPECT_EQ(stage.Find("name")->string_value, "stage-decode");
  EXPECT_DOUBLE_EQ(stage.Find("ts")->number_value, 1.0);   // 1000 ns
  EXPECT_DOUBLE_EQ(stage.Find("dur")->number_value, 2.0);  // 2000 ns
  EXPECT_TRUE(stage.Find("args")->Find("detail")->bool_value);
}

TEST(TracerTest, SpanGuardIsInertWithoutATracer) {
  ASSERT_EQ(CurrentTracer(), nullptr);
  SpanGuard guard("orphan", "test", nullptr);
  EXPECT_FALSE(guard.active());
  guard.Tag("ignored", "value");  // must not crash
  guard.Close();
}

TEST(TracerTest, TreeExportIndentsByDepth) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("outer", "test", &cost);
    SpanGuard child("inner", "test", &cost);
    cost.ChargeFixed(1234);
  }
  std::ostringstream out;
  tracer.ExportTree(out);
  EXPECT_NE(out.str().find("outer  1.234 us"), std::string::npos);
  EXPECT_NE(out.str().find("  inner  1.234 us"), std::string::npos);
}

// ---------------- tracer: Chrome export ----------------

TEST(ChromeExportTest, ProducesWellFormedRenumberedJson) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("que\"ry\n", "engine", &cost);  // needs escaping
    tracer.AddDetailSpan("morsel", "sql", 100, 0, 0, 0);
    SpanGuard child("scan", "sql", &cost);
    cost.ChargeFixed(2500);
  }
  std::ostringstream out;
  tracer.ExportChromeTrace(out, ExportOptions{});
  auto doc = JsonParse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The detail span is excluded by default and the remaining ids are
  // renumbered contiguously so the export is worker-count independent.
  ASSERT_EQ(events->array_value.size(), 2u);
  for (size_t i = 0; i < events->array_value.size(); ++i) {
    const JsonValue& ev = events->array_value[i];
    EXPECT_EQ(ev.Find("ph")->string_value, "X");
    EXPECT_DOUBLE_EQ(ev.Find("args")->Find("id")->number_value,
                     static_cast<double>(i));
  }
  EXPECT_EQ(events->array_value[0].Find("name")->string_value, "que\"ry\n");
  EXPECT_DOUBLE_EQ(events->array_value[1].Find("dur")->number_value, 2.5);
  // Wall-clock fields are opt-in.
  EXPECT_EQ(out.str().find("wall_start_us"), std::string::npos);
}

TEST(ChromeExportTest, DetailAndWallAreOptIn) {
  sim::CostModel cost;
  Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    SpanGuard root("root", "test", &cost);
    tracer.AddDetailSpan("morsel", "sql", 100, 3, 10, 20);
  }
  ExportOptions opts;
  opts.include_detail = true;
  opts.include_wall = true;
  std::ostringstream out;
  tracer.ExportChromeTrace(out, opts);
  auto doc = JsonParse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_EQ(events->array_value.size(), 2u);
  const JsonValue& morsel = events->array_value[1];
  EXPECT_TRUE(morsel.Find("args")->Find("detail")->bool_value);
  EXPECT_DOUBLE_EQ(morsel.Find("tid")->number_value, 4);  // lane + 1
  EXPECT_DOUBLE_EQ(morsel.Find("args")->Find("wall_dur_us")->number_value, 10);
}

TEST(ChromeExportTest, SnapshotsCountersWhenRequested) {
  MetricsRegistry registry;
  registry.counter("obs_test.alpha").Add(7);
  registry.gauge("obs_test.beta").Set(-2);
  Tracer tracer;
  ExportOptions opts;
  opts.metrics = &registry;
  std::ostringstream out;
  tracer.ExportChromeTrace(out, opts);
  auto doc = JsonParse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("obs_test.alpha")->number_value, 7);
  EXPECT_DOUBLE_EQ(counters->Find("obs_test.beta")->number_value, -2);
}

// ---------------- metrics ----------------

TEST(MetricsTest, ConcurrentCountersSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Get-or-create races on a handful of shared names on purpose.
      Counter& counter =
          registry.counter("metrics_test.c" + std::to_string(t % 4));
      for (int i = 0; i < kIters; ++i) counter.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (const auto& [name, value] : registry.Snapshot()) total += value;
  EXPECT_EQ(total, int64_t{kThreads} * kIters);
}

TEST(MetricsTest, RegistryReferencesAreStable) {
  MetricsRegistry registry;
  Counter& first = registry.counter("metrics_test.stable");
  for (int i = 0; i < 100; ++i) {
    registry.counter("metrics_test.filler" + std::to_string(i));
  }
  EXPECT_EQ(&first, &registry.counter("metrics_test.stable"));
}

TEST(MetricsTest, MacroAccumulatesInTheGlobalRegistry) {
  Counter& counter = GetCounter("metrics_test.macro");
  counter.Reset();
  IRONSAFE_COUNTER_ADD("metrics_test.macro", 3);
  IRONSAFE_COUNTER_ADD("metrics_test.macro", 4);
  EXPECT_EQ(counter.value(), 7);
}

// ---------------- JSON parser ----------------

TEST(JsonTest, ParsesTheValueGrammar) {
  auto doc = JsonParse(
      R"({"a": [1, 2.5, -3e2, true, false, null], "b": {"nested": "A\n"}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* a = doc->Find("a");
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_value.size(), 6u);
  EXPECT_DOUBLE_EQ(a->array_value[2].number_value, -300.0);
  EXPECT_TRUE(a->array_value[3].bool_value);
  EXPECT_EQ(a->array_value[5].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->Find("b")->Find("nested")->string_value, "A\n");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonParse("").ok());
  EXPECT_FALSE(JsonParse("{").ok());
  EXPECT_FALSE(JsonParse("[1,]").ok());
  EXPECT_FALSE(JsonParse("tru").ok());
  EXPECT_FALSE(JsonParse("1 2").ok());          // trailing garbage
  EXPECT_FALSE(JsonParse("\"\x01\"").ok());     // raw control char
  EXPECT_FALSE(JsonParse(std::string(200, '[')).ok());  // depth bomb
}

TEST(JsonTest, QuoteRoundTrips) {
  const std::string nasty = "a\"b\\c\nd\te\x1f";
  auto doc = JsonParse(JsonQuote(nasty));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->string_value, nasty);
}

// ---------------- end-to-end determinism ----------------

// Runs Q6 under IronSafe's split config on a freshly loaded system with
// the given worker cap and returns the default (deterministic) export.
std::string TraceOfScsRun(int workers) {
  common::ThreadPool::set_max_workers(workers);
  engine::CsaOptions options;
  options.scale_factor = 0.001;
  auto system = engine::CsaSystem::Create(options);
  if (!system.ok()) return "create failed";
  Status load = (*system)->Load([&](sql::Database* db) {
    tpch::TpchGenerator gen(tpch::TpchConfig{options.scale_factor, 42});
    return gen.LoadInto(db);
  });
  if (!load.ok()) return "load failed";
  auto query = tpch::GetQuery(6);
  if (!query.ok()) return "no query";

  Tracer tracer;
  {
    ScopedTracer scope(&tracer);
    auto outcome = (*system)->Run(engine::SystemConfig::kScs, (*query)->sql);
    if (!outcome.ok()) return "run failed";
  }
  std::ostringstream out;
  tracer.ExportChromeTrace(out, ExportOptions{});
  return out.str();
}

TEST(TraceDeterminismTest, SimulatedTraceIsWorkerCountInvariant) {
  std::string one = TraceOfScsRun(1);
  std::string four = TraceOfScsRun(4);
  common::ThreadPool::set_max_workers(0);  // restore the hardware default
  ASSERT_TRUE(JsonParse(one).ok());
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(one.find("\"name\":\"storage-phase\""), std::string::npos);
  EXPECT_NE(one.find("\"name\":\"host-phase\""), std::string::npos);
}

}  // namespace
}  // namespace ironsafe::obs
