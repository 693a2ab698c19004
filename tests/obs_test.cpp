// Observability suite (src/obs): the flight recorder for capability
// operations (deterministic span tracing + the typed metric registry).
//
// Covers the tentpole contracts:
//  - span lifecycle and canonical merge order,
//  - ring overflow drops are counted, never fatal,
//  - the critical-path decomposition is total (per-kind sums == root
//    duration) and connectivity is detected,
//  - the metric registry walks every KernelStats field and accumulates
//    with counter/gauge semantics,
//  - integration: a spanning obtain on a 4-kernel platform yields ONE
//    connected span tree whose critical-path cycle sum equals the measured
//    latency,
//  - pipelined relay hops stay parent-linked into the request trees that
//    ride in them,
//  - the whole-run trace report equals the per-trace walk, and an output
//    path alone turns its recorder on,
//  - the metrics timeline has a row per interval boundary the clock passed
//    and a last row at the run's end holding the final counters.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "system/client.h"
#include "system/experiment.h"
#include "traffic/traffic.h"

namespace semperos {
namespace {

obs::Span MakeSpan(uint64_t trace, uint64_t span, uint64_t parent, Cycles start, Cycles end,
                   uint32_t entity, obs::SpanKind kind) {
  obs::Span s;
  s.trace_id = trace;
  s.span_id = span;
  s.parent_id = parent;
  s.start = start;
  s.end = end;
  s.entity = entity;
  s.kind = kind;
  return s;
}

TEST(Tracer, SpanLifecycleAndCanonicalMerge) {
  obs::TraceConfig config;
  config.enabled = true;
  obs::Tracer tracer(/*entities=*/3, config);

  // Trace ids encode (origin entity, per-entity seq) — never wall clock.
  uint64_t t0 = tracer.NewTraceId(0);
  uint64_t t1 = tracer.NewTraceId(1);
  EXPECT_NE(t0, 0u);
  EXPECT_NE(t0, t1);
  EXPECT_EQ(tracer.NewTraceId(0), t0 + 1);  // same origin => consecutive seq

  uint64_t s0 = tracer.NextSpanId(0);
  uint64_t s1 = tracer.NextSpanId(1);
  EXPECT_NE(s0, s1);

  // Record out of start order, across entities; the merge must come back in
  // canonical (start, entity, span_id) order.
  tracer.Record(MakeSpan(t0, s0, 0, 50, 90, 0, obs::SpanKind::kRequest));
  tracer.Record(MakeSpan(t1, s1, 0, 10, 40, 1, obs::SpanKind::kSyscall));
  tracer.Record(MakeSpan(t1, tracer.NextSpanId(2), s1, 10, 20, 2, obs::SpanKind::kTransit));
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::vector<obs::Span>& merged = tracer.Merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].start, 10u);
  EXPECT_EQ(merged[0].entity, 1u);  // entity breaks the start tie
  EXPECT_EQ(merged[1].entity, 2u);
  EXPECT_EQ(merged[2].start, 50u);

  // SpansOf filters by trace, preserving canonical order.
  EXPECT_EQ(tracer.SpansOf(t1).size(), 2u);
  EXPECT_EQ(tracer.SpansOf(t0).size(), 1u);
  EXPECT_NE(tracer.Fingerprint(), 0u);
}

TEST(Tracer, FingerprintIsContentSensitive) {
  obs::TraceConfig config;
  config.enabled = true;
  auto fingerprint_of = [&config](Cycles end) {
    obs::Tracer tracer(1, config);
    uint64_t t = tracer.NewTraceId(0);
    tracer.Record(MakeSpan(t, tracer.NextSpanId(0), 0, 0, end, 0, obs::SpanKind::kRequest));
    return tracer.Fingerprint();
  };
  EXPECT_EQ(fingerprint_of(100), fingerprint_of(100));  // pure function of content
  EXPECT_NE(fingerprint_of(100), fingerprint_of(101));  // one cycle flips it
}

TEST(Tracer, RingOverflowDropsCountedNotFatal) {
  obs::TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 4;
  obs::Tracer tracer(/*entities=*/2, config);
  uint64_t t = tracer.NewTraceId(0);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(
        MakeSpan(t, tracer.NextSpanId(0), 0, i, i + 1, 0, obs::SpanKind::kSyscall));
  }
  // Entity 1's ring is untouched; entity 0 keeps the first 4 and counts 6
  // drops — no CHECK, no reallocation, the run continues.
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.Merged().size(), 4u);
  EXPECT_NE(tracer.Fingerprint(), 0u);
}

TEST(Tracer, CriticalPathDecompositionIsTotal) {
  // request [0,100] with syscall child [10,40] (transit grandchild [12,20])
  // and a serve child [60,90]: gaps are self time and every cycle of the
  // root lands in exactly one bucket.
  std::vector<obs::Span> spans;
  spans.push_back(MakeSpan(7, 1, 0, 0, 100, 0, obs::SpanKind::kRequest));
  spans.push_back(MakeSpan(7, 2, 1, 10, 40, 0, obs::SpanKind::kSyscall));
  spans.push_back(MakeSpan(7, 3, 2, 12, 20, 1, obs::SpanKind::kTransit));
  spans.push_back(MakeSpan(7, 4, 1, 60, 90, 2, obs::SpanKind::kServe));
  obs::CriticalPath cp = ComputeCriticalPathOver(spans, 7);
  EXPECT_TRUE(cp.connected);
  EXPECT_EQ(cp.total, 100u);
  EXPECT_EQ(cp.spans, 4u);
  EXPECT_EQ(cp.depth, 3u);
  Cycles sum = 0;
  for (Cycles c : cp.by_kind) {
    sum += c;
  }
  EXPECT_EQ(sum, cp.total);  // the decomposition is total, structurally
  EXPECT_EQ(cp.by_kind[static_cast<size_t>(obs::SpanKind::kTransit)], 8u);
  EXPECT_EQ(cp.by_kind[static_cast<size_t>(obs::SpanKind::kSyscall)], 22u);  // 30 - 8
  EXPECT_EQ(cp.by_kind[static_cast<size_t>(obs::SpanKind::kServe)], 30u);
  // Root self time: [0,10) + [40,60) + [90,100) = 40.
  EXPECT_EQ(cp.self, 40u);

  // Drop the syscall span: its transit child dangles and connectivity
  // must flip off (the walk still terminates).
  std::vector<obs::Span> broken = {spans[0], spans[2], spans[3]};
  EXPECT_FALSE(ComputeCriticalPathOver(broken, 7).connected);
}

TEST(Metrics, KernelRegistryCoversEveryFieldAndAccumulates) {
  KernelStats a;
  a.syscalls = 10;
  a.threads_in_use_max = 3;
  a.ikc_op_sent[static_cast<size_t>(IkcOp::kObtainReq)] = 5;
  KernelStats b;
  b.syscalls = 7;
  b.threads_in_use_max = 2;
  b.ikc_op_sent[static_cast<size_t>(IkcOp::kObtainReq)] = 4;

  size_t visited = 0;
  obs::ForEachKernelMetric(a, [&visited](const obs::MetricValue&) { visited++; });
  EXPECT_EQ(visited, obs::KernelMetricCount());
  EXPECT_GT(visited, 40u);  // scalars plus both per-IKC-op arrays

  obs::AccumulateKernelStats(&a, b);
  EXPECT_EQ(a.syscalls, 17u);                // counters add
  EXPECT_EQ(a.threads_in_use_max, 3u);       // gauges take the max
  EXPECT_EQ(a.ikc_op_sent[static_cast<size_t>(IkcOp::kObtainReq)], 9u);
}

TEST(Metrics, TimelineSamplesAndJsonSchema) {
  obs::TimelineConfig config;
  config.interval = 10;
  EXPECT_TRUE(config.enabled());
  obs::MetricsTimeline timeline(config);
  KernelStats s;
  s.syscalls = 1;
  timeline.Sample(0, s);
  s.syscalls = 5;
  timeline.Sample(10, s);
  ASSERT_EQ(timeline.samples().size(), 2u);
  EXPECT_EQ(timeline.samples()[1].t, 10u);
  EXPECT_EQ(timeline.samples()[0].values.size(), obs::MetricsTimeline::Names().size());
  EXPECT_EQ(obs::MetricsTimeline::Names().size(), obs::KernelMetricCount());

  std::string path = testing::TempDir() + "obs_timeline.json";
  ASSERT_TRUE(timeline.WriteJson(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"interval\":10"), std::string::npos);
  EXPECT_NE(json.find("\"names\":[\"syscalls\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":"), std::string::npos);
  std::remove(path.c_str());
}

// ---- integration: span trees from a booted platform ----

struct SpanningObtainRun {
  Cycles latency = 0;
  uint64_t recorded = 0;
  obs::CriticalPath path;
  obs::TraceReport report;
  // Tracer::ComputeCriticalPath of each of report.slowest, in order.
  std::vector<obs::CriticalPath> slowest_direct;
};

// One spanning obtain across a 4-kernel platform: client 3 (kernel 3)
// obtains a capability owned by client 0 (kernel 0). Exactly one user
// request trace must exist, its tree connected, and its critical-path sum
// equal to the measured syscall latency.
SpanningObtainRun RunSpanningObtain() {
  PlatformConfig pc;
  pc.kernels = 4;
  pc.users = 4;
  pc.trace.enabled = true;
  DriverRig rig = MakeDriverRig(pc);
  CHECK(rig.p().membership().KernelOf(rig.vpe(3)) != rig.p().membership().KernelOf(rig.vpe(0)));

  CapSel root = rig.Grant(0);
  VpeId owner = rig.vpe(0);
  SpanningObtainRun run;
  run.latency = rig.TimedOp([&rig, owner, root](std::function<void()> done) {
    rig.client(3).env().Obtain(owner, root, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done();
    });
  });
  EXPECT_GE(rig.p().TotalKernelStats().spanning_obtains, 1u);

  obs::Tracer* tracer = rig.p().tracer();
  CHECK(tracer != nullptr);
  run.recorded = tracer->recorded();

  // Exactly one user-request root span (boot IKC traffic has its own
  // kernel-minted traces, but no kRequest roots).
  uint64_t trace = 0;
  int request_roots = 0;
  for (const obs::Span& s : tracer->Merged()) {
    if (s.kind == obs::SpanKind::kRequest && s.parent_id == 0) {
      request_roots++;
      trace = s.trace_id;
    }
  }
  EXPECT_EQ(request_roots, 1);
  run.path = tracer->ComputeCriticalPath(trace);
  run.report = tracer->Report();
  for (const obs::CriticalPath& path : run.report.slowest) {
    run.slowest_direct.push_back(tracer->ComputeCriticalPath(path.trace_id));
  }
  return run;
}

void ExpectSamePath(const obs::CriticalPath& a, const obs::CriticalPath& b) {
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.root_span, b.root_span);
  EXPECT_EQ(a.total, b.total);
  for (size_t k = 0; k < static_cast<size_t>(obs::SpanKind::kNumKinds); ++k) {
    EXPECT_EQ(a.by_kind[k], b.by_kind[k]) << obs::SpanKindName(static_cast<obs::SpanKind>(k));
  }
  EXPECT_EQ(a.self, b.self);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.connected, b.connected);
}

TEST(ObsIntegration, SpanningObtainYieldsConnectedTreeMatchingLatency) {
  SpanningObtainRun run = RunSpanningObtain();
  EXPECT_TRUE(run.path.connected);
  EXPECT_EQ(run.path.total, run.latency);
  EXPECT_GE(run.path.spans, 4u);  // syscall + IKC legs + transits
  EXPECT_GE(run.path.depth, 3u);
  Cycles sum = 0;
  for (Cycles c : run.path.by_kind) {
    sum += c;
  }
  EXPECT_EQ(sum, run.path.total);
}

// The whole-run report groups the spans by trace in one sort and walks
// each tree once; every path it keeps must equal the per-trace walk.
TEST(ObsIntegration, TraceReportMatchesPerTraceWalk) {
  SpanningObtainRun run = RunSpanningObtain();
  const obs::TraceReport& report = run.report;
  ASSERT_FALSE(report.slowest.empty());
  ASSERT_EQ(report.slowest.size(), run.slowest_direct.size());
  for (size_t i = 0; i < report.slowest.size(); ++i) {
    ExpectSamePath(report.slowest[i], run.slowest_direct[i]);
    if (i > 0) {
      EXPECT_GE(report.slowest[i - 1].total, report.slowest[i].total);
    }
  }
  uint64_t spans = 0;
  for (uint64_t n : report.spans) {
    spans += n;
  }
  EXPECT_EQ(spans, run.recorded);
  uint64_t traces = 0;
  for (uint64_t n : report.depth_traces) {
    traces += n;
  }
  EXPECT_EQ(traces, report.traces);
  EXPECT_EQ(report.disconnected, 0u);
}

// An output path alone turns its recorder on: a trace path enables
// tracing, a metrics path arms the timeline at the default interval.
TEST(ObsIntegration, OutputPathAloneTurnsItsRecorderOn) {
  TrafficConfig traffic;
  traffic.kernels = 2;
  traffic.services = 2;
  traffic.servers = 4;
  traffic.warmup = 20;
  traffic.requests = 100;
  traffic.setup.trace_out = testing::TempDir() + "obs_traffic_trace.json";
  TrafficResult t = RunTraffic(traffic);
  EXPECT_EQ(t.outcome.write_errors, std::vector<std::string>());
  EXPECT_GT(t.outcome.spans_recorded, 0u);
  std::ifstream trace_file(traffic.setup.trace_out);
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  std::remove(traffic.setup.trace_out.c_str());

  AppRunConfig app;
  app.app = "find";
  app.kernels = 2;
  app.services = 2;
  app.instances = 4;
  app.setup.metrics_out = testing::TempDir() + "obs_app_metrics.json";
  AppRunResult a = RunApp(app);
  EXPECT_EQ(a.outcome.write_errors, std::vector<std::string>());
  std::ifstream metrics_file(app.setup.metrics_out);
  std::stringstream metrics_text;
  metrics_text << metrics_file.rdbuf();
  EXPECT_EQ(metrics_text.str().rfind("{\"interval\":100000,", 0), 0u) << metrics_text.str();
  std::remove(app.setup.metrics_out.c_str());

  // A file that cannot be written is reported, not fatal: one that cannot
  // be opened, and one on a full device, whose writes fail.
  std::vector<std::string> unwritable = {testing::TempDir() + "no-such-dir/out.json"};
  if (access("/dev/full", W_OK) == 0) {
    unwritable.push_back("/dev/full");
  }
  // With both paths unwritable, both failures are named, trace file first
  // (the order they are written).
  using Errors = std::vector<std::string>;
  for (const std::string& path : unwritable) {
    app.setup = RunSetup();
    app.setup.metrics_out = path;
    a = RunApp(app);
    EXPECT_EQ(a.outcome.write_errors, Errors{"cannot write metrics timeline " + path});
    app.setup = RunSetup();
    app.setup.trace_out = path;
    a = RunApp(app);
    EXPECT_EQ(a.outcome.write_errors, Errors{"cannot write trace file " + path});
    app.setup.metrics_out = path;
    a = RunApp(app);
    EXPECT_EQ(a.outcome.write_errors,
              (Errors{"cannot write trace file " + path, "cannot write metrics timeline " + path}));
  }
}

// The timeline has a row for each interval boundary the clock moved past,
// sampled without stopping the run, and a last row at the run's end that
// holds the final counters.
TEST(ObsIntegration, TimelineRowsAreBoundariesThenTheEnd) {
  constexpr Cycles kInterval = 3'000;
  PlatformConfig pc;
  pc.kernels = 4;
  pc.users = 4;
  pc.timeline.interval = kInterval;
  DriverRig rig = MakeDriverRig(pc);
  CapSel root = rig.Grant(0);
  VpeId owner = rig.vpe(0);
  rig.TimedOp([&rig, owner, root](std::function<void()> done) {
    rig.client(3).env().Obtain(owner, root, [done](const SyscallReply&) { done(); });
  });
  Platform& p = rig.p();
  const Cycles end = p.sim().Now();
  RunOutcome outcome;
  outcome.Harvest(&p, RunSetup());

  const std::vector<obs::TimelineSample>& rows = p.timeline()->samples();
  ASSERT_EQ(rows.size(), (end - 1) / kInterval + 2);
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_EQ(rows[i].t, i * kInterval);
  }
  EXPECT_EQ(rows.back().t, end);
  std::vector<uint64_t> final_counters;
  obs::ForEachKernelMetric(outcome.kernel_stats, [&](const obs::MetricValue& m) {
    final_counters.push_back(m.value);
  });
  EXPECT_EQ(rows.back().values, final_counters);
  EXPECT_NE(rows.front().values, final_counters);
}

// Migration mid-obtain: stale-epoch requests travel as pipelined relays.
// Each kRelay hop must land inside the obtain's trace, parent-linked.
TEST(ObsIntegration, PipelinedRelayHopsStayParentLinked) {
  PlatformConfig pc;
  pc.kernels = 3;
  pc.users = 6;
  pc.trace.enabled = true;
  DriverRig rig = MakeDriverRig(pc);

  auto client_in_kernel = [&rig](KernelId k, size_t j) {
    size_t seen = 0;
    for (size_t i = 0; i < rig.clients.size(); ++i) {
      if (rig.p().membership().KernelOf(rig.vpe(i)) == k) {
        if (seen == j) {
          return i;
        }
        ++seen;
      }
    }
    CHECK(false) << "kernel " << k << " has no client #" << j;
    return size_t{0};
  };
  size_t c0 = client_in_kernel(0, 0);
  size_t c1 = client_in_kernel(1, 0);
  size_t c2 = client_in_kernel(2, 0);
  VpeId mover = rig.vpe(c0);
  CapSel root = rig.Grant(c0);

  for (size_t receiver : {c1, c2}) {
    bool delegated = false;
    rig.client(c0).env().Delegate(root, rig.vpe(receiver),
                                  [&delegated](const SyscallReply& r) {
                                    CHECK(r.err == ErrCode::kOk);
                                    delegated = true;
                                  });
    rig.p().RunToCompletion();
    ASSERT_TRUE(delegated);
  }

  bool migrated = false;
  int obtains_ok = 0;
  Cycles t0 = rig.p().sim().Now();
  rig.p().sim().ScheduleAt(t0 + 4'000, [&rig, &migrated, mover] {
    rig.p().MigratePe(mover, 2, [&migrated](ErrCode err) {
      CHECK(err == ErrCode::kOk);
      migrated = true;
    });
  });
  size_t obtainers[] = {c1, c2, client_in_kernel(1, 1)};
  Cycles offsets[] = {2'000, 4'500, 9'000};
  for (int i = 0; i < 3; ++i) {
    size_t who = obtainers[i];
    rig.p().sim().ScheduleAt(t0 + offsets[i], [&rig, &obtains_ok, who, mover, root] {
      rig.client(who).env().Obtain(mover, root, [&obtains_ok](const SyscallReply& r) {
        CHECK(r.err == ErrCode::kOk);
        obtains_ok++;
      });
    });
  }
  rig.p().RunToCompletion();
  ASSERT_TRUE(migrated);
  ASSERT_EQ(obtains_ok, 3);
  if (rig.p().TotalKernelStats().ikc_relays_pipelined == 0) {
    GTEST_SKIP() << "scenario produced no pipelined relays";
  }

  obs::Tracer* tracer = rig.p().tracer();
  ASSERT_NE(tracer, nullptr);
  std::set<std::pair<uint64_t, uint64_t>> ids;
  for (const obs::Span& s : tracer->Merged()) {
    ids.emplace(s.trace_id, s.span_id);
  }
  int relay_spans = 0;
  for (const obs::Span& s : tracer->Merged()) {
    if (s.kind != obs::SpanKind::kRelay) {
      continue;
    }
    relay_spans++;
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_TRUE(ids.count({s.trace_id, s.parent_id}))
        << "relay span " << s.span_id << " has a dangling parent";
  }
  EXPECT_GE(relay_spans, 1);
}

// The open-loop harness retains span trees for the slowest requests of
// each percentile bucket, each with a total critical-path decomposition
// whose cycle sum equals that request's reported latency.
TEST(ObsIntegration, TrafficTailExemplarsRetainSpanTrees) {
  TrafficConfig config;
  config.kernels = 4;
  config.services = 4;
  config.servers = 8;
  config.warmup = 100;
  config.requests = 400;
  config.setup.trace.enabled = true;
  TrafficResult result = RunTraffic(config);
  EXPECT_GT(result.outcome.spans_recorded, 0u);
  EXPECT_EQ(result.outcome.spans_dropped, 0u);
  ASSERT_FALSE(result.exemplars.empty());
  for (const TrafficResult::Exemplar& e : result.exemplars) {
    EXPECT_FALSE(e.bucket.empty());
    EXPECT_FALSE(e.spans.empty());
    EXPECT_TRUE(e.path.connected) << "exemplar " << e.bucket;
    EXPECT_EQ(e.path.total, e.latency) << "exemplar " << e.bucket;
    Cycles sum = 0;
    for (Cycles c : e.path.by_kind) {
      sum += c;
    }
    EXPECT_EQ(sum, e.path.total) << "exemplar " << e.bucket;
  }
}

}  // namespace
}  // namespace semperos
