// Open-loop traffic harness suite (src/traffic).
//
// Pins the properties the ISSUE's benchmark contract rests on:
//   - arrival schedules are a pure function of (spec, seed, generator):
//     same seed, same schedule — bit-for-bit, for every arrival process;
//   - the latency histogram is exact below an octave, ~3%-bounded above,
//     with nearest-rank percentile semantics, and merges losslessly;
//   - RunTraffic is deterministic per seed (identical histograms across
//     reruns);
//   - the warm-up/measurement-window discipline measures exactly the
//     configured requests and drains every injected arrival;
//   - the saturation search is a pure function of its config;
//   - a generator's packed schedule replays the absolute one exactly, and a
//     generator drops what an untrusted server answers out of turn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/cap_audit.h"
#include "dtu/msg_pool.h"
#include "system/platform.h"
#include "traffic/arrivals.h"
#include "traffic/histogram.h"
#include "traffic/traffic.h"
#include "workloads/nginx.h"

namespace semperos {
namespace {

// --- Arrival-process determinism ---

std::vector<Cycles> Schedule(const ArrivalSpec& spec, uint64_t seed, uint32_t generator,
                             uint32_t generators, uint64_t count) {
  return BuildArrivalSchedule(spec, seed, generator, generators, count);
}

TEST(Arrivals, SameSeedSameSchedule) {
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    ArrivalSpec spec;
    spec.process = process;
    spec.rate_rps = 250'000.0;
    std::vector<Cycles> a = Schedule(spec, 42, 3, 8, 5'000);
    std::vector<Cycles> b = Schedule(spec, 42, 3, 8, 5'000);
    EXPECT_EQ(a, b) << "process " << ArrivalProcessName(process);
  }
}

TEST(Arrivals, SeedAndGeneratorGiveIndependentStreams) {
  ArrivalSpec spec;
  std::vector<Cycles> base = Schedule(spec, 1, 0, 4, 2'000);
  EXPECT_NE(base, Schedule(spec, 2, 0, 4, 2'000)) << "seed must matter";
  EXPECT_NE(base, Schedule(spec, 1, 1, 4, 2'000)) << "generator index must matter";
}

TEST(Arrivals, SchedulesAreStrictlyIncreasing) {
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    ArrivalSpec spec;
    spec.process = process;
    std::vector<Cycles> schedule = Schedule(spec, 7, 0, 2, 10'000);
    ASSERT_EQ(schedule.size(), 10'000u);
    for (size_t i = 1; i < schedule.size(); ++i) {
      ASSERT_LT(schedule[i - 1], schedule[i]) << "at index " << i;
    }
  }
}

TEST(Arrivals, PoissonMeanGapTracksRate) {
  // Aggregate 1M req/s over 4 generators -> per-generator mean gap of
  // 4 * kClockHz / 1e6 = 8000 cycles. The von Neumann sampler is exact in
  // distribution; 50k samples puts the sample mean within a few percent.
  ArrivalSpec spec;
  spec.rate_rps = 1'000'000.0;
  const uint64_t kCount = 50'000;
  std::vector<Cycles> schedule = Schedule(spec, 3, 1, 4, kCount);
  double mean_gap = static_cast<double>(schedule.back() - schedule.front()) /
                    static_cast<double>(kCount - 1);
  EXPECT_NEAR(mean_gap, 8'000.0, 8'000.0 * 0.05);
}

TEST(Arrivals, SampleExpIsDeterministicAndUnitMean) {
  Rng a(99), b(99);
  double sum = 0;
  for (int i = 0; i < 20'000; ++i) {
    double x = SampleExp(&a);
    ASSERT_EQ(x, SampleExp(&b)) << "draw " << i;
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20'000.0, 1.0, 0.05);
}

// --- Latency histogram ---

TEST(Histogram, ExactBelowFirstOctave) {
  LatencyHistogram h;
  for (Cycles v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(v)), v);
  }
  h.Record(7);
  EXPECT_EQ(h.Percentile(0.5), 7u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
}

TEST(Histogram, RelativeErrorBounded) {
  // The upper bucket edge overestimates by at most 2^-kSubBits.
  for (Cycles v : {100ull, 1'000ull, 123'456ull, 10'000'000ull, 987'654'321ull}) {
    Cycles upper = LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(v));
    ASSERT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / LatencyHistogram::kSubBuckets);
  }
}

TEST(Histogram, NearestRankPercentiles) {
  LatencyHistogram h;
  for (Cycles v = 1; v <= 10; ++v) {
    h.Record(v);  // values 1..10, all exact buckets
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.Percentile(0.0), 1u);    // p0 = min
  EXPECT_EQ(h.Percentile(0.10), 1u);   // rank ceil(1.0) = 1
  EXPECT_EQ(h.Percentile(0.50), 5u);   // rank 5
  EXPECT_EQ(h.Percentile(0.91), 10u);  // rank ceil(9.1) = 10
  EXPECT_EQ(h.Percentile(1.0), 10u);   // clamped to max
}

TEST(Histogram, PercentileClampsToObservedMax) {
  LatencyHistogram h;
  h.Record(1'000'000);  // bucket upper edge is above the sample
  EXPECT_EQ(h.Percentile(0.999), 1'000'000u);
}

TEST(Histogram, MergeMatchesUnionAndFingerprint) {
  LatencyHistogram all, left, right;
  for (uint64_t i = 0; i < 4'000; ++i) {
    Cycles v = (i * 2'654'435'761u) % 500'000 + 1;
    all.Record(v);
    (i % 2 == 0 ? left : right).Record(v);
  }
  left.Merge(right);
  EXPECT_TRUE(left == all);
  EXPECT_EQ(left.Fingerprint(), all.Fingerprint());
  EXPECT_EQ(left.Percentile(0.99), all.Percentile(0.99));
  LatencyHistogram other;
  other.Record(1);
  EXPECT_NE(other.Fingerprint(), all.Fingerprint());
}

// A histogram stores the octaves between its smallest and largest sample.
// These cases check it against nearest-rank percentiles over the sorted
// samples (the upper edge of the sample's bucket, clamped to the maximum)
// and against fingerprints of a histogram that stored every bucket from 0.

LatencyHistogram HistogramOf(const std::vector<Cycles>& samples) {
  LatencyHistogram h;
  for (Cycles v : samples) {
    h.Record(v);
  }
  return h;
}

void ExpectPercentilesOf(const LatencyHistogram& h, std::vector<Cycles> samples) {
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.Percentile(0.0), samples.front());
  const double n = static_cast<double>(samples.size());
  for (double q : {0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    size_t rank = std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, samples.size());
    Cycles upper = LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(samples[rank - 1]));
    EXPECT_EQ(h.Percentile(q), std::min(upper, samples.back())) << "q " << q;
  }
}

TEST(Histogram, RangeGrowsDownward) {
  // The first sample is the largest: every later one widens the stored
  // range below it.
  std::vector<Cycles> samples{3'000'000};
  for (uint64_t i = 1; i < 500; ++i) {
    samples.push_back((i * 2'654'435'761u) % 2'000'000 + 100);
  }
  LatencyHistogram h = HistogramOf(samples);
  ExpectPercentilesOf(h, samples);
  EXPECT_EQ(h.max(), 3'000'000u);
  EXPECT_EQ(h.Fingerprint(), 0x9039023400fd2099ull);
}

TEST(Histogram, MergeOfDisjointRanges) {
  std::vector<Cycles> low, high;
  for (uint64_t i = 0; i < 300; ++i) {
    low.push_back(10 + i % 20);
    high.push_back(1'000'000 + (i * 7'919) % 2'000'000);
  }
  std::vector<Cycles> all = low;
  all.insert(all.end(), high.begin(), high.end());
  LatencyHistogram low_then_high = HistogramOf(low);
  low_then_high.Merge(HistogramOf(high));
  LatencyHistogram high_then_low = HistogramOf(high);
  high_then_low.Merge(HistogramOf(low));
  LatencyHistogram direct = HistogramOf(all);
  EXPECT_TRUE(low_then_high == direct);
  EXPECT_TRUE(high_then_low == direct);
  ExpectPercentilesOf(low_then_high, all);
  ExpectPercentilesOf(high_then_low, all);
  EXPECT_EQ(low_then_high.Fingerprint(), 0x6f3ffdddadcd4b50ull);
  EXPECT_EQ(high_then_low.Fingerprint(), 0x6f3ffdddadcd4b50ull);
  EXPECT_FALSE(HistogramOf(low) == direct);
}

TEST(Histogram, SampleOrderDoesNotMatter) {
  std::vector<Cycles> samples;
  for (uint64_t i = 0; i < 1'000; ++i) {
    samples.push_back((i * 2'654'435'761u) % 900'000 + 40);
  }
  std::vector<Cycles> ascending = samples;
  std::sort(ascending.begin(), ascending.end());
  std::vector<Cycles> descending(ascending.rbegin(), ascending.rend());
  LatencyHistogram shuffled = HistogramOf(samples);
  LatencyHistogram up = HistogramOf(ascending);
  LatencyHistogram down = HistogramOf(descending);
  EXPECT_TRUE(shuffled == up);
  EXPECT_TRUE(up == down);
  EXPECT_TRUE(down == shuffled);
  for (const LatencyHistogram* h : {&shuffled, &up, &down}) {
    EXPECT_EQ(h->Fingerprint(), 0xbd37e94fe2d54452ull);
    ExpectPercentilesOf(*h, samples);
  }
}

TEST(Histogram, GeneratorSizedHistogramStaysSmall) {
  // One load generator's measured requests on nginx_local: 800 latencies
  // between 40 us and 1 ms, five octaves of counts.
  const Cycles lo = MicrosToCycles(40.0);
  const Cycles hi = MicrosToCycles(1'000.0);
  LatencyHistogram h;
  for (uint64_t i = 0; i < 800; ++i) {
    h.Record(lo + (i * 2'654'435'761u) % (hi - lo + 1));
  }
  EXPECT_EQ(h.min(), lo);
  EXPECT_LE(h.heap_bytes(), 2u * 1024);
  EXPECT_GT(h.heap_bytes(), 0u);
}

// --- End-to-end harness determinism ---

TrafficConfig SmallConfig() {
  TrafficConfig config;
  config.kernels = 2;
  config.services = 2;
  config.servers = 4;
  config.arrivals.rate_rps = 200'000.0;
  config.warmup = 200;
  config.requests = 2'000;
  config.cooldown = 100;
  return config;
}

TEST(Traffic, RerunsAreBitIdentical) {
  TrafficResult a = RunTraffic(SmallConfig());
  TrafficResult b = RunTraffic(SmallConfig());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_EQ(a.latency.Fingerprint(), b.latency.Fingerprint());
  EXPECT_EQ(a.window_open, b.window_open);
  EXPECT_EQ(a.window_drain, b.window_drain);
}

TEST(Traffic, SeedChangesTheRun) {
  TrafficConfig config = SmallConfig();
  TrafficResult a = RunTraffic(config);
  config.seed = 2;
  TrafficResult b = RunTraffic(config);
  EXPECT_NE(a.latency.Fingerprint(), b.latency.Fingerprint());
}

TEST(Traffic, WindowDisciplineMeasuresExactlyTheConfiguredRequests) {
  TrafficConfig config = SmallConfig();
  TrafficResult r = RunTraffic(config);
  // Open-loop contract: every scheduled arrival is injected and completes
  // (the run drains), and only the measurement window lands in the
  // histogram — warm-up and cool-down requests are injected but unmeasured.
  EXPECT_EQ(r.injected, config.warmup + config.requests + config.cooldown);
  EXPECT_EQ(r.completed, r.injected);
  EXPECT_EQ(r.measured, config.requests);
  EXPECT_EQ(r.latency.count(), config.requests);
  EXPECT_GT(r.window_close, r.window_open);
  EXPECT_GE(r.window_drain, r.window_close);
  EXPECT_GT(r.p99_us, 0.0);
  EXPECT_GE(r.p999_us, r.p99_us);
  EXPECT_GE(r.p99_us, r.p50_us);
}

TEST(Traffic, PostmarkRequestMixRuns) {
  TrafficConfig config = SmallConfig();
  config.request = "postmark";
  config.requests = 1'000;
  TrafficResult r = RunTraffic(config);
  EXPECT_EQ(r.measured, config.requests);
  EXPECT_GT(r.p50_us, 0.0);
}

SaturationConfig SmallSaturationConfig() {
  SaturationConfig config;
  config.traffic = SmallConfig();
  config.traffic.warmup = 100;
  config.traffic.requests = 1'000;
  config.traffic.cooldown = 0;
  config.max_bracket_steps = 3;
  config.refine_steps = 2;
  return config;
}

TEST(Traffic, SaturationSearchIsDeterministic) {
  SaturationConfig config = SmallSaturationConfig();
  SaturationResult a = FindSaturation(config);
  SaturationResult b = FindSaturation(config);
  EXPECT_EQ(a.saturation_rps, b.saturation_rps);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  ASSERT_FALSE(a.probes.empty());
  for (size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].offered_rps, b.probes[i].offered_rps) << i;
    EXPECT_EQ(a.probes[i].throughput_rps, b.probes[i].throughput_rps) << i;
    EXPECT_EQ(a.probes[i].p99_us, b.probes[i].p99_us) << i;
    EXPECT_EQ(a.probes[i].makespan, b.probes[i].makespan) << i;
    EXPECT_EQ(a.probes[i].sustained, b.probes[i].sustained) << i;
  }
}

TEST(Traffic, SaturationReportsMeasuredRate) {
  // The reported rate is what the best sustained probe really offered, not
  // the nominal rate the search asked that probe for.
  SaturationResult r = FindSaturation(SmallSaturationConfig());
  bool matched = false;
  for (const SaturationProbe& probe : r.probes) {
    if (probe.sustained) {
      EXPECT_LE(probe.offered_rps, r.saturation_rps);
      matched = matched || probe.offered_rps == r.saturation_rps;
    }
  }
  EXPECT_GT(r.saturation_rps, 0.0);
  EXPECT_TRUE(matched) << "saturation_rps " << r.saturation_rps
                       << " is no sustained probe's offered_rps";
}

// --- Generators against a server under the test's control ---

// Stands in for NginxServer. kEcho answers each request at once with its
// seq; kReverse holds two requests and answers the second first; kForeign
// answers with a body that is not an NginxResponseMsg. Answers carry the
// request's trace, so a traced run records each answer's transit at the
// generator.
class TestServer : public Program {
 public:
  enum class Mode { kEcho, kReverse, kForeign };
  explicit TestServer(Mode mode) : mode_(mode) {}

  void Setup() override {
    pe_->dtu().ConfigureRecv(kNginxServerRecvEp, 16, [this](EpId ep, const Message& msg) {
      if (mode_ != Mode::kReverse) {
        Answer(ep, msg);
        return;
      }
      held_.push_back(msg);
      if (held_.size() == 2) {
        Answer(ep, held_[1]);
        Answer(ep, held_[0]);
        held_.clear();
      }
    });
  }
  void Start() override {}

 private:
  // `body` with the seq and trace of `req`.
  template <typename T>
  static MsgRef AnswerTo(std::shared_ptr<T> body, const NginxRequestMsg& req) {
    body->seq = req.seq;
    body->trace_id = req.trace_id;
    body->trace_parent = req.trace_parent;
    return body;
  }

  void Answer(EpId ep, const Message& msg) {
    const NginxRequestMsg& req = *msg.As<NginxRequestMsg>();
    MsgRef body = mode_ == Mode::kForeign ? AnswerTo(NewMsg<NginxRequestMsg>(), req)
                                          : AnswerTo(NewMsg<NginxResponseMsg>(), req);
    EXPECT_TRUE(pe_->dtu().Reply(ep, msg.slot, body).ok());
  }

  Mode mode_;
  std::vector<Message> held_;
};

struct GeneratorRun {
  Cycles base = 0;  // the generator's Start() time
  NodeId server = kInvalidNode;
  NodeId generator = kInvalidNode;
  uint64_t injected = 0;
  uint64_t completed = 0;
  uint64_t refused = 0;
  Cycles first_measured = 0;
  Cycles last_measured = 0;
  LatencyHistogram latency;
  std::vector<OpenLoopGen::MeasuredTrace> measured;
  std::vector<obs::Span> spans;  // traced runs: every span, merged
  uint64_t drops = 0;
  bool audit_ok = false;
};

// One OpenLoopGen with `schedule` and 8 credits against one TestServer, run
// to completion.
GeneratorRun RunGenerator(TestServer::Mode mode, std::vector<Cycles> schedule,
                          uint64_t measure_from, uint64_t measure_count, bool traced) {
  PlatformConfig pc;
  pc.users = 1;
  pc.loadgens = 1;
  pc.trace.enabled = traced;
  Platform p(pc);
  GeneratorRun run;
  run.server = p.user_nodes()[0];
  run.generator = p.loadgen_nodes()[0];
  p.pe(run.server)->AttachProgram(std::make_unique<TestServer>(mode));
  auto owned = std::make_unique<OpenLoopGen>(run.server, std::move(schedule), measure_from,
                                             measure_count, /*pipeline=*/8);
  OpenLoopGen* gen = owned.get();
  p.pe(run.generator)->AttachProgram(std::move(owned));
  p.Boot();
  run.base = p.sim().Now();
  p.RunToCompletion();
  run.injected = gen->injected();
  run.completed = gen->completed();
  run.refused = gen->refused_responses();
  run.first_measured = gen->first_measured_arrival();
  run.last_measured = gen->last_measured_arrival();
  run.latency = gen->latency();
  run.measured = gen->measured_traces();
  if (traced) {
    run.spans = p.tracer()->Merged();
  }
  run.drops = p.TotalDrops();
  run.audit_ok = AuditPlatform(p).ok();
  return run;
}

// Gaps that need 1, 2, ..., 8 bytes.
constexpr Cycles kWideGaps[] = {1,
                                300,
                                70'000,
                                Cycles{1} << 25,
                                Cycles{1} << 33,
                                Cycles{1} << 41,
                                Cycles{1} << 49,
                                Cycles{1} << 57};

// A generator packs its gaps at the width of its widest one. For each width
// the schedule starts at cycle 0 and takes the gaps up to that width twice
// over; at 8 bytes it holds every gap above. The window leaves out the
// first and the last arrival. The echo server answers at once and 8 credits
// cover every request in flight, so each request leaves at its arrival.
TEST(PackedSchedule, EveryWidthReplaysTheAbsoluteSchedule) {
  for (size_t width = 1; width <= std::size(kWideGaps); ++width) {
    std::vector<Cycles> schedule{0};
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t g = 0; g < width; ++g) {
        schedule.push_back(schedule.back() + kWideGaps[g]);
      }
    }
    const uint64_t from = 1;
    const uint64_t count = schedule.size() - 2;
    const std::string what = "width " + std::to_string(width);
    GeneratorRun plain = RunGenerator(TestServer::Mode::kEcho, schedule, from, count, false);
    GeneratorRun traced = RunGenerator(TestServer::Mode::kEcho, schedule, from, count, true);
    for (const GeneratorRun* run : {&plain, &traced}) {
      EXPECT_EQ(run->injected, schedule.size()) << what;
      EXPECT_EQ(run->completed, schedule.size()) << what;
      EXPECT_EQ(run->refused, 0u) << what;
      EXPECT_EQ(run->first_measured, run->base + schedule[from]) << what;
      EXPECT_EQ(run->last_measured, run->base + schedule[from + count - 1]) << what;
      EXPECT_EQ(run->drops, 0u) << what;
      EXPECT_TRUE(run->audit_ok) << what;
    }
    ASSERT_EQ(plain.base, traced.base) << what;

    // The traced run: each request's root span opens at its scheduled
    // arrival, and it went on the wire then (its transit to the server
    // starts there, and no queue span exists). The answer's transit to the
    // generator ends at the completion, which closes the root.
    std::vector<obs::Span> roots;
    std::map<uint64_t, Cycles> sent, answered;
    for (const obs::Span& span : traced.spans) {
      if (span.kind == obs::SpanKind::kRequest && span.entity == traced.generator) {
        roots.push_back(span);
      } else if (span.kind == obs::SpanKind::kTransit && span.entity == traced.server) {
        sent[span.trace_id] = span.start;
      } else if (span.kind == obs::SpanKind::kTransit && span.entity == traced.generator) {
        answered[span.trace_id] = span.end;
      }
      EXPECT_NE(span.kind, obs::SpanKind::kQueue) << what;
    }
    ASSERT_EQ(roots.size(), schedule.size()) << what;
    LatencyHistogram expected;
    std::map<uint64_t, Cycles> expected_by_trace;
    for (size_t i = 0; i < roots.size(); ++i) {
      const Cycles arrival = traced.base + schedule[i];
      EXPECT_EQ(roots[i].start, arrival) << what << " request " << i;
      EXPECT_EQ(sent.at(roots[i].trace_id), arrival) << what << " request " << i;
      EXPECT_EQ(answered.at(roots[i].trace_id), roots[i].end) << what << " request " << i;
      if (i >= from && i < from + count) {
        expected.Record(roots[i].end - arrival);
        expected_by_trace[roots[i].trace_id] = roots[i].end - arrival;
      }
    }
    // Every recorded latency is the completion less the absolute arrival,
    // traced or not.
    EXPECT_TRUE(plain.latency == expected) << what;
    EXPECT_TRUE(traced.latency == expected) << what;
    ASSERT_EQ(traced.measured.size(), count) << what;
    for (const OpenLoopGen::MeasuredTrace& m : traced.measured) {
      EXPECT_EQ(m.latency, expected_by_trace.at(m.trace_id)) << what;
    }
  }
}

// A server PE is untrusted. Answering its two held requests in reverse
// order, it sends the answer to the second while the first is awaited: the
// generator drops it, completes the first, and the run ends cleanly.
TEST(UntrustedServer, OpenLoopGenRefusesAnAnswerOutOfTurn) {
  GeneratorRun run = RunGenerator(TestServer::Mode::kReverse, {0, 1'000}, 0, 2, false);
  EXPECT_EQ(run.injected, 2u);
  EXPECT_EQ(run.refused, 1u);
  EXPECT_EQ(run.completed, 1u);
  EXPECT_EQ(run.latency.count(), 1u);
  EXPECT_EQ(run.drops, 0u);
  EXPECT_TRUE(run.audit_ok);
}

TEST(UntrustedServer, OpenLoopGenRefusesAForeignBody) {
  GeneratorRun run = RunGenerator(TestServer::Mode::kForeign, {0, 1'000, 2'000}, 0, 3, false);
  EXPECT_EQ(run.injected, 3u);
  EXPECT_EQ(run.refused, 3u);
  EXPECT_EQ(run.completed, 0u);
  EXPECT_EQ(run.latency.count(), 0u);
  EXPECT_EQ(run.drops, 0u);
  EXPECT_TRUE(run.audit_ok);
}

// The closed-loop LoadGen drops a foreign answer, and sends nothing in its
// place, so the run drains.
TEST(UntrustedServer, LoadGenRefusesAForeignBody) {
  PlatformConfig pc;
  pc.users = 1;
  pc.loadgens = 1;
  Platform p(pc);
  NodeId server = p.user_nodes()[0];
  p.pe(server)->AttachProgram(std::make_unique<TestServer>(TestServer::Mode::kForeign));
  auto owned = std::make_unique<LoadGen>(server, /*pipeline=*/2);
  LoadGen* gen = owned.get();
  p.pe(p.loadgen_nodes()[0])->AttachProgram(std::move(owned));
  p.Boot();
  p.RunToCompletion();
  EXPECT_EQ(gen->refused_responses(), 2u);
  EXPECT_EQ(gen->completed(), 0u);
  EXPECT_EQ(p.TotalDrops(), 0u);
  EXPECT_TRUE(AuditPlatform(p).ok());
}

}  // namespace
}  // namespace semperos
