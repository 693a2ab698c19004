// perfbench driver: one run of one benchmark workload, assembled from the
// simulator library's public calls and timed from outside.
//
//   perfbench_driver --workload=NAME --seed=N [--mode=run|solo|saturation]
//                    [--threads=T] [--traced] [--spans-out=FILE]
//
// Prints exactly one line: a flat JSON object with the host timings of every
// call (steady_clock), the modeled results, the layers' own counters and the
// correctness checks. perfbench/run.py repeats runs, compares them and turns
// them into the benchmark's metrics; see perfbench/README.md.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "audit/cap_audit.h"
#include "base/rng.h"
#include "fs/fs_image.h"
#include "obs/trace.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "traffic/arrivals.h"
#include "traffic/histogram.h"
#include "traffic/traffic.h"
#include "workloads/nginx.h"
#include "workloads/workloads.h"

namespace {

using namespace semperos;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Shape {
  const char* name;
  bool traffic;          // open loop (TrafficConfig shape) vs closed-loop apps
  const char* request;   // app name, or the per-request server trace
  uint32_t kernels;
  uint32_t services;
  uint32_t users;        // app instances, or server PEs (one generator each)
  double rate_rps;       // nominal aggregate Poisson rate (traffic)
  uint64_t warmup;       // requests injected before the window (traffic)
  uint64_t requests;     // measured requests (traffic)
};

constexpr Shape kShapes[] = {
    {"apps_postmark", false, "postmark", 64, 64, 4096, 0, 0, 0},
    {"nginx_local", true, "nginx", 32, 32, 256, 1'500'000, 2'000, 200'000},
    {"postmark_spanning", true, "postmark", 32, 8, 256, 200'000, 2'000, 100'000},
};

// Apps inputs from the seed: every instance first computes for a seeded
// 1..kMaxStartJitter cycles, so instances reach the kernels in a different
// interleaving per seed. The trace itself (and its Table 4 cap-op count) is
// unchanged.
constexpr Cycles kMaxStartJitter = 4'000;

// Transport credits per open-loop generator (TrafficConfig default).
constexpr uint32_t kPipeline = 8;
// Per-entity span ring for traced runs: large enough that no span drops.
constexpr uint32_t kTracedRingCapacity = 1u << 26;

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Output: one flat JSON object
// ---------------------------------------------------------------------------

class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += (c == '\n') ? ' ' : c;
    }
    Raw(key, quoted + "\"");
  }
  std::string Finish() const { return "{" + body_.str() + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    body_ << (first_ ? "" : ",") << "\"" << key << "\":" << value;
    first_ = false;
  }
  std::ostringstream body_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Host-time spans around each library call
// ---------------------------------------------------------------------------

class Phases {
 public:
  Phases() : origin_(Clock::now()) {}

  template <typename F>
  void Time(const char* name, F&& body) {
    Clock::time_point start = Clock::now();
    body();
    list_.push_back({name, Seconds(start), Seconds(Clock::now())});
  }
  double Duration(const char* name) const {
    double total = 0;
    for (const Entry& e : list_) {
      total += std::strcmp(e.name, name) == 0 ? e.end - e.start : 0.0;
    }
    return total;
  }
  double Start(const char* name) const { return Find(name).start; }
  double End(const char* name) const { return Find(name).end; }

  // Chrome trace_event JSON of the benchmark's own spans (host microseconds).
  bool Write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < list_.size(); ++i) {
      std::fprintf(f, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i == 0 ? "" : ",\n", list_[i].name, workload.c_str(), list_[i].start * 1e6,
                   (list_[i].end - list_[i].start) * 1e6);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Entry {
    const char* name;
    double start;
    double end;
  };
  double Seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  const Entry& Find(const char* name) const {
    for (const Entry& e : list_) {
      if (std::strcmp(e.name, name) == 0) {
        return e;
      }
    }
    std::fprintf(stderr, "perfbench: no phase %s\n", name);
    std::exit(3);
  }

  Clock::time_point origin_;
  std::vector<Entry> list_;
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

volatile uint64_t g_reference_sink = 0;

// A fixed workload that uses none of the simulator: a dependent walk over a
// 16 MiB single-cycle permutation (cache-missing, like the event heap) plus
// integer mixing. Its time tracks host speed, as a diagnostic beside each run.
double ReferenceLoopSeconds() {
  constexpr uint32_t kSlots = 1u << 22;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) {
    next[i] = i;
  }
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle over all slots
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  Clock::time_point start = Clock::now();
  uint32_t at = 0;
  uint64_t mix = 0;
  for (uint32_t step = 0; step < kSlots / 4; ++step) {
    at = next[at];
    mix = (mix ^ at) * 0x100000001b3ull;
  }
  g_reference_sink = mix;  // the walk must finish before the clock is read
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The process's resident high-water mark. VmHWM belongs to this program
// image; getrusage's ru_maxrss would also carry the launching process's
// footprint from before exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr &&
         std::sscanf(line, "VmHWM: %llu kB", &kib) != 1) {
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// FNV-1a over a value sequence: a compact fingerprint of modeled outputs.
class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// Nearest-rank percentile over exact samples (sorted ascending).
Cycles ExactPercentile(const std::vector<Cycles>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// The histogram's nearest-rank percentile, refined linearly by the rank's
// position among the samples sharing its (~3% wide) bucket. Uses only the
// histogram's public API: Percentile() at rank midpoints gives the bucket of
// any rank, so the bucket's rank range is found by bisection.
double InterpolatedPercentileCycles(const LatencyHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) {
    return 0;
  }
  auto at_rank = [&h, n](uint64_t r) {
    return h.Percentile((static_cast<double>(r) - 0.5) / static_cast<double>(n));
  };
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  const Cycles value = at_rank(rank);
  uint64_t lo = 1, hi = rank;  // first rank whose value == value
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n;  // last rank whose value == value
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > value) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  const uint64_t last = lo;
  const uint32_t bucket = LatencyHistogram::BucketOf(value);
  const double lower =
      bucket == 0 ? 0.0 : static_cast<double>(LatencyHistogram::BucketUpper(bucket - 1) + 1);
  const double upper = static_cast<double>(value);
  const double position = (static_cast<double>(rank - first) + 0.5) /
                          static_cast<double>(last - first + 1);
  return lower + (upper - lower) * position;
}

double CyclesToUs(double cycles) { return cycles / (static_cast<double>(kClockHz) / 1e6); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Critical-path accounting over every measured request of a traced run
// ---------------------------------------------------------------------------

struct Request {
  uint64_t trace_id;
  Cycles latency;
};

constexpr size_t kKinds = static_cast<size_t>(obs::SpanKind::kNumKinds);

void CriticalPaths(obs::Tracer* tracer, const std::vector<Request>& requests, JsonLine* out) {
  const std::vector<obs::Span>& spans = tracer->Merged();
  // Group span indices by trace in one pass (canonical order kept inside a
  // group); Tracer::ComputeCriticalPath would rescan every span per request.
  std::vector<uint32_t> order(spans.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&spans](uint32_t a, uint32_t b) {
    return spans[a].trace_id != spans[b].trace_id ? spans[a].trace_id < spans[b].trace_id
                                                  : a < b;
  });
  std::vector<Cycles> latencies;
  latencies.reserve(requests.size());
  for (const Request& r : requests) {
    latencies.push_back(r.latency);
  }
  std::sort(latencies.begin(), latencies.end());
  const Cycles tail_from = ExactPercentile(latencies, 0.99);

  double sum[kKinds] = {}, tail_sum[kKinds] = {};
  uint64_t tail_n = 0, mismatched = 0;
  std::vector<obs::Span> group;
  for (const Request& r : requests) {
    auto lo = std::lower_bound(order.begin(), order.end(), r.trace_id,
                               [&spans](uint32_t i, uint64_t id) { return spans[i].trace_id < id; });
    group.clear();
    for (auto it = lo; it != order.end() && spans[*it].trace_id == r.trace_id; ++it) {
      group.push_back(spans[*it]);
    }
    obs::CriticalPath cp = obs::ComputeCriticalPathOver(group, r.trace_id);
    Cycles kind_total = 0;
    for (size_t k = 0; k < kKinds; ++k) {
      kind_total += cp.by_kind[k];
    }
    mismatched += (group.empty() || cp.total != r.latency || kind_total != r.latency) ? 1 : 0;
    const bool tail = r.latency >= tail_from;
    tail_n += tail ? 1 : 0;
    for (size_t k = 0; k < kKinds; ++k) {
      sum[k] += static_cast<double>(cp.by_kind[k]);
      tail_sum[k] += tail ? static_cast<double>(cp.by_kind[k]) : 0.0;
    }
  }
  const double n = static_cast<double>(requests.size());
  for (size_t k = 0; k < kKinds; ++k) {
    std::string kind = obs::SpanKindName(static_cast<obs::SpanKind>(k));
    out->Num("cp_" + kind + "_us", CyclesToUs(Ratio(sum[k], n)));
    out->Num("cp_" + kind + "_tail_us", CyclesToUs(Ratio(tail_sum[k], static_cast<double>(tail_n))));
  }
  out->Int("cp_requests", requests.size());
  out->Int("cp_tail_requests", tail_n);
  out->Int("cp_mismatched", mismatched);
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct RunOptions {
  const Shape* shape = nullptr;
  uint64_t seed = 1;
  uint32_t threads = 1;
  bool traced = false;
  std::string spans_out;
};

PlatformConfig PlatformFor(const RunOptions& o, const TimingModel& timing) {
  PlatformConfig pc;
  pc.kernels = o.shape->kernels;
  pc.services = o.shape->services;
  pc.users = o.shape->users;
  pc.loadgens = o.shape->traffic ? o.shape->users : 0;
  pc.mem_tiles = 1;
  pc.timing = timing;
  pc.threads = o.threads;
  pc.trace.enabled = o.traced;
  pc.trace.ring_capacity = kTracedRingCapacity;
  return pc;
}

uint64_t CapOps(const KernelStats& ks) { return ks.obtains + ks.delegates + ks.revokes; }

// Layer counters read from outside after the run; `makespan` is the modeled
// interval utilizations are taken over.
void LayerCounters(Platform& platform, Cycles makespan, const KernelStats& at_boot,
                   JsonLine* out) {
  KernelStats ks = platform.TotalKernelStats();
  out->Int("core_syscalls", ks.syscalls);
  out->Int("core_cap_ops", CapOps(ks));
  out->Int("core_obtains", ks.obtains);
  out->Num("core_spanning_share", Ratio(static_cast<double>(ks.spanning_obtains),
                                        static_cast<double>(ks.obtains)));
  out->Int("core_ikc_sent", ks.ikc_sent);
  out->Int("core_ikc_boot", at_boot.ikc_sent);
  out->Int("core_ikc_flow_queued", ks.ikc_flow_queued);
  out->Int("core_revoke_reqs_queued", ks.revoke_reqs_queued);
  out->Num("core_ikc_ops_per_batch", Ratio(static_cast<double>(ks.ikc_batched_ops),
                                           static_cast<double>(ks.ikc_batches_sent)));
  out->Num("core_ddl_cache_hit_ratio",
           Ratio(static_cast<double>(ks.ddl_cache_hits),
                 static_cast<double>(ks.ddl_cache_hits + ks.ddl_cache_misses)));

  auto utilization = [&platform, makespan](const std::vector<NodeId>& nodes, const char* key,
                                           JsonLine* o) {
    double sum = 0, max = 0;
    for (NodeId node : nodes) {
      double u = Ratio(static_cast<double>(platform.pe(node)->exec().busy_cycles()),
                       static_cast<double>(makespan));
      sum += u;
      max = std::max(max, u);
    }
    o->Num(std::string(key) + "_util_mean", Ratio(sum, static_cast<double>(nodes.size())));
    o->Num(std::string(key) + "_util_max", max);
  };
  std::vector<NodeId> kernel_nodes;
  for (KernelId k = 0; k < platform.kernel_count(); ++k) {
    kernel_nodes.push_back(platform.kernel_node(k));
  }
  utilization(kernel_nodes, "core", out);
  utilization(platform.service_nodes(), "fs", out);

  NocStats noc = platform.noc().stats();
  out->Int("noc_packets", noc.packets);
  out->Num("noc_mean_hops", Ratio(static_cast<double>(noc.total_hops),
                                  static_cast<double>(noc.packets)));
  out->Num("noc_mean_latency_cycles", Ratio(static_cast<double>(noc.total_latency),
                                            static_cast<double>(noc.packets)));
  out->Num("noc_queueing_share", Ratio(static_cast<double>(noc.total_queueing),
                                       static_cast<double>(noc.total_latency)));

  DtuStats dtu;
  for (uint32_t node = 0; node < platform.pe_count(); ++node) {
    const DtuStats& s = platform.pe(node)->dtu().stats();
    dtu.msgs_sent += s.msgs_sent;
    dtu.sends_denied += s.sends_denied;
    dtu.mem_bytes += s.mem_bytes;
  }
  out->Int("dtu_msgs_sent", dtu.msgs_sent);
  out->Int("dtu_sends_denied", dtu.sends_denied);
  out->Int("dtu_mem_bytes", dtu.mem_bytes);

  // Modeled signature: every counter above that the engine and the tracer
  // must leave untouched.
  Fnv sig;
  for (uint64_t v : {ks.syscalls, ks.obtains, ks.delegates, ks.revokes, ks.spanning_obtains,
                     ks.ikc_sent, ks.ikc_received, ks.ikc_flow_queued, ks.revoke_reqs_queued,
                     ks.ikc_batches_sent, ks.ikc_batched_ops, ks.ddl_cache_hits, noc.packets,
                     noc.total_hops, noc.total_latency, noc.total_queueing, dtu.msgs_sent,
                     dtu.sends_denied, dtu.mem_bytes}) {
    sig.Mix(v);
  }
  for (NodeId node : kernel_nodes) {
    sig.Mix(platform.pe(node)->exec().busy_cycles());
  }
  out->Str("counters_sig", Hex(sig.value()));
}

void EngineCounters(Platform& platform, uint64_t events, JsonLine* out) {
  if (!platform.parallel()) {
    return;
  }
  const EngineStats& es = platform.engine_stats();
  out->Int("engine_windows", es.windows);
  out->Num("engine_events_per_window", Ratio(static_cast<double>(events),
                                             static_cast<double>(es.windows)));
  out->Num("engine_solo_window_share", Ratio(static_cast<double>(es.solo_windows),
                                             static_cast<double>(es.windows)));
  out->Num("engine_handoff_share", Ratio(static_cast<double>(es.handoffs),
                                         static_cast<double>(events)));
  out->Num("engine_imbalance", es.ImbalanceRatio());
}

void HostTimes(const Phases& p, JsonLine* out) {
  out->Num("construct_s", p.Duration("Platform()"));
  out->Num("image_s", p.Duration("PopulateImage+Freeze"));
  out->Num("attach_s", p.Duration("AttachServices"));
  out->Num("trace_build_s", p.Duration("MakeTrace+attach"));
  out->Num("schedule_s", p.Duration("BuildArrivalSchedule+OpenLoopGen"));
  out->Num("boot_s", p.Duration("Boot"));
  out->Num("setup_s", p.End("Boot") - p.Start("Platform()"));
  out->Num("run_s", p.Duration("RunToCompletion"));
  out->Num("audit_s", p.Duration("AuditPlatform"));
}

// Everything both shapes read from outside once the run is over: counters,
// the audit, host times and, on traced runs, the critical path of every
// measured request.
void ReportRun(Platform& platform, Phases* phases, Cycles makespan, const KernelStats& at_boot,
               uint64_t events, const RunOptions& o,
               const std::function<std::vector<Request>()>& measured_requests, JsonLine* out) {
  out->Int("events", events);
  out->Int("drops", platform.TotalDrops());
  LayerCounters(platform, makespan, at_boot, out);
  EngineCounters(platform, events, out);
  AuditReport report;
  phases->Time("AuditPlatform", [&] { report = AuditPlatform(platform); });
  out->Bool("audit_ok", report.ok());
  out->Int("audit_caps_checked", report.caps_checked);
  if (!report.ok()) {
    out->Str("audit_report", report.ToString());
  }
  HostTimes(*phases, out);
  if (obs::Tracer* tr = platform.tracer(); tr != nullptr) {
    Clock::time_point walk = Clock::now();
    out->Int("spans", tr->recorded());
    out->Int("spans_dropped", tr->dropped());
    CriticalPaths(tr, measured_requests(), out);
    out->Num("cp_walk_s", std::chrono::duration<double>(Clock::now() - walk).count());
  }
  if (!o.spans_out.empty() && !phases->Write(o.spans_out, o.shape->name)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
    std::exit(1);
  }
}

void RunApps(const RunOptions& o, JsonLine* out) {
  const Shape& s = *o.shape;
  const TimingModel timing = TimingModel::For(KernelMode::kSemperOSMulti);
  Phases phases;
  std::unique_ptr<Platform> platform;
  phases.Time("Platform()",
              [&] { platform = std::make_unique<Platform>(PlatformFor(o, timing)); });
  FsImage image;
  phases.Time("PopulateImage+Freeze", [&] {
    PopulateImage(&image, s.request, s.users);
    image.Freeze();
  });
  phases.Time("AttachServices", [&] {
    AttachServices(platform.get(), image, timing,
                   image.bytes_used() + s.users * kGrowthHeadroom);
  });
  std::vector<TraceReplayer*> replayers;
  uint32_t expected_cap_ops = 0;
  phases.Time("MakeTrace+attach", [&] {
    Rng rng(o.seed);
    for (uint32_t i = 0; i < s.users; ++i) {
      Trace trace = MakeTrace(s.request, i);
      expected_cap_ops += trace.expected_cap_ops;
      trace.ops.insert(trace.ops.begin(),
                       TraceOp::Compute(rng.NextInRange(1, kMaxStartJitter)));
      NodeId node = platform->user_nodes().at(i);
      NodeId kernel_node = platform->kernel_node(platform->membership().KernelOf(node));
      auto replayer = std::make_unique<TraceReplayer>(std::move(trace), kernel_node, timing);
      replayers.push_back(replayer.get());
      platform->pe(node)->AttachProgram(std::move(replayer));
    }
  });
  phases.Time("Boot", [&] { platform->Boot(); });
  const KernelStats at_boot = platform->TotalKernelStats();
  uint64_t events = 0;
  phases.Time("RunToCompletion", [&] { events = platform->RunToCompletion(); });

  std::vector<Cycles> runtimes;
  Cycles first_start = UINT64_MAX, last_end = 0;
  uint64_t cap_ops = 0, syscalls = 0, done = 0;
  Fnv fingerprint;
  for (TraceReplayer* r : replayers) {
    const TraceReplayer::Result& res = r->result();
    done += res.done ? 1 : 0;
    first_start = std::min(first_start, res.start);
    last_end = std::max(last_end, res.end);
    runtimes.push_back(res.runtime());
    cap_ops += res.cap_ops;
    syscalls += res.syscalls;
    fingerprint.Mix(res.start);
    fingerprint.Mix(res.end);
  }
  const Cycles makespan = last_end - first_start;
  std::vector<Cycles> sorted = runtimes;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (Cycles c : runtimes) {
    sum += static_cast<double>(c);
  }
  out->Int("attempted", s.users);
  out->Int("completed", done);
  out->Str("fingerprint", Hex(fingerprint.value()));
  out->Num("makespan_ms", CyclesToUs(static_cast<double>(makespan)) / 1e3);
  out->Int("cap_ops", cap_ops);
  out->Int("expected_cap_ops", expected_cap_ops);
  out->Num("cap_ops_per_s", static_cast<double>(cap_ops) / CyclesToSeconds(makespan));
  out->Num("throughput_rps", static_cast<double>(syscalls) / CyclesToSeconds(makespan));
  out->Num("mean_us", CyclesToUs(sum / static_cast<double>(runtimes.size())));
  out->Num("p50_us", CyclesToUs(static_cast<double>(ExactPercentile(sorted, 0.50))));
  out->Num("p99_us", CyclesToUs(static_cast<double>(ExactPercentile(sorted, 0.99))));
  out->Int("samples", sorted.size());
  // Every user syscall is a root request span: one measured request each.
  ReportRun(*platform, &phases, makespan, at_boot, events, o, [&platform] {
    std::vector<Request> requests;
    for (const obs::Span& span : platform->tracer()->Merged()) {
      if (span.kind == obs::SpanKind::kRequest && span.parent_id == 0) {
        requests.push_back({span.trace_id, span.end - span.start});
      }
    }
    return requests;
  }, out);
  (void)platform.release();  // reclaimed at exit, see main()
}

TrafficConfig TrafficFor(const Shape& s, uint64_t seed) {
  TrafficConfig config;
  config.request = s.request;
  config.kernels = s.kernels;
  config.services = s.services;
  config.servers = s.users;
  config.arrivals.process = ArrivalProcess::kPoisson;
  config.arrivals.rate_rps = s.rate_rps;
  config.warmup = s.warmup;
  config.requests = s.requests;
  config.seed = seed;
  config.pipeline = kPipeline;
  return config;
}

// Splits an aggregate request count across generators exactly as RunTraffic
// does: the lowest-indexed generators absorb the remainder.
uint64_t ShareOf(uint64_t total, uint32_t index, uint32_t parts) {
  return total / parts + (index < total % parts ? 1 : 0);
}

void RunOpenLoop(const RunOptions& o, JsonLine* out) {
  const Shape& s = *o.shape;
  const TrafficConfig config = TrafficFor(s, o.seed);
  const TimingModel timing = TimingModel::SemperOs();
  const uint64_t total = config.warmup + config.requests + config.cooldown;
  Phases phases;
  std::unique_ptr<Platform> platform;
  phases.Time("Platform()",
              [&] { platform = std::make_unique<Platform>(PlatformFor(o, timing)); });
  FsImage image;
  uint64_t growth = kGrowthHeadroom;
  const bool postmark = config.request == std::string("postmark");
  phases.Time("PopulateImage+Freeze", [&] {
    if (postmark) {
      PopulatePostmarkRequestImage(&image, s.users);
      growth += total * kFsExtentBytes;  // one mail-file extent per request
    } else {
      PopulateNginxImage(&image);
    }
    image.Freeze();
  });
  phases.Time("AttachServices", [&] {
    AttachServices(platform.get(), image, timing, image.bytes_used() + growth);
  });
  phases.Time("MakeTrace+attach", [&] {
    for (uint32_t i = 0; i < s.users; ++i) {
      NodeId node = platform->user_nodes().at(i);
      NodeId kernel_node = platform->kernel_node(platform->membership().KernelOf(node));
      Trace trace = postmark ? MakePostmarkRequestTrace(i) : MakeNginxRequestTrace();
      platform->pe(node)->AttachProgram(
          std::make_unique<NginxServer>(std::move(trace), kernel_node, timing));
    }
  });
  std::vector<OpenLoopGen*> gens;
  phases.Time("BuildArrivalSchedule+OpenLoopGen", [&] {
    for (uint32_t i = 0; i < s.users; ++i) {
      uint64_t warm = ShareOf(config.warmup, i, s.users);
      uint64_t meas = ShareOf(config.requests, i, s.users);
      std::vector<Cycles> schedule =
          BuildArrivalSchedule(config.arrivals, config.seed, i, s.users, warm + meas);
      auto gen = std::make_unique<OpenLoopGen>(platform->user_nodes().at(i), std::move(schedule),
                                               warm, meas, config.pipeline);
      gens.push_back(gen.get());
      platform->pe(platform->loadgen_nodes().at(i))->AttachProgram(std::move(gen));
    }
  });
  phases.Time("Boot", [&] { platform->Boot(); });
  const Cycles boot_done = platform->sim().Now();
  const KernelStats at_boot = platform->TotalKernelStats();
  uint64_t events = 0;
  phases.Time("RunToCompletion", [&] { events = platform->RunToCompletion(); });
  const Cycles makespan = platform->sim().Now() - boot_done;

  uint64_t injected = 0, completed = 0;
  Cycles open = UINT64_MAX, close = 0, drain = 0;
  LatencyHistogram latency;
  for (OpenLoopGen* gen : gens) {
    injected += gen->injected();
    completed += gen->completed();
    latency.Merge(gen->latency());
    if (gen->latency().count() > 0) {
      open = std::min(open, gen->first_measured_arrival());
      close = std::max(close, gen->last_measured_arrival());
      drain = std::max(drain, gen->last_measured_completion());
    }
  }
  const uint64_t measured = latency.count();
  out->Int("attempted", total);
  out->Int("injected", injected);
  out->Int("completed", completed);
  out->Int("measured", measured);
  out->Int("requested", config.requests);
  out->Str("fingerprint", Hex(latency.Fingerprint()));
  out->Num("makespan_ms", CyclesToUs(static_cast<double>(makespan)) / 1e3);
  const uint64_t cap_ops = CapOps(platform->TotalKernelStats());
  out->Int("cap_ops", cap_ops);
  out->Num("cap_ops_per_s", static_cast<double>(cap_ops) / CyclesToSeconds(makespan));
  out->Num("nominal_rps", config.arrivals.rate_rps);
  out->Num("offered_rps", close > open ? static_cast<double>(measured) /
                                             CyclesToSeconds(close - open) : 0.0);
  out->Num("throughput_rps", drain > open ? static_cast<double>(measured) /
                                                CyclesToSeconds(drain - open) : 0.0);
  out->Num("mean_us", CyclesToUs(latency.Mean()));
  out->Num("p50_us", CyclesToUs(InterpolatedPercentileCycles(latency, 0.50)));
  out->Num("p99_us", CyclesToUs(InterpolatedPercentileCycles(latency, 0.99)));
  out->Num("p999_us", CyclesToUs(InterpolatedPercentileCycles(latency, 0.999)));
  out->Int("samples", measured);
  ReportRun(*platform, &phases, makespan, at_boot, events, o, [&gens] {
    std::vector<Request> requests;
    for (OpenLoopGen* gen : gens) {
      for (const OpenLoopGen::MeasuredTrace& m : gen->measured_traces()) {
        requests.push_back({m.trace_id, m.latency});
      }
    }
    return requests;
  }, out);
  (void)platform.release();  // reclaimed at exit, see main()
}

// Reference latency of the unloaded system, a constant of the shape: apps,
// one instance alone (SoloRuntimeUs, paper §5.3.1); traffic, one request
// alone on a server that already served one (its session is open), with the
// two arrivals far apart.
void RunSolo(const RunOptions& o, JsonLine* out) {
  const Shape& s = *o.shape;
  if (!s.traffic) {
    out->Num("solo_us", SoloRuntimeUs(s.request, s.kernels, s.services));
    return;
  }
  TrafficConfig config = TrafficFor(s, /*seed=*/1);
  config.arrivals.rate_rps = 1'000;
  config.warmup = 1;
  config.requests = 1;
  TrafficResult result = RunTraffic(config);
  out->Num("solo_us", CyclesToUs(static_cast<double>(result.latency.max())));
}

// Highest *measured* offered rate whose probe keeps throughput >= 95% of
// offered and p99 <= 500 us. The probes follow FindSaturation's path
// (bracket by doubling/halving from the nominal rate, then bisect), each a
// RunTraffic over half the workload's measured window.
void RunSaturation(const RunOptions& o, JsonLine* out) {
  const Shape& s = *o.shape;
  TrafficConfig base = TrafficFor(s, o.seed);
  base.requests = s.requests / 2;
  constexpr double kSlaP99Us = 500.0;
  double best = 0, best_nominal = 0;
  uint32_t probes = 0;
  auto probe = [&](double rate) {
    TrafficConfig config = base;
    config.arrivals.rate_rps = rate;
    TrafficResult r = RunTraffic(config);
    const bool ok = r.throughput_rps >= 0.95 * r.offered_rps && r.p99_us <= kSlaP99Us;
    const std::string key = "probe" + std::to_string(probes++);
    out->Num(key + "_nominal_rps", rate);
    out->Num(key + "_offered_rps", r.offered_rps);
    out->Num(key + "_p99_us", r.p99_us);
    out->Bool(key + "_sustained", ok);
    if (ok && r.offered_rps > best) {
      best = r.offered_rps;
      best_nominal = rate;
    }
    return ok;
  };
  double lo = 0, hi = 0, cursor = s.rate_rps;
  const bool first = probe(cursor);
  for (int i = 0; i < 4 && lo == 0 && hi == 0; ++i) {
    cursor = first ? cursor * 2 : cursor / 2;
    if (probe(cursor) != first) {
      lo = first ? cursor / 2 : cursor;
      hi = first ? cursor : cursor * 2;
    }
  }
  for (int i = 0; i < 3 && lo > 0 && hi > 0; ++i) {
    double mid = (lo + hi) / 2;
    (probe(mid) ? lo : hi) = mid;
  }
  out->Int("probes", probes);
  out->Int("probe_requests", base.requests);
  out->Num("sustained_rps", best);
  out->Num("sustained_nominal_rps", best_nominal);
}

bool Flag(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') {
    return false;
  }
  *value = arg + n + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload=NAME --seed=N [--mode=run|solo|saturation]\n"
               "                        [--threads=T] [--traced] [--spans-out=FILE]\n"
               "workloads:");
  for (const Shape& s : kShapes) {
    std::fprintf(stderr, " %s", s.name);
  }
  std::fputs("\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string mode = "run", value;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &value)) {
      o.shape = FindShape(value);
    } else if (Flag(argv[i], "--seed", &value)) {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--mode", &value)) {
      mode = value;
    } else if (Flag(argv[i], "--threads", &value)) {
      o.threads = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (Flag(argv[i], "--spans-out", &value)) {
      o.spans_out = value;
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      o.traced = true;
    } else {
      return Usage();
    }
  }
  if (o.shape == nullptr || o.threads == 0) {
    return Usage();
  }
  JsonLine out;
  out.Str("workload", o.shape->name);
  out.Int("seed", o.seed);
  if (mode == "run") {
    out.Int("threads", o.threads);
    out.Bool("traced", o.traced);
    (o.shape->traffic ? RunOpenLoop : RunApps)(o, &out);
    out.Num("peak_rss_mb", PeakRssMb());
    out.Num("ref_s", ReferenceLoopSeconds());  // after the high-water mark is read
  } else if (mode == "solo") {
    RunSolo(o, &out);
  } else if (mode == "saturation" && o.shape->traffic) {
    RunSaturation(o, &out);
  } else {
    return Usage();
  }
  std::printf("%s\n", out.Finish().c_str());
  std::fflush(stdout);
  // The OS reclaims the platform; tearing down thousands of PEs would only
  // lengthen every run.
  std::_Exit(0);
}
