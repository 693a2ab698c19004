#include "traffic/traffic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "system/experiment.h"
#include "workloads/workloads.h"

namespace semperos {

static_assert(std::endian::native == std::endian::little,
              "OpenLoopGen stores and loads its gaps as little-endian words");

OpenLoopGen::OpenLoopGen(NodeId server_node, std::vector<Cycles> schedule, uint64_t measure_from,
                         uint64_t measure_count, uint32_t pipeline)
    : server_node_(server_node),
      count_(schedule.size()),
      measure_from_(measure_from),
      measure_count_(measure_count),
      pipeline_(pipeline) {
  CHECK(pipeline_ > 0) << "open-loop generator needs at least one credit";
  CHECK_LE(measure_from_ + measure_count_, count_);
  if (count_ == 0) {
    return;
  }
  Cycles widest = 0;
  for (size_t i = 1; i < count_; ++i) {
    CHECK_LT(schedule[i - 1], schedule[i]) << "open-loop schedule not increasing at index " << i;
    widest = std::max(widest, schedule[i] - schedule[i - 1]);
  }
  int bits = static_cast<int>(std::bit_width(widest));
  width_ = static_cast<uint8_t>(std::max(1, (bits + 7) / 8));
  mask_ = width_ == sizeof(Cycles) ? ~Cycles{0} : (Cycles{1} << (8 * width_)) - 1;
  if (measure_count_ > 0) {
    first_measured_ = schedule[measure_from_];
    last_measured_ = schedule[measure_from_ + measure_count_ - 1];
  }
  // One 8-byte store per gap: its high bytes are zero, and the next gap's
  // store overwrites them.
  gaps_ = std::vector<uint8_t>((count_ - 1) * width_ + sizeof(Cycles));
  for (size_t i = 1; i < count_; ++i) {
    Cycles gap = schedule[i] - schedule[i - 1];
    std::memcpy(gaps_.data() + (i - 1) * width_, &gap, sizeof(gap));
  }
  arrival_ = send_ = resp_ = Cursor{0, schedule[0]};
}

void OpenLoopGen::Advance(Cursor* cursor) const {
  Cycles gap;
  std::memcpy(&gap, gaps_.data() + cursor->offset, sizeof(gap));
  cursor->at += gap & mask_;
  cursor->offset += width_;
}

Cycles OpenLoopGen::first_measured_arrival() const {
  return measure_count_ == 0 ? 0 : base_ + first_measured_;
}

Cycles OpenLoopGen::last_measured_arrival() const {
  return measure_count_ == 0 ? 0 : base_ + last_measured_;
}

void OpenLoopGen::Setup() {
  Dtu& dtu = pe_->dtu();
  dtu.ConfigureSend(user_ep::kSyscallSend, server_node_, kNginxServerRecvEp,
                    /*credits=*/pipeline_);
  dtu.ConfigureRecv(user_ep::kSyscallReply, pipeline_, [this](EpId, const Message& msg) {
    // One server, one FIFO path, serial server loop: an honest server
    // answers in send order, so the completing request is simply the next
    // index. A server PE is untrusted: any other answer is refused.
    const NginxResponseMsg* resp = msg.As<NginxResponseMsg>();
    if (resp == nullptr || resp->seq != next_resp_ + 1) {
      refused_responses_++;
      return;
    }
    uint64_t index = next_resp_++;
    Cycles arrival = base_ + resp_.at;
    Advance(&resp_);
    Cycles now = pe_->sim()->Now();
    // Only a library bug reaches this: the server answers only requests it
    // was sent, so request `index` has left, and a request leaves only
    // after its arrival.
    CHECK_GE(now, arrival);
    bool measured = index >= measure_from_ && index < measure_from_ + measure_count_;
    if (measured) {
      latency_.Record(now - arrival);
      last_measured_completion_ = now;
    }
    if (obs::Tracer* tr = pe_->tracer(); tr != nullptr) {
      // Close the root span: arrival -> completion, i.e. exactly the
      // open-loop latency this harness reports.
      obs::Span root = open_roots_.front();
      open_roots_.pop_front();
      tr->Close(root, now);
      if (measured) {
        measured_traces_.push_back({root.trace_id, now - arrival});
      }
    }
    PumpSend();
  });
}

void OpenLoopGen::Start() {
  base_ = pe_->sim()->Now();
  ScheduleNextArrival();
}

void OpenLoopGen::ScheduleNextArrival() {
  if (next_arrival_ >= count_) {
    return;
  }
  pe_->sim()->ScheduleAt(base_ + arrival_.at, [this] {
    next_arrival_++;
    Advance(&arrival_);
    PumpSend();
    ScheduleNextArrival();
  });
}

void OpenLoopGen::PumpSend() {
  // Open loop: arrivals beyond the credit budget wait here, and the wait is
  // charged to their latency because it is measured from the arrival time.
  while (next_send_ < next_arrival_ && next_send_ - next_resp_ < pipeline_) {
    auto req = NewMsg<NginxRequestMsg>();
    req->seq = ++next_send_;  // seq is 1-based schedule index
    Cycles arrival = base_ + send_.at;
    Advance(&send_);
    if (obs::Tracer* tr = pe_->tracer(); tr != nullptr) {
      Cycles now = pe_->sim()->Now();
      obs::Span root = tr->Open(pe_->node(), tr->NewTraceId(pe_->node()), /*parent=*/0, arrival,
                                obs::SpanKind::kRequest);
      open_roots_.push_back(root);
      req->trace_id = root.trace_id;
      req->trace_parent = root.span_id;
      if (now > arrival) {
        // Client-side credit wait: the open-loop queueing delay between
        // the scheduled arrival and the wire.
        tr->Close(
            tr->Open(pe_->node(), root.trace_id, root.span_id, arrival, obs::SpanKind::kQueue),
            now);
      }
    }
    Status st = pe_->dtu().Send(user_ep::kSyscallSend, req, user_ep::kSyscallReply);
    CHECK(st.ok()) << "open-loop send failed: " << st.name();
  }
}

namespace {

// Span trees a traced run keeps per percentile bucket.
constexpr size_t kTailExemplars = 2;

// Splits an aggregate request count across generators: lowest-indexed
// generators absorb the remainder so totals are exact.
uint64_t ShareOf(uint64_t total, uint32_t index, uint32_t parts) {
  return total / parts + (index < total % parts ? 1 : 0);
}

}  // namespace

TrafficResult RunTraffic(const TrafficConfig& config) {
  CHECK(config.servers > 0) << "traffic: need at least one server";
  CHECK(config.requests > 0) << "traffic: need a measurement window";
  TimingModel timing = TimingModel::SemperOs();

  PlatformConfig pc;
  pc.kernels = config.kernels;
  pc.services = config.services;
  pc.users = config.servers;     // request-serving processes
  pc.loadgens = config.servers;  // one open-loop generator per server
  pc.mem_tiles = 1;
  pc.timing = timing;
  config.setup.ApplyTo(&pc);
  Platform platform(pc);

  uint64_t total = config.warmup + config.requests + config.cooldown;
  const RequestShape& shape = FindRequestShape(config.request);
  FsImage image;
  shape.populate(&image, config.servers);
  image.Freeze();  // services share the frozen base instead of deep-copying
  uint64_t growth = kGrowthHeadroom + total * shape.growth_per_request;
  AttachServices(&platform, image, timing, image.bytes_used() + growth);

  for (uint32_t i = 0; i < config.servers; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    platform.pe(node)->AttachProgram(
        std::make_unique<NginxServer>(shape.build(i), kernel_node, timing));
  }

  std::vector<OpenLoopGen*> gens;
  gens.reserve(config.servers);
  for (uint32_t i = 0; i < config.servers; ++i) {
    uint64_t warm = ShareOf(config.warmup, i, config.servers);
    uint64_t meas = ShareOf(config.requests, i, config.servers);
    uint64_t cool = ShareOf(config.cooldown, i, config.servers);
    std::vector<Cycles> schedule = BuildArrivalSchedule(config.arrivals, config.seed, i,
                                                        config.servers, warm + meas + cool);
    auto gen = std::make_unique<OpenLoopGen>(platform.user_nodes().at(i), std::move(schedule),
                                             warm, meas, config.pipeline);
    gens.push_back(gen.get());
    platform.pe(platform.loadgen_nodes().at(i))->AttachProgram(std::move(gen));
  }

  platform.Boot();
  Cycles boot_done = platform.sim().Now();
  uint64_t events = platform.RunToCompletion();
  CHECK_EQ(platform.TotalDrops(), 0u);

  TrafficResult result;
  result.events = events;
  result.makespan = platform.sim().Now() - boot_done;
  result.window_open = UINT64_MAX;
  for (OpenLoopGen* gen : gens) {
    result.injected += gen->injected();
    result.completed += gen->completed();
    result.latency.Merge(gen->latency());
    if (gen->latency().count() > 0) {
      result.window_open = std::min(result.window_open, gen->first_measured_arrival());
      result.window_close = std::max(result.window_close, gen->last_measured_arrival());
      result.window_drain = std::max(result.window_drain, gen->last_measured_completion());
    }
  }
  CHECK_EQ(result.injected, total) << "traffic: schedule did not drain";
  CHECK_EQ(result.completed, total) << "traffic: lost responses";
  result.measured = result.latency.count();
  CHECK_EQ(result.measured, config.requests);
  if (result.window_open == UINT64_MAX) {
    result.window_open = 0;
  }
  if (result.window_close > result.window_open) {
    result.offered_rps = static_cast<double>(result.measured) /
                         CyclesToSeconds(result.window_close - result.window_open);
  }
  if (result.window_drain > result.window_open) {
    result.throughput_rps = static_cast<double>(result.measured) /
                            CyclesToSeconds(result.window_drain - result.window_open);
  }
  result.p50_us = CyclesToMicros(result.latency.Percentile(0.50));
  result.p99_us = CyclesToMicros(result.latency.Percentile(0.99));
  result.p999_us = CyclesToMicros(result.latency.Percentile(0.999));
  result.mean_us = result.latency.Mean() / (static_cast<double>(kClockHz) / 1e6);
  result.max_us = CyclesToMicros(result.latency.max());
  if (obs::Tracer* tr = platform.tracer(); tr != nullptr) {
    // Tail exemplars: sort measured requests by latency and keep the
    // slowest kTailExemplars of each percentile bucket, with full span
    // trees and critical-path breakdowns. The sort key (latency, trace id)
    // is unique, so the selection is deterministic.
    std::vector<std::pair<Cycles, uint64_t>> done;
    done.reserve(result.measured);
    for (OpenLoopGen* gen : gens) {
      for (const OpenLoopGen::MeasuredTrace& m : gen->measured_traces()) {
        done.push_back({m.latency, m.trace_id});
      }
    }
    std::sort(done.begin(), done.end());
    struct Bucket {
      const char* name;
      double pct;
    };
    constexpr Bucket kBuckets[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}, {"max", 1.0}};
    size_t prev = 0;
    for (const Bucket& b : kBuckets) {
      size_t edge = std::min(
          done.size(), static_cast<size_t>(std::ceil(b.pct * static_cast<double>(done.size()))));
      size_t from = edge > prev + kTailExemplars ? edge - kTailExemplars : prev;
      for (size_t i = from; i < edge; ++i) {
        TrafficResult::Exemplar ex;
        ex.bucket = b.name;
        ex.latency = done[i].first;
        ex.spans = tr->SpansOf(done[i].second);
        ex.path = tr->ComputeCriticalPath(done[i].second);
        result.exemplars.push_back(std::move(ex));
      }
      prev = edge;
    }
  }
  result.outcome.Harvest(&platform, config.setup);
  return result;
}

namespace {

SaturationProbe ProbeRate(const TrafficConfig& base, double rate) {
  TrafficConfig config = base;
  config.arrivals.rate_rps = rate;
  TrafficResult run = RunTraffic(config);
  SaturationProbe probe;
  probe.offered_rps = run.offered_rps;
  probe.throughput_rps = run.throughput_rps;
  probe.p99_us = run.p99_us;
  probe.makespan = run.makespan;
  return probe;
}

}  // namespace

SaturationResult FindSaturation(const SaturationConfig& config) {
  auto sustained = [&config](const SaturationProbe& probe) {
    return probe.throughput_rps >= 0.95 * probe.offered_rps &&
           probe.p99_us <= config.sla_p99_us;
  };

  SaturationResult result;
  auto probe_at = [&](double rate) {
    SaturationProbe probe = ProbeRate(config.traffic, rate);
    probe.sustained = sustained(probe);
    result.probes.push_back(probe);
    return probe.sustained;
  };

  // Bracket the knee: double while sustained, halve while not.
  double rate = config.traffic.arrivals.rate_rps;
  double lo = 0, hi = 0;  // lo: sustained, hi: not
  bool first_sustained = probe_at(rate);
  double cursor = rate;
  for (uint32_t i = 0; i < config.max_bracket_steps; ++i) {
    if (first_sustained) {
      lo = cursor;
      cursor = cursor * 2.0;
      if (!probe_at(cursor)) {
        hi = cursor;
        break;
      }
    } else {
      hi = cursor;
      cursor = cursor * 0.5;
      if (probe_at(cursor)) {
        lo = cursor;
        break;
      }
    }
  }
  // Refine only a real bracket: with lo == 0 nothing was sustained, with
  // hi == 0 everything probed was.
  for (uint32_t i = 0; lo != 0 && hi != 0 && i < config.refine_steps; ++i) {
    double mid = (lo + hi) * 0.5;
    if (probe_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Report the measured rate, not the nominal search rate: a probe's
  // realized offered rate sits below its nominal one (docs/benchmarks.md).
  for (const SaturationProbe& probe : result.probes) {
    if (probe.sustained) {
      result.saturation_rps = std::max(result.saturation_rps, probe.offered_rps);
    }
  }
  return result;
}

}  // namespace semperos
