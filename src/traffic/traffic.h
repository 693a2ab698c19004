// Open-loop traffic harness (ROADMAP north star: "serves heavy traffic from
// millions of users").
//
// The paper's evaluation is closed-loop: a fixed pool of clients each keep a
// small pipeline outstanding, so injection slows down whenever the system
// does and queueing delay is invisible (coordinated omission). This harness
// is the open-loop counterpart: every generator is handed a seeded arrival
// schedule (traffic/arrivals.h), keeps it as packed gaps between consecutive
// arrivals (about 3 bytes a request), and injects requests at those
// simulated-clock instants regardless of completions. Latency is measured
// from the scheduled arrival — not the DTU send — so time spent waiting
// behind the generator's own transport credits counts, which is what makes
// the tails honest under overload.
//
// Measurement discipline: each generator's first `warmup` arrivals and last
// `cooldown` arrivals bracket the measurement window; only responses to the
// measured indices are recorded into the latency histogram. Windows are
// defined by arrival *index*, not by time, so a run is a finite schedule that
// drains to completion and the same requests are measured on every rerun —
// results are bit-identical across reruns (tests/traffic_test.cpp pins
// this).
#ifndef SEMPEROS_TRAFFIC_TRAFFIC_H_
#define SEMPEROS_TRAFFIC_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/flat.h"
#include "obs/trace.h"
#include "system/platform.h"
#include "traffic/arrivals.h"
#include "traffic/histogram.h"
#include "workloads/nginx.h"

namespace semperos {

// One generator PE driving one server PE with a precomputed schedule.
// Reuses the nginx request/response wire format; the per-request work is the
// server's request trace (nginx document fetch or postmark mail transaction).
class OpenLoopGen : public Program {
 public:
  // `schedule` is relative to the generator's Start() time and strictly
  // increasing; a first arrival at 0 arrives at Start(). Indices
  // [measure_from, measure_from + measure_count) are the measurement
  // window. `pipeline` is the DTU credit budget; arrivals beyond it queue
  // client-side and their queueing time is part of the latency. The
  // generator keeps the schedule packed (below) and lets the vector go.
  OpenLoopGen(NodeId server_node, std::vector<Cycles> schedule, uint64_t measure_from,
              uint64_t measure_count, uint32_t pipeline);

  void Setup() override;
  void Start() override;

  uint64_t injected() const { return next_send_; }
  uint64_t completed() const { return next_resp_; }
  // Answers dropped because the body is not an NginxResponseMsg or its seq
  // is not the next one awaited: a server PE is untrusted. A refused answer
  // completes nothing.
  uint64_t refused_responses() const { return refused_responses_; }
  const LatencyHistogram& latency() const { return latency_; }
  // Observability (traced runs): trace id + latency per measured request,
  // in completion order. The exemplar selection in RunTraffic picks the
  // tail of each percentile bucket from these.
  struct MeasuredTrace {
    uint64_t trace_id = 0;
    Cycles latency = 0;
  };
  const std::vector<MeasuredTrace>& measured_traces() const { return measured_traces_; }
  // Absolute cycle timestamps of the measurement window edges (0 if empty).
  Cycles first_measured_arrival() const;
  Cycles last_measured_arrival() const;
  Cycles last_measured_completion() const { return last_measured_completion_; }

 private:
  // A position in the packed schedule: one arrival's time and the byte
  // offset of the gap to the next one.
  struct Cursor {
    size_t offset = 0;
    Cycles at = 0;  // relative to base_
  };

  // Moves `cursor` to the next arrival: one unaligned 8-byte load and a
  // mask. Past the last arrival it reads the zero padding and stays put.
  void Advance(Cursor* cursor) const;
  void ScheduleNextArrival();
  void PumpSend();

  NodeId server_node_;
  uint64_t count_;  // arrivals in the schedule
  uint64_t measure_from_;
  uint64_t measure_count_;
  uint32_t pipeline_;
  // The schedule: the gap from each arrival to the next, `width_`
  // little-endian bytes each (the width of the widest gap), then 8 bytes of
  // zero padding, so that every read is in bounds.
  std::vector<uint8_t> gaps_;
  uint8_t width_ = 1;
  Cycles mask_ = 0xff;
  Cycles first_measured_ = 0;  // window edges, relative to base_
  Cycles last_measured_ = 0;

  Cycles base_ = 0;           // sim time at Start()
  uint64_t next_arrival_ = 0;  // next schedule index to arrive
  uint64_t next_send_ = 0;     // next schedule index to put on the wire
  uint64_t next_resp_ = 0;     // next schedule index to complete (FIFO)
  // Each sits on the arrival its counter names.
  Cursor arrival_;
  Cursor send_;
  Cursor resp_;
  uint64_t refused_responses_ = 0;
  Cycles last_measured_completion_ = 0;
  LatencyHistogram latency_;
  // Traced runs only: the open root span of every request on the wire, in
  // send order (responses complete in that order).
  Ring<obs::Span> open_roots_;
  std::vector<MeasuredTrace> measured_traces_;
};

struct TrafficConfig {
  // Per-request server work: a RequestShape of the workload catalogue,
  // "nginx" (static document fetch, read-only) or "postmark" (mail
  // transaction: create+write, read, unlink).
  std::string request = "nginx";
  uint32_t kernels = 8;
  uint32_t services = 8;
  // Server PEs; one generator PE is paired with each server.
  uint32_t servers = 16;
  ArrivalSpec arrivals;           // aggregate offered load across generators
  // Request counts are aggregate across all generators and split evenly
  // (remainder to the lowest-indexed generators).
  uint64_t warmup = 2'000;        // injected before the window opens
  uint64_t requests = 20'000;     // measured
  uint64_t cooldown = 0;          // injected after the window closes
  uint64_t seed = 1;
  uint32_t pipeline = 8;          // per-generator transport credits
  // With tracing on, every request gets a root span and the slowest two of
  // each percentile bucket are kept as exemplars.
  RunSetup setup;
};

struct TrafficResult {
  uint64_t injected = 0;    // every scheduled arrival (run drains fully)
  uint64_t completed = 0;
  uint64_t measured = 0;    // latency samples in the histogram
  uint64_t events = 0;      // run by RunToCompletion (boot excluded)
  Cycles makespan = 0;      // boot end to last event
  // Measurement window, absolute cycles (across all generators).
  Cycles window_open = 0;   // earliest measured arrival
  Cycles window_close = 0;  // latest measured arrival
  Cycles window_drain = 0;  // latest measured completion
  double offered_rps = 0;   // measured arrivals per second of window
  double throughput_rps = 0;  // measured completions per second incl. drain
  LatencyHistogram latency;   // measured responses only, cycles
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;
  double max_us = 0;
  // Traced runs only: the slowest two requests of each percentile bucket,
  // each with its full span tree and critical-path breakdown (path.total ==
  // the request's measured latency, structurally).
  struct Exemplar {
    std::string bucket;  // "p50" | "p90" | "p99" | "p999" | "max"
    Cycles latency = 0;
    obs::CriticalPath path;
    std::vector<obs::Span> spans;
  };
  std::vector<Exemplar> exemplars;
  RunOutcome outcome;
};

TrafficResult RunTraffic(const TrafficConfig& config);

// Saturation-throughput search: brackets the highest offered rate the system
// sustains (throughput >= 95% of offered and p99 within the SLA) by doubling
// or halving the nominal rate from config.arrivals.rate_rps, then bisects.
// Every probe is an independent deterministic RunTraffic, so the search
// path — and therefore the reported saturation rate — is a pure function of
// the config.
struct SaturationProbe {
  double offered_rps = 0;
  double throughput_rps = 0;
  double p99_us = 0;
  Cycles makespan = 0;  // simulated cost of this probe's run
  bool sustained = false;
};

struct SaturationConfig {
  TrafficConfig traffic;        // rate_rps is the search starting point
  double sla_p99_us = 500.0;
  uint32_t max_bracket_steps = 10;  // doublings/halvings to find the knee
  uint32_t refine_steps = 3;        // bisection iterations inside the bracket
};

struct SaturationResult {
  double saturation_rps = 0;    // highest measured offered_rps of a sustained probe
  std::vector<SaturationProbe> probes;
};

SaturationResult FindSaturation(const SaturationConfig& config);

}  // namespace semperos

#endif  // SEMPEROS_TRAFFIC_TRAFFIC_H_
