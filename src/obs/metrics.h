// Typed metric registry + simulated-clock timeline.
//
// Every KernelStats field registers here, by name, through one descriptor
// table. Everything that emits kernel counters — the CLI's statistics
// dump, the metrics timeline, the platform's cross-kernel summation —
// iterates the registry instead of hand-listing fields, so a newly added
// counter can never be silently missing from output (the per-IKC-type
// counters once were). A static_assert on sizeof(KernelStats) forces the
// table to be extended whenever the struct grows.
//
// The timeline samples the registry on the simulated clock: when armed, the
// platform records a row of every counter for each interval boundary the
// serial queue's clock moves past (its tick, sim/simulation.h), after every
// event due by that boundary, and one more row at the run's end. The tick
// injects no events, so the executed event stream and the final clock are
// identical with the timeline on or off.
#ifndef SEMPEROS_OBS_METRICS_H_
#define SEMPEROS_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/types.h"

namespace semperos {

struct KernelStats;

namespace obs {

enum class MetricKind : uint8_t {
  kCounter,  // monotonically increasing count
  kGauge,    // instantaneous level (may go down; e.g. threads_in_use)
};

struct MetricValue {
  // Stable registry name (the struct field name). Only valid for the
  // duration of the callback — copy it if you keep it.
  const char* name;
  MetricKind kind;
  uint64_t value;
};

// Invokes `fn` for every KernelStats field, arrays expanded one entry per
// IKC op (e.g. "ikc_op_sent.obtain_req"). Complete by construction: the
// registry table is pinned to sizeof(KernelStats).
void ForEachKernelMetric(const KernelStats& s,
                         const std::function<void(const MetricValue&)>& fn);

// Number of entries ForEachKernelMetric visits.
size_t KernelMetricCount();

// Adds every field of `from` into `into`, through the same descriptor
// table (gauges take the max instead: a summed "threads_in_use_max" would
// be meaningless). Replaces the hand-summed Platform::TotalKernelStats.
void AccumulateKernelStats(KernelStats* into, const KernelStats& from);

// ---- Simulated-clock timeline ----

struct TimelineConfig {
  Cycles interval = 0;  // 0 = disarmed
  bool enabled() const { return interval > 0; }
};

// One sample row: the simulated time and every kernel metric, in registry
// order (names come from TimelineNames()).
struct TimelineSample {
  Cycles t = 0;
  std::vector<uint64_t> values;
};

class MetricsTimeline {
 public:
  explicit MetricsTimeline(TimelineConfig config) : config_(config) {}

  void Sample(Cycles now, const KernelStats& totals);
  const std::vector<TimelineSample>& samples() const { return samples_; }

  // Column names, in row order.
  static std::vector<std::string> Names();

  // {"interval": N, "names": [...], "samples": [[t, v...], ...]} — the
  // schema docs/observability.md documents. Returns false when the file
  // cannot be opened, written or closed.
  bool WriteJson(const std::string& path) const;

 private:
  TimelineConfig config_;
  std::vector<TimelineSample> samples_;
};

}  // namespace obs
}  // namespace semperos

#endif  // SEMPEROS_OBS_METRICS_H_
