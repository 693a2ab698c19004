#include "obs/metrics.h"

#include <cstdio>

#include "base/log.h"
#include "core/kernel.h"
#include "core/protocol.h"

namespace semperos {
namespace obs {

namespace {

struct KernelField {
  const char* name;
  MetricKind kind;
  uint64_t KernelStats::* field;
};

// The registry: one row per scalar KernelStats field, in declaration order.
// The static_assert below pins this table to the struct — adding a field
// without a row here fails the build instead of silently vanishing from
// the statistics dump, the timeline and the platform totals.
constexpr KernelField kKernelFields[] = {
    {"syscalls", MetricKind::kCounter, &KernelStats::syscalls},
    {"obtains", MetricKind::kCounter, &KernelStats::obtains},
    {"delegates", MetricKind::kCounter, &KernelStats::delegates},
    {"revokes", MetricKind::kCounter, &KernelStats::revokes},
    {"derives", MetricKind::kCounter, &KernelStats::derives},
    {"activates", MetricKind::kCounter, &KernelStats::activates},
    {"sessions_opened", MetricKind::kCounter, &KernelStats::sessions_opened},
    {"spanning_obtains", MetricKind::kCounter, &KernelStats::spanning_obtains},
    {"spanning_delegates", MetricKind::kCounter, &KernelStats::spanning_delegates},
    {"spanning_revokes", MetricKind::kCounter, &KernelStats::spanning_revokes},
    {"ikc_sent", MetricKind::kCounter, &KernelStats::ikc_sent},
    {"ikc_received", MetricKind::kCounter, &KernelStats::ikc_received},
    {"ikc_flow_queued", MetricKind::kCounter, &KernelStats::ikc_flow_queued},
    {"caps_created", MetricKind::kCounter, &KernelStats::caps_created},
    {"caps_deleted", MetricKind::kCounter, &KernelStats::caps_deleted},
    {"orphans_cleaned", MetricKind::kCounter, &KernelStats::orphans_cleaned},
    {"pointless_denials", MetricKind::kCounter, &KernelStats::pointless_denials},
    {"invalid_prevented", MetricKind::kCounter, &KernelStats::invalid_prevented},
    {"revoke_reqs_queued", MetricKind::kCounter, &KernelStats::revoke_reqs_queued},
    {"migrations", MetricKind::kCounter, &KernelStats::migrations},
    {"caps_migrated", MetricKind::kCounter, &KernelStats::caps_migrated},
    {"ikc_forwarded", MetricKind::kCounter, &KernelStats::ikc_forwarded},
    {"epoch_updates", MetricKind::kCounter, &KernelStats::epoch_updates},
    {"syscalls_frozen", MetricKind::kCounter, &KernelStats::syscalls_frozen},
    {"hb_sent", MetricKind::kCounter, &KernelStats::hb_sent},
    {"hb_acked", MetricKind::kCounter, &KernelStats::hb_acked},
    {"ft_suspicions", MetricKind::kCounter, &KernelStats::ft_suspicions},
    {"ft_votes", MetricKind::kCounter, &KernelStats::ft_votes},
    {"ft_failovers", MetricKind::kCounter, &KernelStats::ft_failovers},
    {"ft_refusals", MetricKind::kCounter, &KernelStats::ft_refusals},
    {"ft_pes_adopted", MetricKind::kCounter, &KernelStats::ft_pes_adopted},
    {"ft_orphan_roots", MetricKind::kCounter, &KernelStats::ft_orphan_roots},
    {"ft_edges_pruned", MetricKind::kCounter, &KernelStats::ft_edges_pruned},
    {"ft_ikcs_aborted", MetricKind::kCounter, &KernelStats::ft_ikcs_aborted},
    {"ikc_batches_sent", MetricKind::kCounter, &KernelStats::ikc_batches_sent},
    {"ikc_batched_ops", MetricKind::kCounter, &KernelStats::ikc_batched_ops},
    {"ikc_relays_pipelined", MetricKind::kCounter, &KernelStats::ikc_relays_pipelined},
    {"ikc_late_replies", MetricKind::kCounter, &KernelStats::ikc_late_replies},
    {"ddl_cache_hits", MetricKind::kCounter, &KernelStats::ddl_cache_hits},
    {"ddl_cache_misses", MetricKind::kCounter, &KernelStats::ddl_cache_misses},
    {"user_msgs_dropped", MetricKind::kCounter, &KernelStats::user_msgs_dropped},
};

constexpr size_t kScalarFields = sizeof(kKernelFields) / sizeof(kKernelFields[0]);

// Completeness pin: 41 scalar uint64 counters + the two per-IKC-op arrays +
// the two uint32 thread gauges (handled explicitly below). If this fires,
// a KernelStats field was added or removed — extend kKernelFields (or the
// explicit entries in ForEachKernelMetric/AccumulateKernelStats) to match.
static_assert(sizeof(KernelStats) ==
                  kScalarFields * sizeof(uint64_t) +
                      2 * kNumIkcOps * sizeof(uint64_t) + 2 * sizeof(uint32_t),
              "KernelStats changed: update the metric registry in obs/metrics.cpp");

std::string IkcOpMetricName(const char* prefix, size_t op) {
  return std::string(prefix) + "." + IkcOpName(static_cast<IkcOp>(op));
}

}  // namespace

void ForEachKernelMetric(const KernelStats& s,
                         const std::function<void(const MetricValue&)>& fn) {
  for (const KernelField& f : kKernelFields) {
    fn({f.name, f.kind, s.*(f.field)});
  }
  for (size_t op = 0; op < kNumIkcOps; ++op) {
    std::string name = IkcOpMetricName("ikc_op_sent", op);
    fn({name.c_str(), MetricKind::kCounter, s.ikc_op_sent[op]});
  }
  for (size_t op = 0; op < kNumIkcOps; ++op) {
    std::string name = IkcOpMetricName("ikc_op_received", op);
    fn({name.c_str(), MetricKind::kCounter, s.ikc_op_received[op]});
  }
  fn({"threads_in_use", MetricKind::kGauge, s.threads_in_use});
  fn({"threads_in_use_max", MetricKind::kGauge, s.threads_in_use_max});
}

size_t KernelMetricCount() { return kScalarFields + 2 * kNumIkcOps + 2; }

void AccumulateKernelStats(KernelStats* into, const KernelStats& from) {
  for (const KernelField& f : kKernelFields) {
    if (f.kind == MetricKind::kGauge) {
      into->*(f.field) = std::max(into->*(f.field), from.*(f.field));
    } else {
      into->*(f.field) += from.*(f.field);
    }
  }
  for (size_t op = 0; op < kNumIkcOps; ++op) {
    into->ikc_op_sent[op] += from.ikc_op_sent[op];
    into->ikc_op_received[op] += from.ikc_op_received[op];
  }
  into->threads_in_use += from.threads_in_use;
  into->threads_in_use_max = std::max(into->threads_in_use_max, from.threads_in_use_max);
}

void MetricsTimeline::Sample(Cycles now, const KernelStats& totals) {
  TimelineSample row;
  row.t = now;
  row.values.reserve(KernelMetricCount());
  ForEachKernelMetric(totals,
                      [&row](const MetricValue& m) { row.values.push_back(m.value); });
  samples_.push_back(std::move(row));
}

std::vector<std::string> MetricsTimeline::Names() {
  std::vector<std::string> names;
  names.reserve(KernelMetricCount());
  KernelStats zero;
  ForEachKernelMetric(zero,
                      [&names](const MetricValue& m) { names.emplace_back(m.name); });
  return names;
}

bool MetricsTimeline::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"interval\":%llu,\"names\":[",
               static_cast<unsigned long long>(config_.interval));
  std::vector<std::string> names = Names();
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", names[i].c_str());
  }
  std::fputs("],\"samples\":[\n", f);
  for (size_t i = 0; i < samples_.size(); ++i) {
    const TimelineSample& row = samples_[i];
    std::fprintf(f, "%s[%llu", i == 0 ? "" : ",\n",
                 static_cast<unsigned long long>(row.t));
    for (uint64_t v : row.values) {
      std::fprintf(f, ",%llu", static_cast<unsigned long long>(v));
    }
    std::fputs("]", f);
  }
  std::fputs("\n]}\n", f);
  bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;  // a full disk may show only at the flush
}

}  // namespace obs
}  // namespace semperos
