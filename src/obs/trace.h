// Deterministic causal span tracing: a flight recorder for every capability
// operation (ISSUE 9 tentpole, pillar 1).
//
// Every traced step of a request — syscall service, IKC round trip, relay
// hop, exchange ask, DTU transit, migration, failover — records a Span.
// Spans form trees: the trace id names the request (derived from the
// originating entity and a per-entity sequence number, never wall clock)
// and the parent id links a span to the step that caused it. Parent links
// travel inside the existing message payloads (MsgBody::trace_id /
// trace_parent), so a spanning obtain's full cross-kernel tree — including
// pipelined relays — is reconstructable from the flat span list.
//
// Determinism contract: tracing is observational only. It never schedules
// events, charges cycles, or touches modeled state, so modeled results are
// bit-identical with tracing on or off ("zero modeled-cycle drift"). Span
// contents are pure functions of modeled execution (cycle timestamps,
// per-entity sequence numbers), so the merged span list — and its
// fingerprint — is bit-identical across reruns.
//
// Storage: spans are appended to per-entity (PE / node) ring buffers,
// merged once, after the run, in canonical event-key order (start cycle,
// entity, span id). A full ring drops the span and counts the
// drop — never fatal, never a reallocation on the hot path.
//
// Disabled cost: everything is gated on a Tracer* being attached to the
// platform; the untraced path is a single null-pointer test.
#ifndef SEMPEROS_OBS_TRACE_H_
#define SEMPEROS_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.h"

namespace semperos {
namespace obs {

// One value per traced step shape. Names (SpanKindName) are stable — they
// are the `cat` field of the exported Chrome trace and the keys of the
// critical-path breakdown.
enum class SpanKind : uint8_t {
  kRequest = 0,  // end-to-end request (open-loop generator / user syscall)
  kQueue,        // client-side credit wait (arrival -> wire)
  kTransit,      // DTU/NoC wire transit (send -> delivery)
  kSyscall,      // kernel syscall service (arrival -> reply emitted)
  kIkc,          // IKC request service at the receiving kernel
  kIkcRtt,       // sender-side IKC wait (request out -> reply callback)
  kAsk,          // kernel -> party exchange-ask round trip
  kRelay,        // pipelined stale-epoch forward hop
  kServe,        // server program request service (recv -> response)
  kMigration,    // VPE migration (task opened -> settled), source kernel
  kFailover,     // FT recovery of one dead kernel at one survivor
  kNumKinds,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t trace_id = 0;   // request identity: (origin entity, seq)
  uint64_t span_id = 0;    // (entity, per-entity seq); unique per run
  uint64_t parent_id = 0;  // 0 = root
  Cycles start = 0;        // simulated cycles
  Cycles end = 0;          // >= start
  uint32_t entity = 0;     // NodeId of the PE that recorded the span
  SpanKind kind = SpanKind::kRequest;
  uint16_t op = 0;         // kind-specific discriminator (SyscallOp, IkcOp, ...)
};

struct TraceConfig {
  bool enabled = false;
  // Per-entity ring capacity in spans. Overflow drops (counted).
  uint32_t ring_capacity = 1u << 16;
};

// Per-request critical-path breakdown: a canonical left-to-right walk of the
// span tree. Children are visited in start order; time covered by a child is
// attributed recursively, time between children is the enclosing span's self
// time. By construction the per-kind cycle sums add up to the root span's
// duration exactly — the decomposition is total, so "critical-path cycle sum
// == measured latency" is structural, not approximate.
struct CriticalPath {
  uint64_t trace_id = 0;
  uint64_t root_span = 0;
  Cycles total = 0;                          // root span duration
  Cycles by_kind[static_cast<size_t>(SpanKind::kNumKinds)] = {};
  Cycles self = 0;                           // time not covered by any child
  uint32_t spans = 0;                        // spans in this trace's tree
  uint32_t depth = 0;                        // deepest nesting level
  bool connected = false;                    // every span reachable from root
};

// Whole-run summary of the merged span list: what the CLI prints whenever
// tracing is on.
struct TraceReport {
  static constexpr size_t kSlowest = 5;
  uint64_t spans[static_cast<size_t>(SpanKind::kNumKinds)] = {};   // spans per kind
  Cycles cycles[static_cast<size_t>(SpanKind::kNumKinds)] = {};    // summed durations
  std::vector<uint64_t> depth_traces;  // [d] = traces whose tree is d levels deep
  uint64_t traces = 0;
  uint64_t disconnected = 0;           // traces with more than one root
  std::vector<CriticalPath> slowest;   // kSlowest longest roots (ties: lower trace id)
};

class Tracer {
 public:
  // `entities` is the platform's node count; each node gets its own ring.
  Tracer(uint32_t entities, TraceConfig config);

  bool enabled() const { return config_.enabled; }
  uint32_t entities() const { return static_cast<uint32_t>(rings_.size()); }

  // Mints a new trace id for a request originating at `entity`. Encoded as
  // ((entity + 1) << 40) | seq — a pure function of modeled execution order.
  uint64_t NewTraceId(uint32_t entity);

  // Allocates the next span id for `entity`. Ids are handed out before the
  // span completes so they can travel as parent links while the span is
  // still open; Record() carries the same id back.
  uint64_t NextSpanId(uint32_t entity);

  // Opens a span of `kind` at `entity`, starting at `start`, with its id
  // already drawn, so the id can travel as a parent link while the span is
  // open. The caller keeps the returned record and hands it to Close().
  Span Open(uint32_t entity, uint64_t trace, uint64_t parent, Cycles start, SpanKind kind,
            uint16_t op = 0);
  // Ends an opened span at `end` and records it.
  void Close(Span span, Cycles end);

  // Appends a completed span to `span.entity`'s ring. Drops (and counts)
  // when the ring is full.
  void Record(const Span& span);

  // Total spans dropped to full rings, across entities.
  uint64_t dropped() const;
  // Spans currently recorded, across entities (pre- or post-merge).
  uint64_t recorded() const;

  // Merges every ring in canonical key order (start, entity, span_id).
  // Call after the run has completed; idempotent, and further Record()
  // calls after a merge are rejected with a CHECK.
  const std::vector<Span>& Merged();

  // FNV-1a over every field of every merged span, in canonical order. The
  // determinism suites assert this is bit-identical across reruns.
  uint64_t Fingerprint();

  // All merged spans belonging to `trace_id`, in canonical order.
  std::vector<Span> SpansOf(uint64_t trace_id);

  // Critical-path walk of `trace_id`'s tree (see CriticalPath).
  CriticalPath ComputeCriticalPath(uint64_t trace_id);

  // Groups the merged spans by trace in one sort and walks every tree once
  // (ComputeCriticalPath per trace would rescan all spans each time).
  TraceReport Report();

  // Chrome trace_event JSON ("Complete" X events; open with Perfetto via
  // ui.perfetto.dev or chrome://tracing). Timestamps are simulated cycles
  // exported as microseconds. Returns false when the file can't be written.
  bool WriteChromeTrace(const std::string& path);

 private:
  struct Ring {
    std::vector<Span> spans;   // reserved lazily, capped at ring_capacity
    uint64_t dropped = 0;
    uint64_t next_span_seq = 0;
    uint64_t next_trace_seq = 0;
  };

  TraceConfig config_;
  std::vector<Ring> rings_;
  bool merged_done_ = false;
  std::vector<Span> merged_;
};

// Computes the critical path over an externally assembled span list (all
// spans of one trace, in canonical order).
CriticalPath ComputeCriticalPathOver(const std::vector<Span>& spans, uint64_t trace_id);

}  // namespace obs
}  // namespace semperos

#endif  // SEMPEROS_OBS_TRACE_H_
