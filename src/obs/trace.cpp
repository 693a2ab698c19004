#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "base/log.h"

namespace semperos {
namespace obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:   return "request";
    case SpanKind::kQueue:     return "queue";
    case SpanKind::kTransit:   return "transit";
    case SpanKind::kSyscall:   return "syscall";
    case SpanKind::kIkc:       return "ikc";
    case SpanKind::kIkcRtt:    return "ikc_rtt";
    case SpanKind::kAsk:       return "ask";
    case SpanKind::kRelay:     return "relay";
    case SpanKind::kServe:     return "serve";
    case SpanKind::kMigration: return "migration";
    case SpanKind::kFailover:  return "failover";
    case SpanKind::kNumKinds:  break;
  }
  return "?";
}

namespace {

// Id layout: ((entity + 1) << 40) | seq. 24 bits of entity (the largest
// evaluated mesh is ~10k PEs), 40 bits of per-entity sequence. The +1 keeps
// 0 reserved as "no trace" / "no parent".
uint64_t MakeId(uint32_t entity, uint64_t seq) {
  return ((static_cast<uint64_t>(entity) + 1) << 40) | (seq & ((1ull << 40) - 1));
}

bool CanonicalLess(const Span& a, const Span& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.entity != b.entity) return a.entity < b.entity;
  return a.span_id < b.span_id;
}

}  // namespace

Tracer::Tracer(uint32_t entities, TraceConfig config)
    : config_(config), rings_(entities) {
  CHECK_GT(config_.ring_capacity, 0u);
}

uint64_t Tracer::NewTraceId(uint32_t entity) {
  return MakeId(entity, ++rings_.at(entity).next_trace_seq);
}

uint64_t Tracer::NextSpanId(uint32_t entity) {
  return MakeId(entity, ++rings_.at(entity).next_span_seq);
}

Span Tracer::Open(uint32_t entity, uint64_t trace, uint64_t parent, Cycles start, SpanKind kind,
                  uint16_t op) {
  Span span;
  span.trace_id = trace;
  span.span_id = NextSpanId(entity);
  span.parent_id = parent;
  span.start = start;
  span.end = start;
  span.entity = entity;
  span.kind = kind;
  span.op = op;
  return span;
}

void Tracer::Close(Span span, Cycles end) {
  span.end = end;
  Record(span);
}

void Tracer::Record(const Span& span) {
  CHECK(!merged_done_) << "span recorded after the trace was merged";
  Ring& ring = rings_.at(span.entity);
  if (ring.spans.size() >= config_.ring_capacity) {
    ring.dropped++;  // observational: never fatal, never reallocates
    return;
  }
  if (ring.spans.empty()) {
    ring.spans.reserve(std::min<uint32_t>(config_.ring_capacity, 64u));
  }
  CHECK_GE(span.end, span.start);
  ring.spans.push_back(span);
}

uint64_t Tracer::dropped() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.dropped;
  }
  return total;
}

uint64_t Tracer::recorded() const {
  if (merged_done_) {
    return merged_.size();
  }
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.spans.size();
  }
  return total;
}

const std::vector<Span>& Tracer::Merged() {
  if (merged_done_) {
    return merged_;
  }
  size_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.spans.size();
  }
  merged_.reserve(total);
  for (Ring& ring : rings_) {
    merged_.insert(merged_.end(), ring.spans.begin(), ring.spans.end());
    ring.spans.clear();
    ring.spans.shrink_to_fit();
  }
  std::sort(merged_.begin(), merged_.end(), CanonicalLess);
  merged_done_ = true;
  return merged_;
}

uint64_t Tracer::Fingerprint() {
  const std::vector<Span>& spans = Merged();
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Span& s : spans) {
    mix(s.trace_id);
    mix(s.span_id);
    mix(s.parent_id);
    mix(s.start);
    mix(s.end);
    mix((static_cast<uint64_t>(s.entity) << 32) |
        (static_cast<uint64_t>(s.kind) << 16) | s.op);
  }
  mix(dropped());
  return h;
}

std::vector<Span> Tracer::SpansOf(uint64_t trace_id) {
  std::vector<Span> out;
  for (const Span& s : Merged()) {
    if (s.trace_id == trace_id) {
      out.push_back(s);
    }
  }
  return out;
}

CriticalPath Tracer::ComputeCriticalPath(uint64_t trace_id) {
  return ComputeCriticalPathOver(SpansOf(trace_id), trace_id);
}

TraceReport Tracer::Report() {
  const std::vector<Span>& spans = Merged();
  TraceReport report;
  // Span indices grouped by trace; the index tie-break keeps each group in
  // canonical order, which is the order the walk visits children in.
  std::vector<uint32_t> order(spans.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    const size_t kind = static_cast<size_t>(spans[i].kind);
    report.spans[kind]++;
    report.cycles[kind] += spans[i].end - spans[i].start;
  }
  std::sort(order.begin(), order.end(), [&spans](uint32_t a, uint32_t b) {
    return spans[a].trace_id != spans[b].trace_id ? spans[a].trace_id < spans[b].trace_id
                                                  : a < b;
  });
  auto slower = [](const CriticalPath& a, const CriticalPath& b) {
    return a.total != b.total ? a.total > b.total : a.trace_id < b.trace_id;
  };
  std::vector<Span> group;
  for (size_t lo = 0; lo < order.size();) {
    const uint64_t trace_id = spans[order[lo]].trace_id;
    group.clear();
    for (; lo < order.size() && spans[order[lo]].trace_id == trace_id; ++lo) {
      group.push_back(spans[order[lo]]);
    }
    CriticalPath path = ComputeCriticalPathOver(group, trace_id);
    report.traces++;
    report.disconnected += path.connected ? 0 : 1;
    if (report.depth_traces.size() <= path.depth) {
      report.depth_traces.resize(path.depth + 1);
    }
    report.depth_traces[path.depth]++;
    if (report.slowest.size() < TraceReport::kSlowest || slower(path, report.slowest.back())) {
      report.slowest.push_back(path);
      std::sort(report.slowest.begin(), report.slowest.end(), slower);
      report.slowest.resize(std::min(report.slowest.size(), TraceReport::kSlowest));
    }
  }
  return report;
}

CriticalPath ComputeCriticalPathOver(const std::vector<Span>& spans, uint64_t trace_id) {
  CriticalPath cp;
  cp.trace_id = trace_id;
  if (spans.empty()) {
    return cp;
  }
  // Index spans and group children by parent, preserving canonical order.
  std::map<uint64_t, const Span*> by_id;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    by_id[s.span_id] = &s;
    children[s.parent_id].push_back(&s);
  }
  // Root: parent absent from the trace (0 or recorded elsewhere). Pick the
  // earliest such span; a well-formed trace has exactly one.
  const Span* root = nullptr;
  uint32_t orphan_roots = 0;
  for (const Span& s : spans) {
    if (by_id.find(s.parent_id) == by_id.end()) {
      orphan_roots++;
      if (root == nullptr) {
        root = &s;
      }
    }
  }
  CHECK(root != nullptr);
  cp.root_span = root->span_id;
  cp.total = root->end - root->start;
  cp.spans = static_cast<uint32_t>(spans.size());
  cp.connected = orphan_roots == 1;

  // Left-to-right walk: within [lo, hi] of `span`, children claim their
  // intervals in start order (overlap goes to the earlier sibling), the
  // gaps are the span's self time, attributed to its kind.
  std::function<void(const Span*, Cycles, Cycles, uint32_t)> walk =
      [&](const Span* span, Cycles lo, Cycles hi, uint32_t depth) {
        cp.depth = std::max(cp.depth, depth);
        Cycles cursor = lo;
        auto it = children.find(span->span_id);
        if (it != children.end()) {
          for (const Span* child : it->second) {
            Cycles cs = std::max(std::max(child->start, cursor), lo);
            Cycles ce = std::min(child->end, hi);
            if (ce <= cs) {
              continue;  // fully overlapped by an earlier sibling, or clipped
            }
            if (cs > cursor) {
              cp.by_kind[static_cast<size_t>(span->kind)] += cs - cursor;
            }
            walk(child, cs, ce, depth + 1);
            cursor = std::max(cursor, ce);
          }
        }
        if (hi > cursor) {
          cp.by_kind[static_cast<size_t>(span->kind)] += hi - cursor;
        }
      };
  walk(root, root->start, root->end, 1);
  // Root self time: the root's duration minus the union of its direct
  // children (clipped to the root interval).
  Cycles covered = 0;
  Cycles cursor = root->start;
  auto it = children.find(root->span_id);
  if (it != children.end()) {
    for (const Span* child : it->second) {
      Cycles cs = std::max(child->start, cursor);
      Cycles ce = std::min(child->end, root->end);
      if (ce > cs) {
        covered += ce - cs;
        cursor = ce;
      }
    }
  }
  cp.self = cp.total - covered;
  return cp;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  const std::vector<Span>& spans = Merged();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Chrome trace_event format: one Complete ("X") event per span. pid = the
  // recording entity (so Perfetto groups rows by PE), ts/dur in "us" (we
  // export raw cycles; the viewer's units are nominal). Trace/parent ids
  // ride in args, so a viewer or script can rebuild the span trees.
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s/%u\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                 "\"tid\":%u,\"ts\":%llu,\"dur\":%llu,\"args\":{\"trace\":\"%llx\","
                 "\"span\":\"%llx\",\"parent\":\"%llx\",\"op\":%u}}",
                 first ? "" : ",\n", SpanKindName(s.kind), s.op, SpanKindName(s.kind),
                 s.entity, static_cast<uint32_t>(s.kind),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end - s.start),
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_id), s.op);
    first = false;
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans\":%llu,\"dropped\":%llu}}\n",
               static_cast<unsigned long long>(spans.size()),
               static_cast<unsigned long long>(dropped()));
  bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;  // a full disk may show only at the flush
}

}  // namespace obs
}  // namespace semperos
