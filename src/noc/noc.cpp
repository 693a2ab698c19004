#include "noc/noc.h"

#include <utility>

#include "sim/engine.h"

namespace semperos {

Noc::Noc(Simulation* sim, const NocConfig& config) : sim_(sim), config_(config) {
  CHECK_GT(config_.width, 0u);
  CHECK_GT(config_.height, 0u);
  // Four directed links per node (not all used at the mesh edge).
  link_free_at_.assign(static_cast<size_t>(NodeCount()) * 4, 0);
  stats_slots_.resize(1);
}

void Noc::AttachEngine(ParallelEngine* engine, std::vector<Simulation*> node_sims) {
  CHECK(engine != nullptr);
  CHECK_EQ(node_sims.size(), NodeCount());
  engine_ = engine;
  node_sims_ = std::move(node_sims);
  stats_slots_.assign(engine->shard_count() + 1, NocStats{});
  engine->BindNoc(this);
}

uint32_t Noc::Hops(NodeId src, NodeId dst) const {
  uint32_t sx = src % config_.width;
  uint32_t sy = src / config_.width;
  uint32_t dx = dst % config_.width;
  uint32_t dy = dst / config_.width;
  uint32_t hx = sx > dx ? sx - dx : dx - sx;
  uint32_t hy = sy > dy ? sy - dy : dy - sy;
  return hx + hy;
}

uint32_t Noc::LinkIndex(NodeId node, int dir) const {
  return node * 4 + static_cast<uint32_t>(dir);
}

Cycles Noc::UnloadedLatency(NodeId src, NodeId dst, uint32_t bytes) const {
  uint32_t hops = Hops(src, dst);
  Cycles serialization = bytes / kLinkBytesPerCycle;
  if (serialization < kMinPacketCycles) {
    serialization = kMinPacketCycles;
  }
  return hops * (kRouterLatency + kWireLatency) + serialization;
}

Cycles Noc::ReserveLink(uint32_t link, Cycles t, Cycles serialization, Cycles* queueing) {
  Cycles arrive = t + kRouterLatency + kWireLatency;
  Cycles start = arrive;
  if (link_free_at_[link] > start) {
    *queueing += link_free_at_[link] - start;
    start = link_free_at_[link];
  }
  link_free_at_[link] = start + serialization;
  return start;
}

NocStats& Noc::StatsSlot() {
  if (node_sims_.empty()) {
    return stats_slots_[0];
  }
  Simulation* cur = ShardContext::current;
  return cur != nullptr ? stats_slots_[cur->shard_index()] : stats_slots_.back();
}

NocStats Noc::stats() const {
  NocStats total;
  for (const NocStats& s : stats_slots_) {
    total.packets += s.packets;
    total.total_bytes += s.total_bytes;
    total.total_hops += s.total_hops;
    total.total_latency += s.total_latency;
    total.total_queueing += s.total_queueing;
  }
  return total;
}

Cycles Noc::RouteAndReserve(NodeId src, NodeId dst, uint32_t bytes, Cycles now, NocStats* stats) {
  Cycles serialization = bytes / kLinkBytesPerCycle;
  if (serialization < kMinPacketCycles) {
    serialization = kMinPacketCycles;
  }

  Cycles queueing = 0;
  Cycles t = now;
  if (src == dst) {
    // Loopback through the local router only.
    t += kRouterLatency;
  } else if (config_.model_contention) {
    // Dimension-ordered routing, X first then Y — deterministic, so message
    // order between any pair of nodes is preserved. The packet head advances
    // hop by hop; each traversed link is reserved inline for the packet's
    // serialization time (no materialized path vector), and a busy link
    // stalls the head (FIFO).
    uint32_t x = src % config_.width;
    uint32_t y = src / config_.width;
    uint32_t dx = dst % config_.width;
    uint32_t dy = dst / config_.width;
    NodeId cur = src;
    while (x != dx) {
      int dir = x < dx ? 0 : 1;
      t = ReserveLink(LinkIndex(cur, dir), t, serialization, &queueing);
      x = x < dx ? x + 1 : x - 1;
      cur = y * config_.width + x;
    }
    while (y != dy) {
      int dir = y < dy ? 3 : 2;
      t = ReserveLink(LinkIndex(cur, dir), t, serialization, &queueing);
      y = y < dy ? y + 1 : y - 1;
      cur = y * config_.width + x;
    }
    t += serialization;  // tail of the packet drains over the last link
  } else {
    t = now + UnloadedLatency(src, dst, bytes);
  }

  stats->packets++;
  stats->total_bytes += bytes;
  stats->total_hops += Hops(src, dst);
  stats->total_latency += t - now;
  stats->total_queueing += queueing;
  return t;
}

void Noc::DeferSend(NodeId src, NodeId dst, uint32_t bytes, InlineFn deliver) {
  engine_->RecordSend(src, dst, bytes, std::move(deliver));
}

Cycles Noc::RouteNow(NodeId src, NodeId dst, uint32_t bytes) {
  Cycles now;
  if (node_sims_.empty()) {
    now = sim_->Now();
  } else if (ShardContext::current != nullptr) {
    now = ShardContext::current->Now();  // loopback inside a window
  } else {
    now = engine_->Now();  // engine-exclusive context (boot, driver events)
  }
  return RouteAndReserve(src, dst, bytes, now, &StatsSlot());
}

void Noc::ApplyDeferredSend(NodeId src, NodeId dst, uint32_t bytes, Cycles now, Cycles not_before,
                            InlineFn deliver) {
  Cycles t = RouteAndReserve(src, dst, bytes, now, &stats_slots_.back());
  CHECK_GE(t, not_before) << "deferred delivery violates the NoC lookahead window (src=" << src
                          << " dst=" << dst << ")";
  SimFor(dst)->ScheduleAt(t, std::move(deliver));
}

}  // namespace semperos
