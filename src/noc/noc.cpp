#include "noc/noc.h"

namespace semperos {

Noc::Noc(Simulation* sim, const NocConfig& config) : sim_(sim), config_(config) {
  CHECK_GT(config_.width, 0u);
  CHECK_GT(config_.height, 0u);
  // Four directed links per node (not all used at the mesh edge).
  link_free_at_.assign(static_cast<size_t>(NodeCount()) * 4, 0);
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

Cycles Noc::RouteAndReserve(NodeId src, NodeId dst, uint32_t bytes) {
  const Cycles now = sim_->Now();
  Cycles serialization = bytes / kLinkBytesPerCycle;
  if (serialization < kMinPacketCycles) {
    serialization = kMinPacketCycles;
  }

  Cycles queueing = 0;
  Cycles t = now;
  if (src == dst) {
    // Loopback through the local router only.
    t += kRouterLatency;
  } else {
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
  }

  stats_.packets++;
  stats_.total_bytes += bytes;
  stats_.total_hops += Hops(src, dst);
  stats_.total_latency += t - now;
  stats_.total_queueing += queueing;
  return t;
}

}  // namespace semperos
