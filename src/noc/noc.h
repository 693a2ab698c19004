// Network-on-chip model: 2-D mesh, dimension-ordered (XY) routing, per-link
// bandwidth with FIFO contention.
//
// The paper's platform integrates all PEs into a NoC (paper §2.2, Figure 1).
// Two properties of the interconnect matter for the capability protocols:
//
//  1. *Pairwise FIFO order*: "if kernel K1 first sends a message M1 to kernel
//     K2, followed by a message M2 to K2, then K2 has to receive M1 before
//     M2" (paper §4.3.1). XY routing is deterministic, so both messages
//     traverse the same links; our per-link FIFO queueing (next-free-time
//     bookkeeping, below) can only delay a later packet behind an earlier
//     one, never reorder them.
//  2. *Latency grows with distance and load*: delivery time is
//        hops * (kRouterLatency + kWireLatency) + serialization (link
//        occupancy, at least kMinPacketCycles),
//     where each traversed link is a serial resource. Rather than simulating
//     per-hop flit events, a packet reserves every link on its path in order;
//     this keeps the event count at one per message while still producing
//     queueing delays under load.
#ifndef SEMPEROS_NOC_NOC_H_
#define SEMPEROS_NOC_NOC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/simulation.h"

namespace semperos {

struct NocConfig {
  uint32_t width = 8;   // mesh columns
  uint32_t height = 8;  // mesh rows
};

struct NocStats {
  uint64_t packets = 0;
  uint64_t total_bytes = 0;
  uint64_t total_hops = 0;
  Cycles total_latency = 0;
  Cycles total_queueing = 0;  // extra delay due to busy links
};

class Noc {
 public:
  // Link timing. No experiment varies it.
  static constexpr Cycles kRouterLatency = 3;        // cycles per hop through a router
  static constexpr Cycles kWireLatency = 1;          // cycles per hop on the wire
  static constexpr uint32_t kLinkBytesPerCycle = 16;  // 128-bit links
  static constexpr Cycles kMinPacketCycles = 4;      // serialization floor (header flit)

  Noc(Simulation* sim, const NocConfig& config);

  // Number of nodes in the mesh.
  uint32_t NodeCount() const { return config_.width * config_.height; }

  // Manhattan distance between two nodes under XY routing.
  uint32_t Hops(NodeId src, NodeId dst) const;

  // Sends `bytes` from src to dst; `deliver` runs when the last flit arrives.
  // Returns the delivery time. The callable is built once, in its event
  // slot.
  template <typename F>
  Cycles Send(NodeId src, NodeId dst, uint32_t bytes, F&& deliver) {
    CHECK_LT(src, NodeCount());
    CHECK_LT(dst, NodeCount());
    Cycles t = RouteAndReserve(src, dst, bytes);
    sim_->ScheduleAt(t, std::forward<F>(deliver));
    return t;
  }

  // Latency a packet would see on an unloaded network (DTU memory timing,
  // calibration).
  Cycles UnloadedLatency(NodeId src, NodeId dst, uint32_t bytes) const;

  const NocStats& stats() const { return stats_; }
  const NocConfig& config() const { return config_; }

 private:
  // Index of the directed link leaving `node` towards direction d
  // (0=east, 1=west, 2=north, 3=south).
  uint32_t LinkIndex(NodeId node, int dir) const;

  // Reserves one link of the XY path for `serialization` cycles: the packet
  // head arrives at `t`, stalls while the link is busy (FIFO), and holds it
  // for its serialization time. Returns the head's departure time.
  Cycles ReserveLink(uint32_t link, Cycles t, Cycles serialization, Cycles* queueing);

  // Walks the XY path from now, reserving links, and returns the delivery
  // time; accumulates into the stats.
  Cycles RouteAndReserve(NodeId src, NodeId dst, uint32_t bytes);

  Simulation* sim_;
  NocConfig config_;
  std::vector<Cycles> link_free_at_;  // per directed link: next free cycle
  NocStats stats_;
};

}  // namespace semperos

#endif  // SEMPEROS_NOC_NOC_H_
