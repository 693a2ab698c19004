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
//
// Parallel engine (sim/engine.h). Link reservation order is what the serial
// engine defines it to be: the global time order of Send calls. Under the
// sharded engine a Send executed inside a window therefore never touches
// link state live — it is recorded in the sending shard's outbox and applied
// at the window barrier, where the coordinator (with exclusive ownership of
// the link array) replays all deferred sends in the serial engine's send
// order (the recording events' execution keys — see Simulation::Entry) and
// schedules each delivery into the destination node's shard queue. Loopback packets (src == dst) touch no
// links and deliver into the sending shard's own queue, so they stay inline.
// The NoC's minimum cross-node latency, kMinCrossNodeLatency, is the
// engine's conservative synchronization lookahead.
#ifndef SEMPEROS_NOC_NOC_H_
#define SEMPEROS_NOC_NOC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/inline_fn.h"
#include "sim/simulation.h"

namespace semperos {

class ParallelEngine;

struct NocConfig {
  uint32_t width = 8;            // mesh columns
  uint32_t height = 8;           // mesh rows
  bool model_contention = true;  // per-link FIFO queueing on/off
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
  // No packet reaches another node sooner: the parallel engine's lookahead.
  static constexpr Cycles kMinCrossNodeLatency = kRouterLatency + kWireLatency + kMinPacketCycles;

  Noc(Simulation* sim, const NocConfig& config);

  // Switches the NoC to sharded operation: `node_sims[n]` is the queue that
  // owns node n's events. Called by the platform before any traffic flows.
  void AttachEngine(ParallelEngine* engine, std::vector<Simulation*> node_sims);

  // Number of nodes in the mesh.
  uint32_t NodeCount() const { return config_.width * config_.height; }

  // Manhattan distance between two nodes under XY routing.
  uint32_t Hops(NodeId src, NodeId dst) const;

  // Sends `bytes` from src to dst; `deliver` runs when the last flit arrives.
  // Returns the delivery time — except for cross-node sends recorded inside
  // a parallel window, whose delivery time is only computed at the barrier
  // (returns 0; no caller on the parallel path consumes the return value).
  // The callable is built once, in its event slot (or, for a deferred
  // send, in the outbox record).
  template <typename F>
  Cycles Send(NodeId src, NodeId dst, uint32_t bytes, F&& deliver) {
    CHECK_LT(src, NodeCount());
    CHECK_LT(dst, NodeCount());
    if (engine_ != nullptr && ShardContext::current != nullptr && src != dst) {
      // Sharded window execution: link state is shared across shards, so the
      // reservation is deferred to the barrier, where all of this window's
      // sends replay in global send-time order — the serial engine's order.
      DeferSend(src, dst, bytes, std::forward<F>(deliver));
      return 0;
    }
    Cycles t = RouteNow(src, dst, bytes);
    SimFor(dst)->ScheduleAt(t, std::forward<F>(deliver));
    return t;
  }

  // Barrier-side replay of a deferred send at its original send time, in
  // deterministic merged order. Engine-exclusive context only. `not_before`
  // is the conservative-lookahead floor: a delivery landing earlier would
  // target a cycle some shard has already executed past, so it CHECK-fails
  // loudly instead of corrupting the model.
  void ApplyDeferredSend(NodeId src, NodeId dst, uint32_t bytes, Cycles now, Cycles not_before,
                         InlineFn deliver);

  // Latency a packet would see on an unloaded network (for calibration).
  Cycles UnloadedLatency(NodeId src, NodeId dst, uint32_t bytes) const;

  // Aggregated counters (sums the per-context slots in sharded mode; call
  // from the main thread or an engine-exclusive context).
  NocStats stats() const;
  const NocConfig& config() const { return config_; }

 private:
  // Index of the directed link leaving `node` towards direction d
  // (0=east, 1=west, 2=north, 3=south).
  uint32_t LinkIndex(NodeId node, int dir) const;

  // Reserves one link of the XY path for `serialization` cycles: the packet
  // head arrives at `t`, stalls while the link is busy (FIFO), and holds it
  // for its serialization time. Returns the head's departure time.
  Cycles ReserveLink(uint32_t link, Cycles t, Cycles serialization, Cycles* queueing);

  // Walks the XY path at time `now`, reserving links, and returns the
  // delivery time; accumulates into `stats`.
  Cycles RouteAndReserve(NodeId src, NodeId dst, uint32_t bytes, Cycles now, NocStats* stats);

  // Send's two halves: record a cross-node send made inside a parallel
  // window in the engine's outbox, or route it now from the calling
  // context's clock and return its delivery time.
  void DeferSend(NodeId src, NodeId dst, uint32_t bytes, InlineFn deliver);
  Cycles RouteNow(NodeId src, NodeId dst, uint32_t bytes);

  // Queue owning node `n`'s events (sim_ on the legacy path).
  Simulation* SimFor(NodeId n) {
    return node_sims_.empty() ? sim_ : node_sims_[n];
  }

  // Stats slot for the calling context: per-shard inside windows, the
  // exclusive slot otherwise. Legacy mode uses slot 0.
  NocStats& StatsSlot();

  Simulation* sim_;
  NocConfig config_;
  ParallelEngine* engine_ = nullptr;
  std::vector<Simulation*> node_sims_;        // empty on the legacy path
  std::vector<Cycles> link_free_at_;  // per directed link: next free cycle
  // Slot per shard plus one exclusive slot (index = shard count); a single
  // slot on the legacy path. Counters are sums, so slot order is irrelevant.
  std::vector<NocStats> stats_slots_;
};

}  // namespace semperos

#endif  // SEMPEROS_NOC_NOC_H_
