// Driver client: a minimal user program for microbenchmarks, examples and
// tests.
//
// Exposes the UserEnv of a user PE so a harness can issue capability
// operations directly (obtain/delegate/revoke/activate), plus helpers that
// build the capability topologies of the paper's microbenchmarks: chains
// (Figure 4) and one-root trees (Figure 5).
#ifndef SEMPEROS_SYSTEM_CLIENT_H_
#define SEMPEROS_SYSTEM_CLIENT_H_

#include <memory>
#include <vector>

#include "core/userlib.h"
#include "system/platform.h"

namespace semperos {

class DriverClient : public Program {
 public:
  DriverClient(NodeId kernel_node, const TimingModel& timing)
      : kernel_node_(kernel_node), ask_cost_(timing.ask_party) {}

  void Setup() override {
    env_ = std::make_unique<UserEnv>(pe_, kernel_node_, ask_cost_);
    env_->SetupEps(/*is_service=*/false);
  }
  void Start() override {}

  UserEnv& env() { return *env_; }

 private:
  NodeId kernel_node_;
  Cycles ask_cost_;
  std::unique_ptr<UserEnv> env_;
};

// A booted platform whose user PEs all run DriverClients.
struct DriverRig {
  std::unique_ptr<Platform> platform;
  std::vector<DriverClient*> clients;

  Platform& p() { return *platform; }
  DriverClient& client(size_t i) { return *clients.at(i); }
  VpeId vpe(size_t i) const { return platform->user_nodes().at(i); }
  Kernel* kernel_of_client(size_t i) { return platform->kernel_of(vpe(i)); }
  // Index (into clients) of the j-th client managed by kernel `k`. Groups
  // are laid out contiguously, so client index order does not match
  // round-robin kernel assignment.
  size_t client_in_kernel(KernelId k, size_t j) const;

  CapSel Grant(size_t i, uint64_t size = 1 << 20) {
    return kernel_of_client(i)->AdminGrantMem(vpe(i), platform->mem_nodes().at(0), 0, size,
                                              kPermRW);
  }

  // Migrates `pe` to `dst_kernel` and runs the simulation until the new
  // membership epoch settled on every kernel. Returns the handoff latency.
  Cycles Migrate(NodeId pe, KernelId dst_kernel);

  // Runs one blocking capability operation and returns its latency.
  Cycles TimedOp(const std::function<void(std::function<void()>)>& op) {
    Cycles start = platform->sim().Now();
    Cycles end = start;
    bool done = false;
    op([&] {
      end = platform->sim().Now();
      done = true;
    });
    platform->RunToCompletion();
    CHECK(done) << "timed operation did not complete";
    return end - start;
  }

  // Builds a delegation chain of `length` capabilities below client 0's
  // fresh capability, bouncing between the given client indices (all in one
  // group => local chain; alternating groups => the group-spanning chain of
  // Figure 4). Returns the root selector at client 0.
  CapSel BuildChain(uint32_t length, const std::vector<size_t>& hops);

  // Client 0 delegates one fresh capability to `children` other clients
  // (round-robin over clients 1..), each of which activates its copy — the
  // shared-memory tree of Figure 5. Returns the root selector.
  CapSel BuildTree(uint32_t children);
};

// Calibration rig: `users` clients on `kernels` kernels with the mode's
// timing model; its users pin the paper's single-operation latencies.
DriverRig MakeDriverRig(uint32_t kernels, uint32_t users,
                        KernelMode mode = KernelMode::kSemperOSMulti);

// Full-control variant: `pc.users` clients on a custom platform config
// (flow-control window, timing model, revocation batching, ...).
DriverRig MakeDriverRig(PlatformConfig pc);

// Table 3's probe (paper §5.2): client 1 obtains client 0's fresh
// capability, then client 0 revokes it. One kernel gives the group-local
// scope, two kernels (one client each) the group-spanning one.
struct ObtainRevokeTimes {
  Cycles exchange = 0;
  Cycles revoke = 0;
};
ObtainRevokeTimes MeasureObtainRevoke(uint32_t kernels, KernelMode mode);

// Figure 4's probe: the time to revoke a delegation chain of `length`
// capabilities. On one kernel the chain bounces between two VPEs of the
// group; on two it bounces between the groups (one VPE each, like the
// paper's two applications).
Cycles RevokeChain(uint32_t kernels, KernelMode mode, uint32_t length);

}  // namespace semperos

#endif  // SEMPEROS_SYSTEM_CLIENT_H_
