#include "ft/ft.h"

namespace semperos {

const char* FtVerdictName(FtVerdict v) {
  switch (v) {
    case FtVerdict::kAlive:
      return "alive";
    case FtVerdict::kSuspected:
      return "suspected";
    case FtVerdict::kFailed:
      return "failed";
    case FtVerdict::kNoQuorum:
      return "no-quorum";
  }
  return "?";
}

std::vector<TakeoverAssignment> PlanTakeover(const MembershipTable& membership, KernelId dead,
                                             uint32_t kernel_count,
                                             const std::function<bool(KernelId)>& failed) {
  std::vector<KernelId> survivors;
  survivors.reserve(kernel_count);
  for (KernelId k = 0; k < kernel_count; ++k) {
    if (k != dead && !failed(k)) {
      survivors.push_back(k);
    }
  }
  std::vector<TakeoverAssignment> plan;
  if (survivors.empty()) {
    return plan;  // nobody left to adopt; callers refuse recovery before this
  }
  size_t next = 0;
  for (NodeId pe = 0; pe < membership.PeCount(); ++pe) {
    if (membership.KernelOf(pe) != dead) {
      continue;
    }
    plan.push_back(TakeoverAssignment{pe, survivors[next % survivors.size()]});
    ++next;
  }
  return plan;
}

}  // namespace semperos
