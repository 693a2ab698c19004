// Property-based testing of the distributed capability protocols.
//
// Random interleavings of grants, obtains, delegates, revokes and VPE kills
// run concurrently across several kernels; after quiescence the platform
// must satisfy the global structural invariants I1-I6 checked by the shared
// auditor (src/audit/cap_audit.h documents the catalogue).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "audit/cap_audit.h"
#include "base/rng.h"
#include "system/client.h"

namespace semperos {
namespace {

struct FuzzParam {
  uint64_t seed;
  uint32_t kernels;
  uint32_t users;
  uint32_t rounds;
  bool with_kills;
};

std::string ParamName(const ::testing::TestParamInfo<FuzzParam>& info) {
  std::ostringstream os;
  os << "seed" << info.param.seed << "_k" << info.param.kernels << "_u" << info.param.users
     << (info.param.with_kills ? "_kills" : "");
  return os.str();
}

class CapabilityFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(CapabilityFuzz, InvariantsHoldAfterRandomInterleavings) {
  const FuzzParam& param = GetParam();
  Rng rng(param.seed);
  DriverRig rig = MakeDriverRig(param.kernels, param.users);
  Platform& p = rig.p();

  std::vector<bool> busy(param.users, false);
  std::vector<bool> dead(param.users, false);
  // Selectors each client has ever seen (some will be stale — the kernel
  // must answer those with clean errors, never crash or corrupt state).
  std::vector<std::vector<CapSel>> sels(param.users);
  for (size_t i = 0; i < param.users; ++i) {
    sels[i].push_back(rig.Grant(i, 4096));
  }

  uint32_t kills_left = param.with_kills ? 2 : 0;
  for (uint32_t round = 0; round < param.rounds; ++round) {
    for (size_t i = 0; i < param.users; ++i) {
      if (busy[i] || dead[i] || !rng.NextBool(0.7)) {
        continue;
      }
      size_t peer = rng.NextBelow(param.users);
      if (peer == i || dead[peer]) {
        continue;
      }
      CapSel sel = sels[i][rng.NextBelow(sels[i].size())];
      CapSel peer_sel = sels[peer][rng.NextBelow(sels[peer].size())];
      busy[i] = true;
      auto release = [&busy, i](const SyscallReply&) { busy[i] = false; };
      switch (rng.NextBelow(4)) {
        case 0:
          rig.client(i).env().Obtain(rig.vpe(peer), peer_sel,
                                     [&, i](const SyscallReply& r) {
                                       if (r.err == ErrCode::kOk) {
                                         sels[i].push_back(r.sel);
                                       }
                                       busy[i] = false;
                                     });
          break;
        case 1:
          rig.client(i).env().Delegate(sel, rig.vpe(peer), release);
          break;
        case 2:
          rig.client(i).env().Revoke(sel, release);
          break;
        case 3:
          rig.client(i).env().DeriveMem(sel, 0, 64, kPermR,
                                        [&, i](const SyscallReply& r) {
                                          if (r.err == ErrCode::kOk) {
                                            sels[i].push_back(r.sel);
                                          }
                                          busy[i] = false;
                                        });
          break;
      }
    }
    if (kills_left > 0 && round == param.rounds / 2) {
      // Kill a random VPE mid-flight: exercises the Orphaned/Invalid paths.
      size_t victim = rng.NextBelow(param.users);
      if (!dead[victim]) {
        dead[victim] = true;
        kills_left--;
        rig.kernel_of_client(victim)->AdminKillVpe(rig.vpe(victim), nullptr);
      }
    }
    // Let a random amount of simulated time pass so operations interleave
    // at many different points.
    p.sim().RunUntil(p.sim().Now() + 200 + rng.NextBelow(3000));
  }
  p.RunToCompletion();

  // The shared auditor walks the global capability forest and checks I1-I6
  // (holder/table consistency, parent/child edge symmetry, no marked caps,
  // full quiescence, membership coherence).
  AuditReport report = AuditPlatform(p);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.caps_checked, 0u);
}

std::vector<FuzzParam> FuzzGrid() {
  std::vector<FuzzParam> params;
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
    params.push_back({seed, 2, 6, 30, false});
  }
  for (uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    params.push_back({seed, 4, 12, 30, false});
  }
  for (uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    params.push_back({seed, 8, 24, 20, false});
  }
  for (uint64_t seed : {31ull, 32ull, 33ull, 34ull, 35ull, 36ull}) {
    params.push_back({seed, 3, 9, 25, true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, CapabilityFuzz, ::testing::ValuesIn(FuzzGrid()),
                         ParamName);

// Determinism: the same seed must produce the identical simulation.
TEST(Determinism, IdenticalRunsProduceIdenticalState) {
  auto run = [](uint64_t seed) {
    Rng rng(seed);
    DriverRig rig = MakeDriverRig(3, 9);
    std::vector<CapSel> roots;
    for (size_t i = 0; i < 9; ++i) {
      roots.push_back(rig.Grant(i, 4096));
    }
    for (int op = 0; op < 20; ++op) {
      size_t from = rng.NextBelow(9);
      size_t to = rng.NextBelow(9);
      if (from == to) {
        continue;
      }
      rig.client(from).env().Delegate(roots[from], rig.vpe(to), [](const SyscallReply&) {});
      rig.p().RunToCompletion();
    }
    KernelStats stats = rig.p().TotalKernelStats();
    return std::tuple(rig.p().sim().Now(), stats.caps_created, stats.ikc_sent,
                      rig.p().sim().EventsRun());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), 0u);
}

}  // namespace
}  // namespace semperos
