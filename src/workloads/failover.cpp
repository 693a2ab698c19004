#include "workloads/failover.h"

#include <algorithm>
#include <vector>

#include "base/log.h"
#include "workloads/rebalance.h"

namespace semperos {

namespace {

// The failure detector (FtConfig's heartbeat timing) stays armed this long
// past the kill, so detection and recovery finish inside its window.
constexpr Cycles kMonitorSlack = 600'000;

}  // namespace

FailoverResult RunFailover(const FailoverConfig& config) {
  CHECK_GE(config.kernels, 2u);
  CHECK_GE(config.users_per_kernel, 1u);
  CHECK_LT(config.victim, config.kernels);
  CHECK_LE(config.activate_caps, config.orphan_caps);
  CHECK_LE(config.activate_caps, user_ep::kNumMemEps);

  // Failover clients seed orphans and arm the crash watchdog (LoopClient).
  LoopClient::Params params;
  params.attempts = config.ops_per_client;
  params.crash_watchdog = config.kill;
  params.seed_caps = config.orphan_caps;
  params.activate_caps = config.activate_caps;
  LoopRig rig = MakeLoopRig(config.kernels, config.users_per_kernel, config.setup, params);
  Platform& platform = *rig.platform;
  const std::vector<LoopClient*>& clients = rig.clients;
  const std::vector<CapSel>& roots = rig.roots;

  // The per-group client lists let the pairing below be explicit about
  // groups.
  uint32_t n = static_cast<uint32_t>(clients.size());
  std::vector<std::vector<uint32_t>> by_group(config.kernels);
  for (uint32_t i = 0; i < n; ++i) {
    by_group[platform.membership().KernelOf(platform.user_nodes()[i])].push_back(i);
  }

  // Loop pairing: client j of group g works against client j of the next
  // SURVIVING group, so every loop op spans kernels and no loop ever
  // targets a VPE whose capabilities die with the victim. Seed pairing:
  // group (victim+1) obtains from its victim-group partners — these are the
  // capabilities the crash orphans.
  auto next_surviving = [&](KernelId g) {
    KernelId s = (g + 1) % config.kernels;
    if (config.kill && s == config.victim) {
      s = (s + 1) % config.kernels;
    }
    return s;
  };
  for (KernelId g = 0; g < config.kernels; ++g) {
    const std::vector<uint32_t>& group = by_group[g];
    const std::vector<uint32_t>& peers = by_group[next_surviving(g)];
    for (size_t j = 0; j < group.size(); ++j) {
      uint32_t peer = peers[j % peers.size()];
      clients[group[j]]->SetLoopPeer(platform.user_nodes()[peer], roots[peer]);
    }
  }
  if (config.kill && config.orphan_caps > 0) {
    KernelId seed_group = (config.victim + 1) % config.kernels;
    const std::vector<uint32_t>& seeders = by_group[seed_group];
    const std::vector<uint32_t>& victims = by_group[config.victim];
    for (size_t j = 0; j < seeders.size(); ++j) {
      uint32_t partner = victims[j % victims.size()];
      clients[seeders[j]]->SetSeedPeer(platform.user_nodes()[partner], roots[partner]);
    }
  }

  platform.Boot();
  Cycles run_start = platform.sim().Now();

  Cycles kill_time = 0;
  if (config.kill) {
    kill_time = std::max(run_start + 1, config.kill_at);
    FtConfig ft;
    ft.monitor_until = kill_time + kMonitorSlack;
    platform.StartFailureDetector(ft);
    platform.KillKernelAt(config.victim, kill_time);
  }
  platform.RunToCompletion();

  FailoverResult result;
  rig.Tally(run_start, "failover", &result);
  result.kill_time = kill_time;
  if (config.kill) {
    for (uint32_t idx : by_group[config.victim]) {
      result.adopted_ops += clients[idx]->ops_ok();
      for (Cycles t : clients[idx]->completions()) {
        result.adopted_ops_post_kill += t >= kill_time ? 1 : 0;
      }
    }
  }

  // Crash-recovery outcome, read off the survivors.
  uint64_t expected_caps = 0;
  uint64_t caps_now = 0;
  if (config.kill) {
    Cycles first_verdict = 0;
    Cycles last_recovered = 0;
    bool all_recovered = true;
    bool any_refused = false;
    uint64_t min_epoch = UINT64_MAX;
    for (KernelId k = 0; k < platform.kernel_count(); ++k) {
      if (k == config.victim) {
        continue;
      }
      Kernel* kernel = platform.kernel(k);
      caps_now += kernel->caps().size();
      if (kernel->ft_verdict(config.victim) == FtVerdict::kNoQuorum) {
        any_refused = true;
      }
      if (!kernel->ft_recovery_done()) {
        all_recovered = false;
        continue;
      }
      Cycles verdict = kernel->ft_verdict_at();
      first_verdict = first_verdict == 0 ? verdict : std::min(first_verdict, verdict);
      last_recovered = std::max(last_recovered, kernel->ft_recovered_at());
      min_epoch = std::min(min_epoch, kernel->config().membership.Epoch());
    }
    result.recovered = all_recovered;
    result.refused = any_refused;
    if (all_recovered) {
      result.detect_latency = first_verdict - kill_time;
      result.recover_latency = last_recovered - kill_time;
      result.survivor_epoch = min_epoch;
      // Throughput dip around the kill-to-recovered span.
      rig.RatesAround(kill_time, last_recovered, &result);
    }

    // Seeded orphans must be gone (revoked by recovery) and their activated
    // endpoints invalidated.
    KernelId seed_group = (config.victim + 1) % config.kernels;
    for (uint32_t idx : by_group[seed_group]) {
      LoopClient* client = clients[idx];
      VpeId vpe = platform.user_nodes()[idx];
      Kernel* kernel = platform.kernel_of(vpe);
      for (CapSel sel : client->seed_sels()) {
        if (kernel->CapOf(vpe, sel) == nullptr) {
          result.seeds_revoked++;
        }
      }
      for (EpId ep : client->seed_eps()) {
        if (!platform.pe(vpe)->dtu().EpValid(ep)) {
          result.eps_invalidated++;
        }
      }
    }

    // Leak check over the surviving kernels: every live client keeps its
    // self + root capability; adopted clients restart from a fresh self
    // capability; seeds are gone if recovery ran, still held otherwise.
    uint64_t live_clients = static_cast<uint64_t>(n) - by_group[config.victim].size();
    expected_caps = 2 * live_clients;
    expected_caps += result.recovered ? by_group[config.victim].size() : 0;
    if (!result.recovered) {
      expected_caps +=
          static_cast<uint64_t>(by_group[seed_group].size()) * config.orphan_caps;
    }
  } else {
    for (KernelId k = 0; k < platform.kernel_count(); ++k) {
      caps_now += platform.kernel(k)->caps().size();
    }
    expected_caps = 2ull * n;
  }
  CHECK_GE(caps_now, expected_caps) << "failover lost baseline capabilities";
  result.leaked_caps = caps_now - expected_caps;

  result.outcome.Harvest(&platform, config.setup);
  const KernelStats& stats = result.outcome.kernel_stats;
  result.orphan_roots = stats.ft_orphan_roots;
  result.pes_adopted = stats.ft_pes_adopted;
  result.edges_pruned = stats.ft_edges_pruned;
  result.ikcs_aborted = stats.ft_ikcs_aborted;
  result.suspicions = stats.ft_suspicions;
  result.heartbeats = stats.hb_sent;
  result.events = platform.sim().EventsRun();
  return result;
}

}  // namespace semperos
