#include "workloads/failover.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "base/log.h"
#include "core/userlib.h"
#include "system/platform.h"
#include "workloads/rebalance.h"

namespace semperos {

namespace {

// One failover client. Two phases:
//   Seed — (clients of the group next to the victim only) obtain
//          `orphan_caps` capabilities from the victim-group partner and
//          keep them, activating the first few on memory endpoints. These
//          become the orphaned subtrees the recovery must revoke.
//   Loop — closed loop of obtain(surviving peer) + revoke(copy) + think.
//          Errors end the attempt (counted) instead of the client: a crash
//          turns in-flight calls into kUnreachable/kNoSuchCap replies, and
//          a stranded client's calls resume through the crash watchdog once
//          a survivor adopted its PE.
class FailoverClient : public Program {
 public:
  FailoverClient(NodeId kernel_node, const TimingModel& timing, const FailoverConfig& config)
      : kernel_node_(kernel_node), timing_(timing), config_(config) {}

  void SetLoopPeer(VpeId peer, CapSel peer_sel) {
    loop_peer_ = peer;
    loop_peer_sel_ = peer_sel;
  }
  void SetSeedPeer(VpeId peer, CapSel peer_sel) {
    seed_peer_ = peer;
    seed_peer_sel_ = peer_sel;
  }

  void Setup() override {
    env_ = std::make_unique<UserEnv>(pe_, kernel_node_, timing_.ask_party);
    env_->SetupEps(/*is_service=*/false);
    if (config_.kill) {
      env_->EnableSyscallRetry(config_.retry_timeout, config_.retry_max);
    }
  }

  void Start() override {
    if (seed_peer_ != kInvalidVpe && config_.orphan_caps > 0) {
      SeedNext();
    } else {
      NextOp();
    }
  }

  bool finished() const { return ops_ok_ + ops_failed_ >= config_.ops_per_client; }
  uint64_t ops_ok() const { return ops_ok_; }
  uint64_t ops_failed() const { return ops_failed_; }
  uint64_t ops_ok_after(Cycles t) const {
    uint64_t n = 0;
    for (Cycles c : own_completions_) {
      n += c >= t ? 1 : 0;
    }
    return n;
  }
  uint64_t retries() const { return env_->syscall_retries(); }
  const std::vector<CapSel>& seed_sels() const { return seed_sels_; }
  const std::vector<EpId>& seed_eps() const { return seed_eps_; }
  // Completion timestamps stay client-local: under the sharded engine the
  // clients run on different worker threads, so a shared vector would race.
  // The runner merges them after the run (every consumer is
  // order-insensitive: window counts and a max).
  const std::vector<Cycles>& completions() const { return own_completions_; }

 private:
  void SeedNext() {
    if (seed_sels_.size() >= config_.orphan_caps) {
      NextOp();
      return;
    }
    env_->Obtain(seed_peer_, seed_peer_sel_, [this](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "failover seed obtain failed: " << ErrName(r.err)
                                   << " (seed before the kill must succeed)";
      seed_sels_.push_back(r.sel);
      if (seed_eps_.size() < config_.activate_caps) {
        EpId ep = user_ep::kMem0 + static_cast<EpId>(seed_eps_.size());
        seed_eps_.push_back(ep);
        env_->Activate(r.sel, ep, [this](const SyscallReply& r2) {
          CHECK(r2.err == ErrCode::kOk) << "failover seed activate failed: " << ErrName(r2.err);
          SeedNext();
        });
        return;
      }
      SeedNext();
    });
  }

  void NextOp() {
    if (finished()) {
      return;
    }
    env_->Obtain(loop_peer_, loop_peer_sel_, [this](const SyscallReply& r) {
      if (r.err != ErrCode::kOk) {
        FinishAttempt(false);
        return;
      }
      env_->Revoke(r.sel, [this](const SyscallReply& r2) {
        // kNoSuchCap: the copy was created at the old kernel and died with
        // it — from the application's view the revoke is trivially done.
        FinishAttempt(r2.err == ErrCode::kOk || r2.err == ErrCode::kNoSuchCap);
      });
    });
  }

  void FinishAttempt(bool ok) {
    if (ok) {
      ops_ok_++;
      own_completions_.push_back(pe_->sim()->Now());
    } else {
      ops_failed_++;
    }
    env_->Compute(config_.think_time, [this] { NextOp(); });
  }

  NodeId kernel_node_;
  TimingModel timing_;
  FailoverConfig config_;
  std::unique_ptr<UserEnv> env_;
  VpeId loop_peer_ = kInvalidVpe;
  CapSel loop_peer_sel_ = kInvalidSel;
  VpeId seed_peer_ = kInvalidVpe;
  CapSel seed_peer_sel_ = kInvalidSel;
  std::vector<CapSel> seed_sels_;
  std::vector<EpId> seed_eps_;
  std::vector<Cycles> own_completions_;
  uint64_t ops_ok_ = 0;
  uint64_t ops_failed_ = 0;
};

}  // namespace

FailoverResult RunFailover(const FailoverConfig& config) {
  CHECK_GE(config.kernels, 2u);
  CHECK_GE(config.users_per_kernel, 1u);
  CHECK_LT(config.victim, config.kernels);
  CHECK_LE(config.activate_caps, config.orphan_caps);
  CHECK_LE(config.activate_caps, user_ep::kNumMemEps);

  TimingModel timing = TimingModel::SemperOs();
  PlatformConfig pc;
  pc.kernels = config.kernels;
  pc.users = config.kernels * config.users_per_kernel;
  pc.timing = timing;
  config.setup.ApplyTo(&pc);
  Platform platform(pc);

  std::vector<FailoverClient*> clients;
  for (NodeId node : platform.user_nodes()) {
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto client = std::make_unique<FailoverClient>(kernel_node, timing, config);
    clients.push_back(client.get());
    platform.pe(node)->AttachProgram(std::move(client));
  }

  // Root capabilities, one per client; the per-group client lists let the
  // pairing below be explicit about groups.
  uint32_t n = static_cast<uint32_t>(clients.size());
  std::vector<CapSel> roots(n);
  std::vector<std::vector<uint32_t>> by_group(config.kernels);
  for (uint32_t i = 0; i < n; ++i) {
    VpeId vpe = platform.user_nodes()[i];
    roots[i] = platform.kernel_of(vpe)->AdminGrantMem(vpe, platform.mem_nodes().at(0), 0, 1 << 20,
                                                      kPermRW);
    by_group[platform.membership().KernelOf(vpe)].push_back(i);
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
    ft.heartbeat_period = config.hb_period;
    ft.heartbeat_timeout = config.hb_timeout;
    ft.monitor_until = kill_time + config.monitor_slack;
    platform.StartFailureDetector(ft);
    platform.KillKernelAt(config.victim, kill_time);
  }
  platform.RunToCompletion();

  // Merge the per-client completion timestamps (see FailoverClient): all
  // consumers below are order-insensitive, so a plain concatenation is
  // equivalent to the old shared, shard-unsafe vector.
  std::vector<Cycles> completions;
  for (FailoverClient* client : clients) {
    completions.insert(completions.end(), client->completions().begin(),
                       client->completions().end());
  }

  FailoverResult result;
  result.kill_time = kill_time;
  for (uint32_t i = 0; i < n; ++i) {
    FailoverClient* client = clients[i];
    CHECK(client->finished()) << "failover client " << i << " stalled at "
                              << client->ops_ok() + client->ops_failed() << "/"
                              << config.ops_per_client << " attempts (retries "
                              << client->retries() << ")";
    result.total_ops += client->ops_ok();
    result.failed_ops += client->ops_failed();
    result.client_retries += client->retries();
  }
  if (config.kill) {
    for (uint32_t idx : by_group[config.victim]) {
      result.adopted_ops += clients[idx]->ops_ok();
      result.adopted_ops_post_kill += clients[idx]->ops_ok_after(kill_time);
    }
  }
  Cycles last = run_start;
  for (Cycles t : completions) {
    last = std::max(last, t);
  }
  result.makespan = last - run_start;
  if (result.makespan > 0) {
    result.ops_per_sec = static_cast<double>(result.total_ops) / CyclesToSeconds(result.makespan);
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
      WindowRates rates = RatesAround(completions, kill_time, last_recovered);
      result.ops_per_sec_before = rates.before;
      result.ops_per_sec_during = rates.during;
      result.ops_per_sec_after = rates.after;
    }

    // Seeded orphans must be gone (revoked by recovery) and their activated
    // endpoints invalidated.
    KernelId seed_group = (config.victim + 1) % config.kernels;
    for (uint32_t idx : by_group[seed_group]) {
      FailoverClient* client = clients[idx];
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
