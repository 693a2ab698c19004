#include "workloads/rebalance.h"

#include <algorithm>
#include <memory>

#include "base/log.h"

namespace semperos {

void LoopClient::Setup() {
  env_ = std::make_unique<UserEnv>(pe_, kernel_node_, ask_cost_);
  env_->SetupEps(/*is_service=*/false);
  if (params_.crash_watchdog) {
    env_->EnableSyscallRetry(UserEnv::kCrashWatchdogTimeout);
  }
}

void LoopClient::Start() {
  if (seed_peer_ != kInvalidVpe && params_.seed_caps > 0) {
    SeedNext();
  } else {
    NextOp();
  }
}

void LoopClient::SeedNext() {
  if (seed_sels_.size() >= params_.seed_caps) {
    NextOp();
    return;
  }
  env_->Obtain(seed_peer_, seed_peer_sel_, [this](const SyscallReply& r) {
    CHECK(r.err == ErrCode::kOk) << "seed obtain failed: " << ErrName(r.err)
                                 << " (seed before the kill must succeed)";
    seed_sels_.push_back(r.sel);
    if (seed_eps_.size() < params_.activate_caps) {
      EpId ep = user_ep::kMem0 + static_cast<EpId>(seed_eps_.size());
      seed_eps_.push_back(ep);
      env_->Activate(r.sel, ep, [this](const SyscallReply& r2) {
        CHECK(r2.err == ErrCode::kOk) << "seed activate failed: " << ErrName(r2.err);
        SeedNext();
      });
      return;
    }
    SeedNext();
  });
}

void LoopClient::NextOp() {
  if (finished()) {
    return;
  }
  env_->Obtain(loop_peer_, loop_peer_sel_, [this](const SyscallReply& r) {
    if (r.err != ErrCode::kOk) {
      FinishAttempt(false);
      return;
    }
    env_->Revoke(r.sel, [this](const SyscallReply& r2) {
      // kNoSuchCap with the crash watchdog armed: the copy was created at a
      // kernel that died since — from the application's view the revoke is
      // trivially done. Without a crash, a copy missing at revoke was lost.
      bool crash_gone = params_.crash_watchdog && r2.err == ErrCode::kNoSuchCap;
      FinishAttempt(r2.err == ErrCode::kOk || crash_gone);
    });
  });
}

void LoopClient::FinishAttempt(bool ok) {
  if (ok) {
    ops_ok_++;
    completions_.push_back(pe_->sim()->Now());
  } else {
    ops_failed_++;
  }
  env_->Compute(kThinkTime, [this] { NextOp(); });
}

LoopRig MakeLoopRig(uint32_t kernels, uint32_t users_per_kernel, const RunSetup& setup,
                    const LoopClient::Params& params) {
  TimingModel timing = TimingModel::SemperOs();
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = kernels * users_per_kernel;
  pc.timing = timing;
  setup.ApplyTo(&pc);
  LoopRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  Platform& platform = *rig.platform;
  for (NodeId node : platform.user_nodes()) {
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto client = std::make_unique<LoopClient>(kernel_node, timing.ask_party, params);
    rig.clients.push_back(client.get());
    platform.pe(node)->AttachProgram(std::move(client));
  }
  for (VpeId vpe : platform.user_nodes()) {
    rig.roots.push_back(platform.kernel_of(vpe)->AdminGrantMem(vpe, platform.mem_nodes().at(0),
                                                               0, 1 << 20, kPermRW));
  }
  return rig;
}

void LoopRig::Tally(Cycles run_start, const char* workload, LoopResult* result) {
  Cycles last = run_start;
  for (size_t i = 0; i < clients.size(); ++i) {
    const LoopClient* client = clients[i];
    CHECK(client->finished()) << workload << " client " << i << " stalled at "
                              << client->ops_ok() + client->ops_failed()
                              << " attempts (retries " << client->retries() << ")";
    result->total_ops += client->ops_ok();
    result->failed_ops += client->ops_failed();
    result->client_retries += client->retries();
    for (Cycles t : client->completions()) {
      completions.push_back(t);
      last = std::max(last, t);
    }
  }
  result->makespan = last - run_start;
  if (result->makespan > 0) {
    result->ops_per_sec =
        static_cast<double>(result->total_ops) / CyclesToSeconds(result->makespan);
  }
}

namespace {

struct MigTracker {
  Cycles start = 0;
  Cycles end = 0;
  Cycles max_latency = 0;
};

// Drains the hot PEs one handoff after another, the way an elastic control
// loop would (concurrent drains of one kernel are legal but a rebalancer
// wants bounded churn).
void MigrateNext(Platform* platform, std::shared_ptr<std::vector<NodeId>> pes, size_t idx,
                 KernelId dst, std::shared_ptr<MigTracker> tracker) {
  if (idx >= pes->size()) {
    tracker->end = platform->sim().Now();
    return;
  }
  Cycles t0 = platform->sim().Now();
  platform->MigratePe((*pes)[idx], dst, [platform, pes, idx, dst, tracker, t0](ErrCode err) {
    CHECK(err == ErrCode::kOk) << "rebalance migration failed: " << ErrName(err);
    tracker->max_latency = std::max(tracker->max_latency, platform->sim().Now() - t0);
    MigrateNext(platform, pes, idx + 1, dst, tracker);
  });
}

// Completed ops inside [from, to) as a rate; zero-width windows yield 0.
double WindowRate(const std::vector<Cycles>& completions, Cycles from, Cycles to) {
  if (to <= from) {
    return 0;
  }
  uint64_t n = 0;
  for (Cycles t : completions) {
    if (t >= from && t < to) {
      ++n;
    }
  }
  return static_cast<double>(n) / CyclesToSeconds(to - from);
}

}  // namespace

void LoopRig::RatesAround(Cycles from, Cycles to, LoopResult* result) const {
  Cycles window = to > from ? to - from : 1;
  result->ops_per_sec_before = WindowRate(completions, from > window ? from - window : 0, from);
  result->ops_per_sec_during = WindowRate(completions, from, to);
  result->ops_per_sec_after = WindowRate(completions, to, to + window);
}

RebalanceResult RunRebalance(const RebalanceConfig& config) {
  CHECK_GE(config.kernels, 2u);
  CHECK_GE(config.users_per_kernel, 1u);
  CHECK_LE(config.migrate_pes, config.users_per_kernel);

  LoopClient::Params params;
  params.attempts = config.ops_per_client;
  LoopRig rig = MakeLoopRig(config.kernels, config.users_per_kernel, config.setup, params);
  Platform& platform = *rig.platform;

  // Pair every client with a client one group over, so every operation in
  // the loop spans kernels.
  uint32_t n = static_cast<uint32_t>(rig.clients.size());
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t peer = (i + config.users_per_kernel) % n;
    rig.clients[i]->SetLoopPeer(platform.user_nodes()[peer], rig.roots[peer]);
  }

  platform.Boot();
  Cycles run_start = platform.sim().Now();

  auto tracker = std::make_shared<MigTracker>();
  if (config.migrate) {
    auto pes = std::make_shared<std::vector<NodeId>>();
    for (NodeId node : platform.user_nodes()) {
      if (platform.membership().KernelOf(node) == 0 && pes->size() < config.migrate_pes) {
        pes->push_back(node);
      }
    }
    Platform* p = &platform;
    // Scheduled after Boot(): the staged boot runs the simulation to idle,
    // which would otherwise trigger the rebalancer mid-boot.
    Cycles when = std::max(run_start + 1, config.migrate_at);
    platform.sim().ScheduleAt(when, [p, pes, tracker] {
      tracker->start = p->sim().Now();
      MigrateNext(p, pes, 0, p->kernel_count() - 1, tracker);
    });
  }
  platform.RunToCompletion();

  RebalanceResult result;
  rig.Tally(run_start, "rebalance", &result);
  // Rebalancing must not cost the clients a single attempt.
  CHECK_EQ(result.failed_ops, 0u) << "rebalance: obtain+revoke attempts failed";
  result.migrations_requested = config.migrate ? config.migrate_pes : 0;

  if (config.migrate) {
    result.migration_start = tracker->start;
    result.migration_end = tracker->end;
    result.migration_latency_max = tracker->max_latency;
    rig.RatesAround(tracker->start, tracker->end, &result);
  }

  result.events = platform.sim().EventsRun();
  result.outcome.Harvest(&platform, config.setup);
  const KernelStats& stats = result.outcome.kernel_stats;
  result.migrations_completed = stats.migrations;
  result.forwarded_ikcs = stats.ikc_forwarded;
  result.frozen_syscalls = stats.syscalls_frozen;
  result.caps_migrated = stats.caps_migrated;

  // Every obtained copy was revoked, so only the baseline should remain:
  // one self capability plus one granted root per client.
  uint64_t caps_now = 0;
  for (KernelId k = 0; k < platform.kernel_count(); ++k) {
    caps_now += platform.kernel(k)->caps().size();
  }
  result.leaked_caps = caps_now - 2ull * n;
  return result;
}

}  // namespace semperos
