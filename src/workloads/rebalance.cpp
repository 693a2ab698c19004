#include "workloads/rebalance.h"

#include <algorithm>
#include <memory>

#include "base/log.h"
#include "core/userlib.h"
#include "system/platform.h"

namespace semperos {

namespace {

// One closed-loop client: obtain the peer's root capability (always in
// another group), revoke the obtained copy, think, repeat. Migration is
// invisible here — frozen syscalls and exchanges on moving partitions come
// back as kVpeMigrating and the UserEnv retries them transparently.
class RebalanceClient : public Program {
 public:
  RebalanceClient(NodeId kernel_node, const TimingModel& timing, uint32_t ops, Cycles think)
      : kernel_node_(kernel_node), timing_(timing), ops_(ops), think_(think) {}

  void SetPeer(VpeId peer, CapSel peer_sel) {
    peer_ = peer;
    peer_sel_ = peer_sel;
  }

  void Setup() override {
    env_ = std::make_unique<UserEnv>(pe_, kernel_node_, timing_.ask_party);
    env_->SetupEps(/*is_service=*/false);
  }

  void Start() override { NextOp(); }

  bool finished() const { return done_ops_ >= ops_; }
  uint64_t done_ops() const { return done_ops_; }
  uint64_t retries() const { return env_->syscall_retries(); }
  // Client-local completion timestamps: shards run on different worker
  // threads, so a shared vector would race. Merged by the runner; every
  // consumer is order-insensitive (window counts and a max).
  const std::vector<Cycles>& completions() const { return completions_; }

 private:
  void NextOp() {
    if (done_ops_ >= ops_) {
      return;
    }
    env_->Obtain(peer_, peer_sel_, [this](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "rebalance obtain failed: " << ErrName(r.err);
      env_->Revoke(r.sel, [this](const SyscallReply& r2) {
        CHECK(r2.err == ErrCode::kOk) << "rebalance revoke failed: " << ErrName(r2.err);
        done_ops_++;
        completions_.push_back(pe_->sim()->Now());
        env_->Compute(think_, [this] { NextOp(); });
      });
    });
  }

  NodeId kernel_node_;
  TimingModel timing_;
  uint32_t ops_;
  Cycles think_;
  std::vector<Cycles> completions_;
  std::unique_ptr<UserEnv> env_;
  VpeId peer_ = kInvalidVpe;
  CapSel peer_sel_ = kInvalidSel;
  uint64_t done_ops_ = 0;
};

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

WindowRates RatesAround(const std::vector<Cycles>& completions, Cycles from, Cycles to) {
  Cycles window = to > from ? to - from : 1;
  WindowRates rates;
  rates.before = WindowRate(completions, from > window ? from - window : 0, from);
  rates.during = WindowRate(completions, from, to);
  rates.after = WindowRate(completions, to, to + window);
  return rates;
}

RebalanceResult RunRebalance(const RebalanceConfig& config) {
  CHECK_GE(config.kernels, 2u);
  CHECK_GE(config.users_per_kernel, 1u);
  CHECK_LE(config.migrate_pes, config.users_per_kernel);

  TimingModel timing = TimingModel::SemperOs();
  PlatformConfig pc;
  pc.kernels = config.kernels;
  pc.users = config.kernels * config.users_per_kernel;
  pc.timing = timing;
  config.setup.ApplyTo(&pc);
  Platform platform(pc);

  std::vector<RebalanceClient*> clients;
  for (NodeId node : platform.user_nodes()) {
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto client = std::make_unique<RebalanceClient>(kernel_node, timing, config.ops_per_client,
                                                    config.think_time);
    clients.push_back(client.get());
    platform.pe(node)->AttachProgram(std::move(client));
  }

  // Grant every client a root capability and pair it with a client one
  // group over, so every operation in the loop spans kernels.
  uint32_t n = static_cast<uint32_t>(clients.size());
  std::vector<CapSel> roots(n);
  for (uint32_t i = 0; i < n; ++i) {
    VpeId vpe = platform.user_nodes()[i];
    roots[i] =
        platform.kernel_of(vpe)->AdminGrantMem(vpe, platform.mem_nodes().at(0), 0, 1 << 20,
                                               kPermRW);
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t peer = (i + config.users_per_kernel) % n;
    clients[i]->SetPeer(platform.user_nodes()[peer], roots[peer]);
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

  // Merge the per-client completion timestamps (see RebalanceClient).
  std::vector<Cycles> completions;
  for (RebalanceClient* client : clients) {
    completions.insert(completions.end(), client->completions().begin(),
                       client->completions().end());
  }

  RebalanceResult result;
  result.migrations_requested = config.migrate ? config.migrate_pes : 0;
  for (uint32_t i = 0; i < n; ++i) {
    RebalanceClient* client = clients[i];
    CHECK(client->finished()) << "rebalance client " << i << " stalled at " << client->done_ops()
                              << "/" << config.ops_per_client << " ops (retries "
                              << client->retries() << ")";
    result.total_ops += client->done_ops();
    result.client_retries += client->retries();
  }
  Cycles last = run_start;
  for (Cycles t : completions) {
    last = std::max(last, t);
  }
  result.makespan = last - run_start;
  if (result.makespan > 0) {
    result.ops_per_sec = static_cast<double>(result.total_ops) / CyclesToSeconds(result.makespan);
  }

  if (config.migrate) {
    result.migration_start = tracker->start;
    result.migration_end = tracker->end;
    result.migration_latency_max = tracker->max_latency;
    WindowRates rates = RatesAround(completions, tracker->start, tracker->end);
    result.ops_per_sec_before = rates.before;
    result.ops_per_sec_during = rates.during;
    result.ops_per_sec_after = rates.after;
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
