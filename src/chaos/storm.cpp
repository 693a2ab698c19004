#include "chaos/storm.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/log.h"
#include "base/rng.h"
#include "core/protocol.h"
#include "core/userlib.h"
#include "fs/fs_image.h"
#include "system/platform.h"
#include "workloads/workloads.h"

namespace semperos {

namespace {

// Modeled costs of the trace steps that do not move capabilities: metadata
// requests (stat/mkdir/readdir) and the per-chunk data phase standing in
// for the DMA a real client would issue through its activated memory
// endpoint (an endpoint the storm may have invalidated under the client —
// a modeled DMA that can never complete would wedge the run, a compute
// phase cannot).
constexpr Cycles kMetaCost = 600;
constexpr Cycles kIoCostBase = 100;
constexpr uint64_t kIoBytesPerCycle = 64;

// Chance that an idle, live client acts in a round.
constexpr double kOpRate = 0.7;

// One storm client. In mixed mode it is a bare UserEnv the driver steers
// from the round loop; in trace mode it interprets its workload trace as
// the capability-operation stream the real m3fs path would issue (open =
// extent-0 obtain, extent crossing = another obtain, close/unlink = one
// revoke per handed extent) — but, unlike the strict TraceReplayer, it
// tolerates errors the way a crash-tolerant application would: a failed
// operation abandons the file and the trace moves on.
class StormClient : public Program {
 public:
  StormClient(NodeId kernel_node, const TimingModel& timing, bool arm_retry)
      : kernel_node_(kernel_node), timing_(timing), arm_retry_(arm_retry) {}

  void Setup() override {
    env_ = std::make_unique<UserEnv>(pe_, kernel_node_, timing_.ask_party);
    env_->SetupEps(/*is_service=*/false);
    if (arm_retry_) {
      env_->EnableSyscallRetry(UserEnv::kCrashWatchdogTimeout);
    }
  }
  void Start() override {}

  UserEnv& env() { return *env_; }

  // Driver-visible state.
  bool busy = false;
  bool dead = false;
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;
  // Every selector this client has ever seen; some go stale when chaos
  // revokes under us — the kernels must answer those with clean errors.
  std::vector<CapSel> sels;

  void SetTrace(Trace trace) { trace_ = std::move(trace); }
  void SetFileServer(VpeId vpe, CapSel root) {
    server_vpe_ = vpe;
    server_root_ = root;
  }

  // Executes the next trace operation; chains through its capability ops
  // and clears `busy` when the operation (or its abandonment) completed.
  void StepTrace() {
    CHECK(!busy && !dead);
    if (trace_pos_ >= trace_.ops.size()) {
      if (!files_.empty()) {
        // Loop boundary: tear down files the trace left open, one per step.
        busy = true;
        CloseSteps(files_.begin()->first);
        return;
      }
      trace_pos_ = 0;
    }
    const TraceOp& op = trace_.ops[trace_pos_++];
    std::string path(op.kind == TraceOpKind::kCompute ? std::string_view() : trace_.Path(op));
    switch (op.kind) {
      case TraceOpKind::kOpen:
        busy = true;
        OpenSteps(path);
        return;
      case TraceOpKind::kRead:
      case TraceOpKind::kWrite:
        busy = true;
        IoSteps(path, op.bytes());
        return;
      case TraceOpKind::kSeek: {
        auto it = files_.find(path);
        if (it != files_.end()) {
          it->second.cursor = op.offset();
        }
        return;  // cursor-only; never leaves the PE
      }
      case TraceOpKind::kClose:
        busy = true;
        CloseSteps(path);
        return;
      case TraceOpKind::kUnlink:
        busy = true;
        if (files_.count(path)) {
          CloseSteps(path);  // journal pattern: revokes immediately
        } else {
          MetaSteps();
        }
        return;
      case TraceOpKind::kStat:
      case TraceOpKind::kMkdir:
      case TraceOpKind::kReadDir:
        busy = true;
        MetaSteps();
        return;
      case TraceOpKind::kCompute:
        busy = true;
        env_->Compute(op.compute(), [this] { Finish(true); });
        return;
    }
  }

 private:
  struct OpenFile {
    std::vector<CapSel> handed;  // extent capabilities, obtain order
    uint64_t cursor = 0;
    uint64_t extent_start = 0;  // start of the extent `handed.back()` covers
    EpId ep = 0;
    bool has_ep = false;
  };

  void Finish(bool ok) {
    (ok ? ops_ok : ops_failed)++;
    busy = false;
  }

  // A failed mid-file operation: give up on the file without revoking.
  // The already-handed capabilities stay with this (alive) VPE — legal
  // forest state; they fall with the VPE or with a revocation from above.
  void Abandon(const std::string& path) {
    auto it = files_.find(path);
    if (it != files_.end()) {
      if (it->second.has_ep) {
        FreeEp(it->second.ep);
      }
      files_.erase(it);
    }
    Finish(false);
  }

  void OpenSteps(const std::string& path) {
    if (files_.count(path)) {
      Finish(true);  // replayed open after chaos rewound us; keep the file
      return;
    }
    env_->Obtain(server_vpe_, server_root_, [this, path](const SyscallReply& r) {
      if (r.err != ErrCode::kOk) {
        Finish(false);
        return;
      }
      OpenFile& f = files_[path];
      f.handed.push_back(r.sel);
      EpId ep = 0;
      if (AllocEp(&ep)) {
        f.ep = ep;
        f.has_ep = true;
        // Activate extent 0 so chaos-driven revocations also exercise
        // remote endpoint invalidation.
        env_->Activate(r.sel, ep, [this](const SyscallReply&) { Finish(true); });
        return;
      }
      Finish(true);
    });
  }

  void IoSteps(const std::string& path, uint64_t remaining) {
    auto it = files_.find(path);
    if (it == files_.end()) {
      Finish(false);  // file lost to chaos before/mid operation
      return;
    }
    if (remaining == 0) {
      Finish(true);
      return;
    }
    OpenFile& f = it->second;
    uint64_t extent_end = f.extent_start + kFsExtentBytes;
    if (f.cursor < f.extent_start || f.cursor >= extent_end) {
      // Extent crossing: one more obtain (paper §5.3.1 arithmetic).
      uint64_t start = f.cursor / kFsExtentBytes * kFsExtentBytes;
      env_->Obtain(server_vpe_, server_root_,
                   [this, path, remaining, start](const SyscallReply& r) {
                     auto it2 = files_.find(path);
                     if (it2 == files_.end()) {
                       Finish(false);
                       return;
                     }
                     if (r.err != ErrCode::kOk) {
                       Abandon(path);
                       return;
                     }
                     it2->second.handed.push_back(r.sel);
                     it2->second.extent_start = start;
                     IoSteps(path, remaining);
                   });
      return;
    }
    uint64_t chunk = std::min(remaining, extent_end - f.cursor);
    f.cursor += chunk;
    env_->Compute(kIoCostBase + chunk / kIoBytesPerCycle,
                  [this, path, remaining, chunk] { IoSteps(path, remaining - chunk); });
  }

  void CloseSteps(const std::string& path) {
    auto it = files_.find(path);
    if (it == files_.end()) {
      Finish(true);  // already gone (chaos beat us to it)
      return;
    }
    OpenFile& f = it->second;
    if (f.handed.empty()) {
      if (f.has_ep) {
        FreeEp(f.ep);
      }
      files_.erase(it);
      Finish(true);
      return;
    }
    CapSel sel = f.handed.back();
    f.handed.pop_back();
    // Revoke errors are tolerated: kNoSuchCap just means a recovery or a
    // parent revocation got there first — the extent is gone either way.
    env_->Revoke(sel, [this, path](const SyscallReply&) { CloseSteps(path); });
  }

  void MetaSteps() {
    env_->Compute(kMetaCost, [this] { Finish(true); });
  }

  bool AllocEp(EpId* ep) {
    for (uint32_t i = 0; i < user_ep::kNumMemEps; ++i) {
      if (!(eps_in_use_ & (1u << i))) {
        eps_in_use_ |= 1u << i;
        *ep = static_cast<EpId>(user_ep::kMem0 + i);
        return true;
      }
    }
    return false;
  }
  void FreeEp(EpId ep) { eps_in_use_ &= ~(1u << (ep - user_ep::kMem0)); }

  NodeId kernel_node_;
  TimingModel timing_;
  bool arm_retry_;
  std::unique_ptr<UserEnv> env_;

  Trace trace_;
  size_t trace_pos_ = 0;
  VpeId server_vpe_ = kInvalidVpe;
  CapSel server_root_ = kInvalidSel;
  std::map<std::string, OpenFile> files_;
  uint32_t eps_in_use_ = 0;
};

// Completion slot for one injected migration. Slots live in a deque so
// their addresses stay stable; each callback writes only its own slot.
struct MigSlot {
  NodeId node = kInvalidNode;
  bool done = false;
  ErrCode err = ErrCode::kOk;
};

}  // namespace

const char* StormWorkloadName(StormWorkload w) {
  switch (w) {
    case StormWorkload::kMixed:
      return "mixed";
    case StormWorkload::kNginx:
      return "nginx";
    case StormWorkload::kPostmark:
      return "postmark";
  }
  return "?";
}

StormResult RunStorm(const StormConfig& config) {
  CHECK_GE(config.kernels, 2u);
  CHECK_GE(config.users_per_kernel, 1u);
  CHECK_GE(config.rounds, 1u);
  CHECK_GE(config.settle_every, 1u);
  if (config.force_double_kill) {
    // Two kills must leave at least one survivor to refuse recovery.
    CHECK_GE(config.kernels, 3u);
  }

  Rng rng(config.seed);
  TimingModel timing = TimingModel::SemperOs();
  PlatformConfig pc;
  pc.kernels = config.kernels;
  pc.users = config.kernels * config.users_per_kernel;
  pc.timing = timing;
  config.setup.ApplyTo(&pc);
  Platform p(pc);

  const uint32_t kills_budget =
      config.force_double_kill ? std::max(config.max_kills, 2u) : config.max_kills;
  const bool kills_possible = kills_budget > 0;

  std::vector<StormClient*> clients;
  for (NodeId node : p.user_nodes()) {
    NodeId kernel_node = p.kernel_node(p.membership().KernelOf(node));
    auto client = std::make_unique<StormClient>(kernel_node, timing, kills_possible);
    clients.push_back(client.get());
    p.pe(node)->AttachProgram(std::move(client));
  }
  const uint32_t n = pc.users;

  std::vector<std::vector<uint32_t>> by_group(config.kernels);
  for (uint32_t i = 0; i < n; ++i) {
    by_group[p.membership().KernelOf(p.user_nodes()[i])].push_back(i);
  }

  p.Boot();

  std::vector<CapSel> roots(n);
  for (uint32_t i = 0; i < n; ++i) {
    VpeId vpe = p.user_nodes()[i];
    roots[i] =
        p.kernel_of(vpe)->AdminGrantMem(vpe, p.mem_nodes().at(0), 0, 1 << 20, kPermRW);
    clients[i]->sels.push_back(roots[i]);
  }

  // Trace wiring: the file-owner of group g is its first client; clients of
  // group g replay against the owner of the NEXT group, so every open and
  // extent obtain crosses kernels. Owners are excluded from churn so trace
  // storms keep producing exchanges after every kill.
  std::vector<uint8_t> is_owner(n, 0);
  if (config.workload != StormWorkload::kMixed) {
    for (KernelId g = 0; g < config.kernels; ++g) {
      uint32_t owner = by_group[(g + 1) % config.kernels].front();
      is_owner[owner] = 1;
      for (uint32_t i : by_group[g]) {
        clients[i]->SetFileServer(p.user_nodes()[owner], roots[owner]);
        clients[i]->SetTrace(config.workload == StormWorkload::kNginx
                                 ? MakeNginxRequestTrace()
                                 : MakeTrace("postmark", i));
      }
    }
  }

  StormResult result;
  std::deque<MigSlot> migs;
  bool failed = false;

  auto settle_and_audit = [&]() {
    p.RunToCompletion();
    AuditReport rep = AuditPlatform(p);
    result.audits_run++;
    bool ok = rep.ok();
    result.audit = std::move(rep);
    return ok;
  };

  std::vector<uint8_t> kill_scheduled(config.kernels, 0);
  // A kernel that died without a quorum verdict legally wedges every
  // cross-kernel protocol that needs it; a migration epoch handoff would
  // spin on quiesce forever. Migrations stay fenced off while such a
  // corpse exists (safety envelope, docs/testing.md).
  auto unrecovered_dead = [&]() {
    for (KernelId k = 0; k < config.kernels; ++k) {
      if (p.KernelDead(k) && !p.KernelFailed(k)) {
        return true;
      }
    }
    return false;
  };
  auto live_unscheduled = [&]() {
    std::vector<KernelId> v;
    for (KernelId k = 0; k < config.kernels; ++k) {
      if (!p.KernelDead(k) && !kill_scheduled[k]) {
        v.push_back(k);
      }
    }
    return v;
  };

  auto start_migration = [&](NodeId node) {
    KernelId owner = p.membership().KernelOf(node);
    std::vector<KernelId> dsts;
    for (KernelId k = 0; k < config.kernels; ++k) {
      if (k != owner && !p.KernelDead(k) && !kill_scheduled[k]) {
        dsts.push_back(k);
      }
    }
    if (dsts.empty()) {
      return false;
    }
    KernelId dst = dsts[rng.NextBelow(dsts.size())];
    migs.push_back(MigSlot{node, false, ErrCode::kOk});
    MigSlot* slot = &migs.back();
    result.migrations_started++;
    p.MigratePe(node, dst, [slot](ErrCode err) {
      slot->err = err;
      slot->done = true;
    });
    return true;
  };

  // A node is eligible for migration/churn only if its owner kernel is live
  // (and not about to die), the VPE is alive and not frozen, and no
  // migration of it is already in flight.
  auto stable_vpe = [&](uint32_t i) {
    if (clients[i]->dead) {
      return false;
    }
    NodeId node = p.user_nodes()[i];
    KernelId owner = p.membership().KernelOf(node);
    if (owner >= config.kernels || p.KernelDead(owner) || kill_scheduled[owner]) {
      return false;
    }
    const VpeState* vpe = p.kernel(owner)->FindVpe(node);
    if (vpe == nullptr || !vpe->alive || vpe->migrating) {
      return false;
    }
    for (const MigSlot& slot : migs) {
      if (slot.node == node && !slot.done) {
        return false;
      }
    }
    return true;
  };

  // ---- Targeted prelude: live migration launched mid-revocation ----
  if (config.force_migration_during_revoke && !failed) {
    // Copies of client A's root fan out to the first client of every other
    // group; A then revokes the root — a cross-kernel recursive revocation
    // — and one holder's PE migrates while the revocation is in flight.
    uint32_t a = by_group[0].front();
    uint32_t b = by_group[1 % config.kernels].front();
    for (KernelId g = 1; g < config.kernels; ++g) {
      StormClient* holder = clients[by_group[g].front()];
      holder->busy = true;
      holder->env().Obtain(p.user_nodes()[a], roots[a], [holder](const SyscallReply& r) {
        if (r.err == ErrCode::kOk) {
          holder->sels.push_back(r.sel);
        }
        (r.err == ErrCode::kOk ? holder->ops_ok : holder->ops_failed)++;
        holder->busy = false;
      });
      p.RunToCompletion();
    }
    StormClient* revoker = clients[a];
    revoker->busy = true;
    revoker->env().Revoke(roots[a], [revoker](const SyscallReply& r) {
      (r.err == ErrCode::kOk ? revoker->ops_ok : revoker->ops_failed)++;
      revoker->busy = false;
    });
    p.sim().RunUntil(p.sim().Now() + rng.NextInRange(50, 900));
    if (stable_vpe(b)) {
      start_migration(p.user_nodes()[b]);
    }
    failed = !settle_and_audit();
  }

  // ---- Storm rounds ----
  uint32_t kills_left = kills_budget;
  uint32_t migs_left = config.max_migrations;
  uint32_t churn_left = config.max_churn;
  const uint32_t majority = config.kernels / 2 + 1;
  // Per-round slice span (matches the property-fuzz cadence) and the
  // resulting burst horizon the detector window must cover.
  const Cycles burst_span = static_cast<Cycles>(config.settle_every) * 3400;
  bool burst_has_kills = false;

  for (uint32_t round = 0; round < config.rounds && !failed; ++round) {
    if (round % config.settle_every == 0) {
      // Burst planning: decide this burst's kills and arm the detector
      // with (possibly perturbed) heartbeat timing covering them.
      burst_has_kills = false;
      uint32_t planned = 0;
      if (config.force_double_kill && round == 0) {
        planned = 2;
      } else if (kills_left > 0 && rng.NextBool(0.6)) {
        planned = 1;
      }
      if (planned > 0) {
        Cycles now = p.sim().Now();
        FtConfig ft;
        if (config.perturb_heartbeats) {
          const FtConfig base;
          ft.heartbeat_period =
              rng.NextInRange(base.heartbeat_period / 2, base.heartbeat_period * 2);
          ft.heartbeat_timeout = std::max<Cycles>(
              3 * ft.heartbeat_period,
              rng.NextInRange(base.heartbeat_timeout / 2, base.heartbeat_timeout * 2));
        }
        const Cycles timeout = ft.heartbeat_timeout;
        ft.monitor_until = now + burst_span + 4 * timeout + 1'000'000;
        ft.bug_skip_orphan_revoke = config.bug_skip_orphan_revoke;
        p.StartFailureDetector(ft);
        for (uint32_t j = 0; j < planned && kills_left > 0; ++j) {
          std::vector<KernelId> cands = live_unscheduled();
          // Quorum envelope: a majority of the configured kernels must
          // survive — except for the targeted double kill, whose point is
          // that the survivors refuse.
          if (!config.force_double_kill && cands.size() <= majority) {
            break;
          }
          if (cands.size() <= 1) {
            break;
          }
          KernelId victim = cands[rng.NextBelow(cands.size())];
          kill_scheduled[victim] = 1;
          Cycles at = now + rng.NextInRange(200, burst_span + timeout);
          p.KillKernelAt(victim, at);
          result.kills++;
          kills_left--;
          burst_has_kills = true;
        }
      }
    }

    // Drive the workload.
    for (uint32_t i = 0; i < n; ++i) {
      StormClient* client = clients[i];
      if (client->busy || client->dead || !rng.NextBool(kOpRate)) {
        continue;
      }
      if (config.workload != StormWorkload::kMixed) {
        client->StepTrace();
        continue;
      }
      uint32_t peer = static_cast<uint32_t>(rng.NextBelow(n));
      if (peer == i || clients[peer]->dead) {
        continue;
      }
      CapSel sel = client->sels[rng.NextBelow(client->sels.size())];
      CapSel peer_sel = clients[peer]->sels[rng.NextBelow(clients[peer]->sels.size())];
      client->busy = true;
      auto release = [client](const SyscallReply& r) {
        (r.err == ErrCode::kOk ? client->ops_ok : client->ops_failed)++;
        client->busy = false;
      };
      auto keep = [client](const SyscallReply& r) {
        if (r.err == ErrCode::kOk) {
          client->sels.push_back(r.sel);
          client->ops_ok++;
        } else {
          client->ops_failed++;
        }
        client->busy = false;
      };
      switch (rng.NextBelow(4)) {
        case 0:
          client->env().Obtain(p.user_nodes()[peer], peer_sel, keep);
          break;
        case 1:
          client->env().Delegate(sel, p.user_nodes()[peer], release);
          break;
        case 2:
          client->env().Revoke(sel, release);
          break;
        case 3:
          client->env().DeriveMem(sel, 0, 64, kPermR, keep);
          break;
      }
    }

    // Live migration injection. Kept out of kill bursts: a takeover and a
    // membership handoff racing on the same epoch stream is outside the
    // storm's safety envelope (docs/testing.md).
    if (migs_left > 0 && !burst_has_kills && rng.NextBool(0.35)) {
      uint32_t i = static_cast<uint32_t>(rng.NextBelow(n));
      if (!unrecovered_dead() && stable_vpe(i) && start_migration(p.user_nodes()[i])) {
        migs_left--;
      }
    }

    // Client churn: a VPE dies with operations possibly in flight.
    if (churn_left > 0 && rng.NextBool(0.2)) {
      uint32_t i = static_cast<uint32_t>(rng.NextBelow(n));
      if (!is_owner[i] && stable_vpe(i)) {
        StormClient* victim = clients[i];
        victim->dead = true;
        churn_left--;
        result.churn_kills++;
        p.kernel_of(p.user_nodes()[i])->AdminKillVpe(p.user_nodes()[i], nullptr);
      }
    }

    // Let a random amount of simulated time pass so everything above
    // interleaves at many different points.
    p.sim().RunUntil(p.sim().Now() + 200 + rng.NextBelow(3000));
    result.rounds_run = round + 1;

    if ((round + 1) % config.settle_every == 0 || round + 1 == config.rounds) {
      failed = !settle_and_audit();
      // Every kill scheduled this burst has fired by quiescence.
      std::fill(kill_scheduled.begin(), kill_scheduled.end(), 0);
    }
  }

  for (StormClient* client : clients) {
    result.ops_ok += client->ops_ok;
    result.ops_failed += client->ops_failed;
  }
  for (const MigSlot& slot : migs) {
    result.migrations_ok += slot.done && slot.err == ErrCode::kOk ? 1 : 0;
  }
  result.end_time = p.sim().Now();
  result.events = p.sim().EventsRun();
  result.outcome.Harvest(&p, config.setup);
  result.recovery_refused = result.outcome.kernel_stats.ft_refusals > 0;
  result.ok = !failed;
  return result;
}

std::string StormResult::Summary() const {
  std::ostringstream os;
  os << (ok ? "storm OK" : "storm AUDIT FAILED") << ": rounds=" << rounds_run
     << " audits=" << audits_run << " ops=" << ops_ok << "/" << ops_ok + ops_failed
     << " kills=" << kills << (recovery_refused ? " (recovery refused)" : "")
     << " migrations=" << migrations_ok << "/" << migrations_started
     << " churn=" << churn_kills << " end=" << end_time << " events=" << events;
  return os.str();
}

StormConfig ShrinkStorm(const StormConfig& failing, uint32_t* attempts) {
  uint32_t tries = 0;
  auto still_fails = [&tries](const StormConfig& config) {
    tries++;
    return !RunStorm(config).ok;
  };
  StormConfig best = failing;
  best.setup.trace_out.clear();
  best.setup.metrics_out.clear();
  CHECK(still_fails(best)) << "ShrinkStorm needs a failing config: " << ReproCommand(best);

  // Greedy fixpoint: try mutations cheapest-win first, keep any that still
  // fails, restart. Seed and workload are the repro's identity and never
  // change; the bound keeps shrinking affordable for big storms.
  constexpr uint32_t kMaxTries = 48;
  bool progress = true;
  while (progress && tries < kMaxTries) {
    progress = false;
    std::vector<StormConfig> cands;
    if (best.rounds > 1) {
      StormConfig c = best;
      c.rounds = std::max<uint32_t>(1, best.rounds / 2);
      c.settle_every = std::min(c.settle_every, c.rounds);
      cands.push_back(c);
    }
    if (best.users_per_kernel > 1) {
      StormConfig c = best;
      c.users_per_kernel = best.users_per_kernel / 2;
      cands.push_back(c);
    }
    if (best.max_churn > 0) {
      StormConfig c = best;
      c.max_churn = 0;
      cands.push_back(c);
    }
    if (best.max_migrations > 0 && !best.force_migration_during_revoke) {
      StormConfig c = best;
      c.max_migrations = 0;
      cands.push_back(c);
    }
    if (best.perturb_heartbeats) {
      StormConfig c = best;
      c.perturb_heartbeats = false;
      cands.push_back(c);
    }
    if (best.max_kills > 1 && !best.force_double_kill) {
      StormConfig c = best;
      c.max_kills = 1;
      cands.push_back(c);
    }
    if (best.max_kills > 0 && !best.force_double_kill) {
      StormConfig c = best;
      c.max_kills = 0;
      cands.push_back(c);
    }
    for (const StormConfig& c : cands) {
      if (tries >= kMaxTries) {
        break;
      }
      if (still_fails(c)) {
        best = c;
        progress = true;
        break;
      }
    }
  }
  if (attempts != nullptr) {
    *attempts = tries;
  }
  return best;
}

std::string ReproCommand(const StormConfig& config) {
  std::ostringstream os;
  os << "semperos_sim chaos --seed=" << config.seed << " --kernels=" << config.kernels
     << " --users=" << config.users_per_kernel << " --rounds=" << config.rounds
     << " --settle=" << config.settle_every
     << " --workload=" << StormWorkloadName(config.workload) << " --kills=" << config.max_kills
     << " --migrations=" << config.max_migrations << " --churn=" << config.max_churn;
  if (!config.perturb_heartbeats) {
    os << " --hb-perturb=0";
  }
  if (config.force_migration_during_revoke) {
    os << " --mig-revoke";
  }
  if (config.force_double_kill) {
    os << " --double-kill";
  }
  if (config.bug_skip_orphan_revoke) {
    os << " --inject-bug";
  }
  return os.str();
}

}  // namespace semperos
