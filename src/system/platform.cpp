#include "system/platform.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

namespace {

// Shard-count ceiling for the parallel engine: eight row-bands saturate the
// barrier-to-work ratio on the platform sizes we model; beyond that the
// merged outboxes dominate.
constexpr uint32_t kMaxShards = 8;

uint32_t CeilSqrt(uint32_t n) {
  uint32_t r = static_cast<uint32_t>(std::sqrt(static_cast<double>(n)));
  while (r * r < n) {
    ++r;
  }
  return r;
}

}  // namespace

obs::TraceConfig ResolveTraceConfig(obs::TraceConfig requested) {
  if (requested.enabled) {
    return requested;  // explicit on: env-immune
  }
  // SEMPEROS_TRACE=0|1 switches any platform whose config left tracing
  // off — the CI bit-identity job's plumbing.
  if (const char* env = std::getenv("SEMPEROS_TRACE")) {
    if (*env != '\0') {
      char* end = nullptr;
      unsigned long parsed = std::strtoul(env, &end, 10);
      CHECK(end != env && *end == '\0' && parsed <= 1)
          << "SEMPEROS_TRACE must be 0 or 1, got '" << env << "'";
      requested.enabled = parsed != 0;
    }
  }
  return requested;
}

Platform::Platform(PlatformConfig config) : config_(std::move(config)) {
  CHECK_GE(config_.kernels, 1u);
  CHECK_LE(config_.kernels, Kernel::kMaxKernels);

  uint32_t total =
      config_.kernels + config_.services + config_.users + config_.loadgens + config_.mem_tiles;
  NocConfig noc_config;
  noc_config.model_contention = config_.noc_contention;
  noc_config.width = CeilSqrt(total);
  noc_config.height = (total + noc_config.width - 1) / noc_config.width;
  noc_ = std::make_unique<Noc>(sim_.legacy(), noc_config);

  // --- Parallel engine (sim/engine.h): shard the mesh into contiguous
  // --- row-bands. The partition is a function of the platform shape only —
  // --- never of the thread count — so modeled results are identical at any
  // --- threads >= 2. threads == 1 keeps the exact legacy path.
  uint32_t shard_count = std::min(kMaxShards, noc_config.height);
  if (config_.threads >= 2 && shard_count >= 2) {
    std::vector<std::unique_ptr<Simulation>> shards;
    shards.reserve(shard_count);
    for (uint32_t s = 0; s < shard_count; ++s) {
      shards.push_back(std::make_unique<Simulation>());
    }
    // The conservative lookahead: the cheapest cross-node NoC delivery, or
    // the remote endpoint-configuration continuation, whichever is sooner.
    Cycles lookahead = std::min<Cycles>(Noc::kMinCrossNodeLatency, Dtu::kConfigApplyCycles);
    sim_.InitParallel(std::move(shards), lookahead, config_.threads);

    shard_of_node_.resize(noc_->NodeCount());
    std::vector<Simulation*> node_sims(noc_->NodeCount());
    for (NodeId node = 0; node < noc_->NodeCount(); ++node) {
      uint32_t row = node / noc_config.width;
      uint32_t shard = static_cast<uint32_t>(
          (static_cast<uint64_t>(row) * shard_count) / noc_config.height);
      shard_of_node_[node] = shard;
      node_sims[node] = sim_.engine()->shard(shard);
    }
    noc_->AttachEngine(sim_.engine(), std::move(node_sims));
  }

  fabric_ = std::make_unique<DtuFabric>(noc_.get());
  membership_ = MembershipTable(noc_->NodeCount());

  // --- Observability (src/obs): one shared Tracer for the whole platform,
  // --- handed to every PE and the fabric below. Constructed before the PEs
  // --- so nothing ever observes a half-attached recorder.
  obs::TraceConfig trace_config = ResolveTraceConfig(config_.trace);
  if (trace_config.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(noc_->NodeCount(), trace_config);
    fabric_->set_tracer(tracer_.get());
  }

  // --- Layout: contiguous groups, one kernel each (paper §3.1) ---
  // Users/services/loadgens are distributed round-robin over kernels
  // ("distributing them equally", §5.3.2) but placed contiguously next to
  // their kernel so intra-group NoC traffic stays short.
  struct NodePlan {
    PeType type;
    KernelId kernel;
  };
  std::vector<NodePlan> plan;
  plan.reserve(noc_->NodeCount());
  kernel_nodes_.resize(config_.kernels);

  std::vector<std::vector<PeType>> group_members(config_.kernels);
  for (uint32_t s = 0; s < config_.services; ++s) {
    group_members[s % config_.kernels].push_back(PeType::kService);
  }
  for (uint32_t u = 0; u < config_.users; ++u) {
    group_members[u % config_.kernels].push_back(PeType::kUser);
  }
  for (uint32_t l = 0; l < config_.loadgens; ++l) {
    group_members[l % config_.kernels].push_back(PeType::kLoadGen);
  }

  for (KernelId k = 0; k < config_.kernels; ++k) {
    kernel_nodes_[k] = static_cast<NodeId>(plan.size());
    plan.push_back({PeType::kKernel, k});
    for (PeType type : group_members[k]) {
      plan.push_back({type, k});
    }
  }
  for (uint32_t m = 0; m < config_.mem_tiles; ++m) {
    plan.push_back({PeType::kMemory, 0});
  }
  // Pad the mesh remainder as (unused) memory tiles owned by kernel 0.
  while (plan.size() < noc_->NodeCount()) {
    plan.push_back({PeType::kMemory, 0});
  }

  for (NodeId node = 0; node < plan.size(); ++node) {
    membership_.Assign(node, plan[node].kernel);
  }

  // --- Instantiate PEs and kernels ---
  pes_.reserve(plan.size());
  for (NodeId node = 0; node < plan.size(); ++node) {
    pes_.push_back(std::make_unique<ProcessingElement>(SimForNode(node), fabric_.get(), node,
                                                       plan[node].type));
    pes_.back()->set_tracer(tracer_.get());
    switch (plan[node].type) {
      case PeType::kUser:
        user_nodes_.push_back(node);
        break;
      case PeType::kService:
        service_nodes_.push_back(node);
        break;
      case PeType::kLoadGen:
        loadgen_nodes_.push_back(node);
        break;
      case PeType::kMemory:
        if (mem_nodes_.size() < config_.mem_tiles) {
          mem_nodes_.push_back(node);
        }
        break;
      case PeType::kKernel:
        break;
    }
  }

  auto pe_types = std::make_shared<std::vector<PeType>>();
  pe_types->reserve(plan.size());
  for (const NodePlan& p : plan) {
    pe_types->push_back(p.type);
  }
  pe_types_ = std::move(pe_types);
  failed_kernels_.assign(config_.kernels, 0);

  kernels_.resize(config_.kernels);
  for (KernelId k = 0; k < config_.kernels; ++k) {
    Kernel::Config kc;
    kc.id = k;
    kc.timing = config_.timing;
    kc.membership = membership_;
    kc.kernel_nodes = kernel_nodes_;
    kc.max_inflight = config_.max_inflight;
    kc.revoke_batching = config_.revoke_batching;
    kc.pe_types = pe_types_;
    // Quorum leaders report decreed takeovers so the platform's own
    // membership copy (and kernel_of()) mirrors exactly what the kernels
    // applied — the plan travels with the callback, never recomputed from
    // a possibly divergent table copy.
    kc.on_failover = [this](KernelId dead, uint64_t epoch,
                            const std::vector<TakeoverAssignment>& takeover_plan) {
      if (failed_kernels_.at(dead) != 0) {
        return;
      }
      failed_kernels_[dead] = 1;
      for (const TakeoverAssignment& a : takeover_plan) {
        membership_.Apply(a.pe, a.new_owner, epoch);
      }
    };
    auto kernel = std::make_unique<Kernel>(std::move(kc));
    kernels_[k] = kernel.get();
    pes_[kernel_nodes_[k]]->AttachProgram(std::move(kernel));
  }

  // Register every VPE with its group's kernel.
  for (NodeId node : service_nodes_) {
    kernel_of(node)->AdminCreateVpe(node, /*is_service=*/true);
  }
  for (NodeId node : user_nodes_) {
    kernel_of(node)->AdminCreateVpe(node, /*is_service=*/false);
  }
  for (NodeId node : loadgen_nodes_) {
    kernel_of(node)->AdminCreateVpe(node, /*is_service=*/false);
  }

  // The timeline samples as the serial queue's clock passes each interval
  // boundary; it never stops a run, so it cannot move where a run ends.
  if (config_.timeline.enabled()) {
    CHECK_LT(config_.threads, 2u) << "the metrics timeline observes the serial engine only";
    timeline_ = std::make_unique<obs::MetricsTimeline>(config_.timeline);
    sim_.legacy()->SetTick(config_.timeline.interval, [this](Cycles boundary) {
      timeline_->Sample(boundary, TotalKernelStats());
    });
  }
}

Platform::~Platform() = default;

Platform::TrimPoolsLast::~TrimPoolsLast() { TrimMsgPools(); }

Simulation* Platform::SimForNode(NodeId node) {
  if (!sim_.parallel()) {
    return sim_.legacy();
  }
  return sim_.engine()->shard(shard_of_node_.at(node));
}

void Platform::Boot() {
  CHECK(!booted_);
  booted_ = true;

  // Stage 1: kernels.
  for (KernelId k = 0; k < config_.kernels; ++k) {
    pes_[kernel_nodes_[k]]->Boot();
  }
  sim_.RunUntilIdle();
  for (Kernel* kernel : kernels_) {
    CHECK(kernel->booted()) << "kernel " << kernel->id() << " failed boot handshake";
  }

  // Stage 2: endpoint setup for all user-level programs (pre-downgrade).
  for (auto& pe : pes_) {
    if (pe->type() != PeType::kKernel && pe->program() != nullptr) {
      pe->program()->Setup();
    }
  }

  // Stage 3: NoC-level isolation — kernels downgrade their group's DTUs.
  for (KernelId k = 0; k < config_.kernels; ++k) {
    std::vector<ProcessingElement*> group;
    for (auto& pe : pes_) {
      if (membership_.KernelOf(pe->node()) == k && pe->type() != PeType::kKernel) {
        group.push_back(pe.get());
      }
    }
    kernels_[k]->FinishBoot(group);
  }

  // Stage 4: services register and get announced.
  for (NodeId node : service_nodes_) {
    pes_[node]->Boot();
  }
  sim_.RunUntilIdle();

  // The handshakes are over, and with them the one moment every kernel had
  // an IKC in flight to every peer: free what they left parked, so pools
  // grow back only to what the run needs.
  for (Kernel* kernel : kernels_) {
    kernel->Trim();
  }
  TrimMsgPools();

  // Stage 5: applications and load generators.
  for (NodeId node : user_nodes_) {
    pes_[node]->Boot();
  }
  for (NodeId node : loadgen_nodes_) {
    pes_[node]->Boot();
  }
}

void Platform::MigratePe(NodeId pe, KernelId dst_kernel, std::function<void(ErrCode)> done) {
  CHECK(booted_);
  CHECK_LT(dst_kernel, config_.kernels);
  KernelId src = membership_.KernelOf(pe);
  CHECK_NE(src, dst_kernel) << "PE " << pe << " already belongs to kernel " << dst_kernel;
  kernels_.at(src)->AdminMigratePe(pe, dst_kernel, [this, pe, dst_kernel, done](ErrCode err) {
    if (err == ErrCode::kOk) {
      // Mirror with the epoch the handoff protocol minted (the destination
      // installed it before completing), NOT one minted locally: a
      // platform-local epoch can run ahead of the kernels' epoch stream,
      // and the next takeover decree for this PE would then lose against
      // it in Apply's per-PE epoch guard — leaving the platform routing
      // the PE to a retired kernel while every survivor moved on.
      membership_.Apply(pe, dst_kernel,
                        kernels_.at(dst_kernel)->config().membership.PeEpoch(pe));
    }
    if (done) {
      done(err);
    }
  });
}

void Platform::KillKernelAt(KernelId victim, Cycles when) {
  CHECK(booted_);
  CHECK_LT(victim, config_.kernels);
  Cycles now = sim_.Now();
  Cycles at = when > now ? when : now + 1;
  Kernel* kernel = kernels_.at(victim);
  sim_.ScheduleAt(at, [kernel] {
    if (!kernel->dead()) {
      kernel->AdminKill();
    }
  });
}

void Platform::StartFailureDetector(FtConfig ft) {
  CHECK(booted_);
  ft.enabled = true;
  for (Kernel* kernel : kernels_) {
    if (!kernel->dead() && !kernel->shutting_down()) {
      kernel->AdminStartFailureDetector(ft);
    }
  }
}

uint64_t Platform::RunToCompletion(uint64_t max_events) {
  uint64_t ran = sim_.RunUntilIdle(max_events);
  CHECK(sim_.Idle()) << "simulation exceeded event budget";
  // No user PE's command loses a message (it answers by slot, to the
  // endpoint its requester named): only a DTU or kernel bug trips this.
  uint64_t drops = TotalDrops();
  CHECK_EQ(drops, 0u) << "DTU messages were lost — flow-control protocol violated";
  return ran;
}

KernelStats Platform::TotalKernelStats() const {
  KernelStats total;
  for (const Kernel* k : kernels_) {
    // Registry-driven summation (obs/metrics.h): complete by construction,
    // so a newly added KernelStats field can never be silently missing.
    obs::AccumulateKernelStats(&total, k->stats());
  }
  return total;
}

uint64_t Platform::TotalDrops() const {
  uint64_t drops = 0;
  for (const auto& pe : pes_) {
    drops += pe->dtu().stats().msgs_dropped;
  }
  return drops;
}

void RunSetup::ApplyTo(PlatformConfig* pc) const {
  pc->threads = threads;
  pc->trace = trace;
  if (!trace_out.empty()) {
    pc->trace.enabled = true;
  }
  pc->timeline = timeline;
  if (!metrics_out.empty() && !pc->timeline.enabled()) {
    pc->timeline.interval = kDefaultTimelineInterval;
  }
}

void RunOutcome::Harvest(Platform* platform, const RunSetup& setup) {
  kernel_stats = platform->TotalKernelStats();
  noc = platform->noc().stats();
  if (obs::Tracer* tracer = platform->tracer(); tracer != nullptr) {
    spans_recorded = tracer->recorded();
    spans_dropped = tracer->dropped();
    trace_fingerprint = tracer->Fingerprint();
    trace_report = tracer->Report();
    if (!setup.trace_out.empty() && !tracer->WriteChromeTrace(setup.trace_out)) {
      write_error = "cannot write trace file " + setup.trace_out;
    }
  }
  if (obs::MetricsTimeline* timeline = platform->timeline(); timeline != nullptr) {
    timeline->Sample(platform->sim().Now(), kernel_stats);  // the end: final counters
    if (!setup.metrics_out.empty() && !timeline->WriteJson(setup.metrics_out)) {
      write_error = "cannot write metrics timeline " + setup.metrics_out;
    }
  }
}

}  // namespace semperos
