#include "system/experiment.h"

#include <algorithm>

#include "base/log.h"
#include "fs/service.h"
#include "workloads/nginx.h"
#include "workloads/workloads.h"

namespace semperos {

void AttachServices(Platform* platform, const FsImage& image, const TimingModel& timing,
                    uint64_t region_bytes) {
  uint32_t index = 0;
  for (NodeId node : platform->service_nodes()) {
    Kernel* kernel = platform->kernel_of(node);
    NodeId mem_node = platform->mem_nodes().at(index % platform->mem_nodes().size());
    uint64_t base = static_cast<uint64_t>(index) << 40;  // disjoint fake regions
    CapSel mem_sel = kernel->AdminGrantMem(node, mem_node, base, region_bytes, kPermRW);
    auto service = std::make_unique<FsService>("m3fs", image, platform->kernel_node(kernel->id()),
                                               timing, mem_sel, region_bytes);
    platform->pe(node)->AttachProgram(std::move(service));
    ++index;
  }
}

AppRunResult RunApp(const AppRunConfig& config) {
  TimingModel timing = TimingModel::SemperOs();

  PlatformConfig pc;
  pc.kernels = config.kernels;
  pc.services = config.services;
  pc.users = config.instances;
  pc.mem_tiles = 1;
  pc.timing = timing;
  config.setup.ApplyTo(&pc);
  Platform platform(pc);

  FsImage image;
  PopulateImage(&image, config.app, config.instances);
  image.Freeze();  // services share the frozen base instead of deep-copying
  uint64_t region = image.bytes_used() + config.instances * kGrowthHeadroom;
  AttachServices(&platform, image, timing, region);

  std::vector<TraceReplayer*> replayers;
  replayers.reserve(config.instances);
  for (uint32_t i = 0; i < config.instances; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto replayer = std::make_unique<TraceReplayer>(MakeTrace(config.app, i), kernel_node, timing);
    replayers.push_back(replayer.get());
    platform.pe(node)->AttachProgram(std::move(replayer));
  }

  platform.Boot();
  uint64_t events = platform.RunToCompletion();

  AppRunResult result;
  result.instances = config.instances;
  result.events = events;
  Cycles first_start = UINT64_MAX;
  Cycles last_end = 0;
  double sum_us = 0;
  for (TraceReplayer* r : replayers) {
    const TraceReplayer::Result& res = r->result();
    CHECK(res.done) << "instance did not finish";
    first_start = std::min(first_start, res.start);
    last_end = std::max(last_end, res.end);
    sum_us += CyclesToMicros(res.runtime());
    result.max_runtime_us = std::max(result.max_runtime_us, CyclesToMicros(res.runtime()));
    result.total_cap_ops += res.cap_ops;
  }
  result.mean_runtime_us = sum_us / config.instances;
  result.makespan = last_end - first_start;
  result.cap_ops_per_sec =
      static_cast<double>(result.total_cap_ops) / CyclesToSeconds(result.makespan);
  if (result.makespan > 0) {
    double sum_util = 0;
    for (uint32_t k = 0; k < config.kernels; ++k) {
      double util = static_cast<double>(
                        platform.pe(platform.kernel_node(k))->exec().busy_cycles()) /
                    static_cast<double>(result.makespan);
      sum_util += util;
      result.max_kernel_utilization = std::max(result.max_kernel_utilization, util);
    }
    result.mean_kernel_utilization = sum_util / config.kernels;
    double svc_util = 0;
    for (NodeId node : platform.service_nodes()) {
      svc_util += static_cast<double>(platform.pe(node)->exec().busy_cycles()) /
                  static_cast<double>(result.makespan);
    }
    result.mean_service_utilization = svc_util / std::max<size_t>(1, config.services);
  }
  result.outcome.Harvest(&platform, config.setup);
  return result;
}

double SoloRuntimeUs(const std::string& app, uint32_t kernels, uint32_t services) {
  AppRunConfig config;
  config.app = app;
  config.kernels = kernels;
  config.services = services;
  config.instances = 1;
  return RunApp(config).mean_runtime_us;
}

NginxRunResult RunNginx(const NginxRunConfig& config) {
  TimingModel timing = TimingModel::SemperOs();

  PlatformConfig pc;
  pc.kernels = config.kernels;
  pc.services = config.services;
  pc.users = config.servers;    // webserver processes
  pc.loadgens = config.servers; // one "network interface" PE per server
  pc.mem_tiles = 1;
  pc.timing = timing;
  config.setup.ApplyTo(&pc);
  Platform platform(pc);

  FsImage image;
  PopulateNginxImage(&image);
  image.Freeze();  // services share the frozen base instead of deep-copying
  AttachServices(&platform, image, timing, image.bytes_used() + kGrowthHeadroom);

  std::vector<NginxServer*> servers;
  for (uint32_t i = 0; i < config.servers; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto server = std::make_unique<NginxServer>(MakeNginxRequestTrace(), kernel_node, timing);
    servers.push_back(server.get());
    platform.pe(node)->AttachProgram(std::move(server));
  }
  std::vector<LoadGen*> loadgens;
  for (uint32_t i = 0; i < config.servers; ++i) {
    NodeId node = platform.loadgen_nodes().at(i);
    auto lg = std::make_unique<LoadGen>(platform.user_nodes().at(i));
    loadgens.push_back(lg.get());
    platform.pe(node)->AttachProgram(std::move(lg));
  }

  platform.Boot();

  auto total_completed = [&loadgens] {
    uint64_t total = 0;
    for (LoadGen* lg : loadgens) {
      total += lg->completed();
    }
    return total;
  };

  // Fixed windows, not a run to completion: the servers never go idle.
  platform.sim().RunUntil(platform.sim().Now() + config.warmup);
  uint64_t at_warm = total_completed();
  platform.sim().RunUntil(platform.sim().Now() + config.window);
  uint64_t at_end = total_completed();
  CHECK_EQ(platform.TotalDrops(), 0u);

  NginxRunResult result;
  result.servers = config.servers;
  result.completed = at_end - at_warm;
  result.requests_per_sec =
      static_cast<double>(result.completed) / CyclesToSeconds(config.window);
  result.outcome.Harvest(&platform, config.setup);
  return result;
}

}  // namespace semperos
