// Workload x system-configuration grid: every application must run
// correctly (exact capability-operation counts, zero message loss, clean
// kernel state) across kernel/service mixes.
#include <gtest/gtest.h>

#include <sstream>

#include "system/experiment.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

struct GridParam {
  std::string app;
  uint32_t kernels;
  uint32_t services;
  uint32_t instances;
};

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  std::ostringstream os;
  os << info.param.app << "_k" << info.param.kernels << "_s" << info.param.services << "_n"
     << info.param.instances;
  return os.str();
}

class ConfigGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ConfigGrid, RunsCleanly) {
  const GridParam& param = GetParam();
  AppRunConfig config;
  config.app = param.app;
  config.kernels = param.kernels;
  config.services = param.services;
  config.instances = param.instances;
  AppRunResult result = RunApp(config);
  EXPECT_EQ(result.total_cap_ops, uint64_t{param.instances} * ExpectedCapOps(param.app));
  EXPECT_GT(result.mean_runtime_us, 0.0);
  EXPECT_EQ(result.outcome.kernel_stats.threads_in_use, 0u);  // pool fully drained
}

std::vector<GridParam> Grid() {
  std::vector<GridParam> params;
  for (const auto& app : WorkloadNames()) {
    params.push_back({app, 2, 1, 6});    // services shared across groups
    params.push_back({app, 3, 6, 9});    // more services than kernels
    params.push_back({app, 6, 6, 12});   // one service per group
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Apps, ConfigGrid, ::testing::ValuesIn(Grid()), GridName);

}  // namespace
}  // namespace semperos
