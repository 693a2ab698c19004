// semperos_sim — command-line front end for the SemperOS simulator.
//
// Workloads are selected by name from the workload registry
// (src/workloads/registry.h); parameters, validation and --list all come
// from the WorkloadSpec schemas:
//
//   semperos_sim postmark --kernels=32 --services=32 --instances=512
//   semperos_sim tar --kernels=1 --services=1 --instances=1
//   semperos_sim nginx --kernels=32 --services=32 --servers=128
//   semperos_sim micro                        # Table-3 style op latencies
//   semperos_sim failover --kernels=8         # crash-recovery workload
//   semperos_sim traffic --rate=200000 --process=bursty   # open-loop harness
//   semperos_sim traffic --saturate           # saturation-throughput search
//   semperos_sim chaos --seed=7 --sweep=100   # seeded chaos storms
//   semperos_sim failover --trace-out=t.json  # any one-platform run: span
//                                             # report + Chrome trace file
//   semperos_sim --list                       # the full workload catalogue
#include <cstdio>
#include <string>
#include <vector>

#include "workloads/registry.h"

int main(int argc, char** argv) {
  semperos::RegisterBuiltinWorkloads();
  std::vector<std::string> args(argv + 1, argv + argc);
  semperos::WorkloadInvocation invocation = semperos::ParseWorkloadCli(args);
  if (!invocation.ok) {
    std::fprintf(stderr, "%s\n", invocation.error.c_str());
    if (invocation.show_catalogue) {
      std::fprintf(stderr, "%s", semperos::FormatWorkloadList().c_str());
    }
    return 2;
  }
  if (invocation.list) {
    std::printf("%s", semperos::FormatWorkloadList().c_str());
    return 0;
  }
  return semperos::RunWorkloadCli(invocation);
}
