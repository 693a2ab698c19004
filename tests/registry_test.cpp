// Workload registry suite (src/workloads/registry.h).
//
// The registry is the single front door for every experiment: specs carry
// the name, param schema and driver; ParseWorkloadCli resolves positional
// selection, merges schema defaults, and validates every flag against the
// schema. This suite pins the behaviours the CLI contract depends on — in
// particular that contradictory workload selections are rejected loudly
// (the old flag chain silently ran whichever branch came first), and that
// no flag is accepted only to be ignored.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workloads/registry.h"

namespace semperos {
namespace {

WorkloadInvocation Parse(std::vector<std::string> args) {
  RegisterBuiltinWorkloads();
  return ParseWorkloadCli(args);
}

// --- Selection ---

TEST(Registry, PositionalNameSelectsWorkload) {
  WorkloadInvocation inv = Parse({"traffic", "--rate=250000"});
  ASSERT_TRUE(inv.ok) << inv.error;
  ASSERT_NE(inv.spec, nullptr);
  EXPECT_EQ(inv.spec->name, "traffic");
  EXPECT_TRUE(inv.spec->open_loop);
  EXPECT_DOUBLE_EQ(inv.params.F64("rate"), 250000.0);
}

TEST(Registry, DefaultSelectionIsTar) {
  WorkloadInvocation inv = Parse({"--kernels=4"});
  ASSERT_TRUE(inv.ok) << inv.error;
  EXPECT_EQ(inv.spec->name, "tar");
  EXPECT_EQ(inv.params.U32("kernels"), 4u);
}

TEST(Registry, RetiredAliasesAreRejected) {
  // Workloads are selected by positional name only; the old selector flags
  // fail with an error naming the token. So do the retired engine flags:
  // the sharded engine is reached through PlatformConfig::threads only.
  for (const char* alias : {"--app=postmark", "--nginx", "--micro", "--failover", "--chaos",
                            "--trace=ops.txt", "--fail-kernel=2@1500", "--threads=2",
                            "--threads=auto", "--strict", "--stats"}) {
    WorkloadInvocation inv = Parse({alias});
    EXPECT_FALSE(inv.ok) << alias;
    EXPECT_NE(inv.error.find(alias), std::string::npos) << inv.error;
  }
  // --fail-kernel=<id>@<us> stays a failover parameter.
  WorkloadInvocation inv = Parse({"failover", "--fail-kernel=2@1500"});
  ASSERT_TRUE(inv.ok) << inv.error;
  EXPECT_EQ(inv.params.Str("fail-kernel"), "2@1500");
}

TEST(Registry, ConflictingSelectionsAreRejected) {
  // A pre-registry parser accepted two selections and silently ran only
  // one of them.
  WorkloadInvocation inv = Parse({"failover", "chaos"});
  EXPECT_FALSE(inv.ok);
  EXPECT_NE(inv.error.find("conflicting workload selections"), std::string::npos) << inv.error;
  EXPECT_NE(inv.error.find("failover"), std::string::npos) << inv.error;
  EXPECT_NE(inv.error.find("chaos"), std::string::npos) << inv.error;

  EXPECT_FALSE(Parse({"tar", "nginx"}).ok);
  EXPECT_FALSE(Parse({"traffic", "micro"}).ok);
  // Naming the same workload twice is harmless, not a conflict.
  EXPECT_TRUE(Parse({"failover", "failover", "--fail-kernel=1@0"}).ok);
}

TEST(Registry, UnknownWorkloadShowsCatalogue) {
  WorkloadInvocation inv = Parse({"frobnicate"});
  EXPECT_FALSE(inv.ok);
  EXPECT_TRUE(inv.show_catalogue);
  EXPECT_NE(inv.error.find("unknown workload 'frobnicate'"), std::string::npos) << inv.error;
}

// --- Schema validation ---

TEST(Registry, DefaultsAreMergedBeforeOverrides) {
  WorkloadInvocation inv = Parse({"traffic"});
  ASSERT_TRUE(inv.ok) << inv.error;
  EXPECT_EQ(inv.params.Str("request"), "nginx");
  EXPECT_EQ(inv.params.U32("servers"), 16u);
  EXPECT_EQ(inv.params.U64("requests"), 20000u);
}

TEST(Registry, UnknownFlagForWorkloadIsRejected) {
  WorkloadInvocation inv = Parse({"micro", "--servers=4"});
  EXPECT_FALSE(inv.ok);
  EXPECT_NE(inv.error.find("does not take --servers"), std::string::npos) << inv.error;
}

TEST(Registry, ChoiceParamsAreEnforced) {
  EXPECT_TRUE(Parse({"traffic", "--process=bursty"}).ok);
  WorkloadInvocation inv = Parse({"traffic", "--process=lunar"});
  EXPECT_FALSE(inv.ok);
}

TEST(Registry, TypedValuesAreCheckedAtParseTime) {
  EXPECT_FALSE(Parse({"traffic", "--servers=many"}).ok);
  EXPECT_FALSE(Parse({"traffic", "--rate=fast"}).ok);
  EXPECT_FALSE(Parse({"traffic", "--rate=0"}).ok);  // spec.validate: rate > 0
  // Degenerate shapes fail at parse time (exit code 2), not as a CHECK
  // abort or a NaN deep in the run.
  EXPECT_FALSE(Parse({"tar", "--kernels=0"}).ok);
  EXPECT_FALSE(Parse({"traffic", "--kernels=0"}).ok);
  EXPECT_FALSE(Parse({"tar", "--instances=0"}).ok);
  EXPECT_FALSE(Parse({"nginx", "--servers=0"}).ok);
  EXPECT_FALSE(Parse({"rebalance", "--kernels=1"}).ok);
  EXPECT_FALSE(Parse({"rebalance", "--migrate-pes=9"}).ok);
  EXPECT_FALSE(Parse({"chaos", "--kernels=1"}).ok);
  EXPECT_FALSE(Parse({"chaos", "--rounds=0"}).ok);
  EXPECT_FALSE(Parse({"chaos", "--settle=0"}).ok);
  EXPECT_FALSE(Parse({"chaos", "--kernels=2", "--double-kill"}).ok);
  EXPECT_TRUE(Parse({"chaos", "--kernels=3", "--double-kill"}).ok);
}

TEST(Registry, RunSetupFlagsNeedOnePlatformRun) {
  // Every one-platform workload takes the run-setup flags...
  for (const char* name : {"tar", "nginx", "failover", "rebalance", "chaos", "traffic"}) {
    WorkloadInvocation inv =
        Parse({name, "--trace-out=t.json", "--metrics-out=m.json", "--metrics-interval=5000"});
    EXPECT_TRUE(inv.ok) << name << ": " << inv.error;
  }
  EXPECT_TRUE(Parse({"trace", "--file=ops.txt", "--trace-out=t.json"}).ok);
  // ...and the drivers that run many platforms reject them instead of
  // dropping them.
  WorkloadInvocation micro = Parse({"micro", "--trace-out=t.json"});
  EXPECT_FALSE(micro.ok);
  EXPECT_NE(micro.error.find("--trace-out=t.json"), std::string::npos) << micro.error;
  EXPECT_FALSE(Parse({"micro", "--metrics-out=m.json"}).ok);
  EXPECT_FALSE(Parse({"chaos", "--sweep=2", "--trace-out=t.json"}).ok);
  EXPECT_FALSE(Parse({"chaos", "--sweep=2", "--metrics-interval=5000"}).ok);
  EXPECT_FALSE(Parse({"traffic", "--saturate", "--metrics-out=m.json"}).ok);
  // An interval alone would arm a timeline that nothing writes.
  WorkloadInvocation interval_alone = Parse({"traffic", "--metrics-interval=5000"});
  EXPECT_FALSE(interval_alone.ok);
  EXPECT_NE(interval_alone.error.find("needs --metrics-out"), std::string::npos)
      << interval_alone.error;
  EXPECT_FALSE(Parse({"traffic", "--metrics-out=m.json", "--metrics-interval=soon"}).ok);
  // --pipeline is a traffic parameter, not a global flag.
  EXPECT_EQ(Parse({"traffic", "--pipeline=3"}).params.U32("pipeline"), 3u);
  EXPECT_FALSE(Parse({"tar", "--pipeline=3"}).ok);
}

// --- Registry surface ---

TEST(Registry, CatalogueListsEveryRegisteredWorkload) {
  RegisterBuiltinWorkloads();
  std::string catalogue = FormatWorkloadList();
  for (const WorkloadSpec& spec : WorkloadRegistry::Global().specs()) {
    EXPECT_NE(catalogue.find(spec.name), std::string::npos) << spec.name;
    EXPECT_NE(spec.run, nullptr) << spec.name << " has no driver";
  }
  // The harness registers through the same interface as everything else.
  EXPECT_NE(WorkloadRegistry::Global().Find("traffic"), nullptr);
  EXPECT_NE(catalogue.find("[open-loop]"), std::string::npos);
  EXPECT_TRUE(Parse({"--list"}).list);
}

// A custom trace never aborts the simulator: an op on a file that is not
// open and a double open are invalid lines, and an operation m3fs or the
// client refuses ends the replay; each exits 1.
TEST(Registry, BadCustomTracesExitOne) {
  const char* probes[] = {
      "read /d/f 10\n",
      "open /d/f wc\nopen /d/f wc\n",
      // A write m3fs cannot hold in its memory region.
      "open /d/f wc\nseek /d/f 1099511627776\nwrite /d/f 4096\n",
      // A write to a file opened read-only.
      "open /d/f r\nwrite /d/f 10\nclose /d/f\n",
      // I/O on a file unlinked while open.
      "open /d/f wc\nwrite /d/f 10\nunlink /d/f\nwrite /d/f 10\n",
      // A ninth open file: a PE has eight memory endpoints.
      "open /d/0 wc\nopen /d/1 wc\nopen /d/2 wc\nopen /d/3 wc\nopen /d/4 wc\n"
      "open /d/5 wc\nopen /d/6 wc\nopen /d/7 wc\nopen /d/8 wc\n",
      // Numbers near 2^64: a compute the clock cannot hold, a count past
      // 2^64 - 1, and a read and a seek whose cursor would wrap.
      "compute 18446744073709551615\n",
      "compute 18446744073709551616\n",
      "open /d/f r\nread /d/f 18446744073709551615\n",
      "open /d/f wc\nseek /d/f 18446744073709551615\nwrite /d/f 10\n",
  };
  for (const char* probe : probes) {
    std::string path = testing::TempDir() + "registry_probe.trace";
    std::ofstream(path) << probe;
    WorkloadInvocation inv = Parse({"trace", "--file=" + path, "--kernels=1", "--services=1"});
    ASSERT_TRUE(inv.ok) << inv.error;
    EXPECT_EQ(RunWorkloadCli(inv), 1) << probe;
    std::remove(path.c_str());
  }
}

TEST(Registry, ResultMetricLookup) {
  WorkloadResult result;
  result.Add("p99", 42.5, "us");
  result.Add("throughput", 1e6, "/s");
  EXPECT_DOUBLE_EQ(result.Value("p99"), 42.5);
  EXPECT_DOUBLE_EQ(result.Value("throughput"), 1e6);
  EXPECT_DEATH(result.Value("absent"), "");
}

}  // namespace
}  // namespace semperos
