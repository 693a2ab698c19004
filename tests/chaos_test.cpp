// Chaos-storm harness (src/chaos): corpus replay, targeted adversarial
// schedules, and the auditor-catches-injected-bugs guarantee.
//
// The regression corpus (tests/chaos_corpus/*.storms) is append-only: every
// storm that ever exposed a real protocol bug lives there as one line of
// `semperos_sim chaos` arguments and is replayed here on every run. A
// failing replay prints the exact one-command repro
// (`semperos_sim chaos --seed=N ...`).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/storm.h"
#include "workloads/registry.h"

namespace semperos {
namespace {

#ifndef SEMPEROS_CHAOS_CORPUS_DIR
#error "SEMPEROS_CHAOS_CORPUS_DIR must point at tests/chaos_corpus"
#endif

struct CorpusEntry {
  std::string file;
  uint32_t line_no;
  std::string line;
  StormConfig config;
};

std::vector<CorpusEntry> LoadCorpus() {
  std::vector<CorpusEntry> entries;
  std::vector<std::filesystem::path> files;
  for (const auto& it : std::filesystem::directory_iterator(SEMPEROS_CHAOS_CORPUS_DIR)) {
    if (it.path().extension() == ".storms") {
      files.push_back(it.path());
    }
  }
  std::sort(files.begin(), files.end());  // deterministic replay order
  for (const auto& path : files) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string line;
    uint32_t line_no = 0;
    while (std::getline(in, line)) {
      line_no++;
      if (line.empty() || line[0] == '#') {
        continue;
      }
      CorpusEntry entry{path.filename().string(), line_no, line, StormConfig{}};
      std::string error;
      EXPECT_TRUE(ParseChaosLine(line, &entry.config, &error))
          << entry.file << ":" << line_no << ": " << error;
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

TEST(ChaosCorpus, EveryStormReplaysClean) {
  std::vector<CorpusEntry> corpus = LoadCorpus();
  ASSERT_GE(corpus.size(), 8u) << "corpus went missing";
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.file + ":" + std::to_string(entry.line_no) + ": " + entry.line);
    StormResult r = RunStorm(entry.config);
    EXPECT_TRUE(r.ok) << r.audit.ToString() << "\nrepro: " << ReproCommand(entry.config);
    EXPECT_GT(r.audits_run, 0u);
    if (entry.config.force_double_kill) {
      EXPECT_TRUE(r.recovery_refused) << "double kill must break quorum";
    }
  }
}

TEST(ChaosCorpus, SpecLinesRoundTrip) {
  for (const CorpusEntry& entry : LoadCorpus()) {
    EXPECT_EQ(ReproCommand(entry.config), "semperos_sim chaos " + entry.line);
  }
}

// --- Targeted adversarial schedules --------------------------------------

TEST(ChaosTargeted, MigrationDuringRevocationStaysConsistent) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    StormConfig config;
    config.seed = seed;
    config.force_migration_during_revoke = true;
    config.max_kills = 0;  // isolate the migration/revocation interaction
    StormResult r = RunStorm(config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.ok) << r.audit.ToString() << "\nrepro: " << ReproCommand(config);
    EXPECT_GT(r.migrations_started, 0u) << "schedule never launched its migration";
  }
}

TEST(ChaosTargeted, DoubleKillIsRefusedAndAuditsClean) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    StormConfig config;
    config.seed = seed;
    config.force_double_kill = true;
    config.max_kills = 0;  // the targeted schedule provides the two kills
    StormResult r = RunStorm(config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.ok) << r.audit.ToString() << "\nrepro: " << ReproCommand(config);
    EXPECT_TRUE(r.recovery_refused) << "survivors must refuse without quorum";
    EXPECT_GE(r.kills, 2u);
  }
}

// --- The auditor catches real protocol omissions --------------------------

TEST(ChaosInjectedBug, SkippedOrphanRevocationIsCaughtAndShrinks) {
  StormConfig config;
  config.seed = 1;
  config.bug_skip_orphan_revoke = true;
  StormResult r = RunStorm(config);
  ASSERT_FALSE(r.ok) << "injected bug went undetected by the auditor";
  ASSERT_FALSE(r.audit.violations.empty());
  // Dangling/orphaned tree edges are exactly what skipping the orphan
  // revocation leaves behind.
  bool tree_violation = false;
  for (const AuditViolation& v : r.audit.violations) {
    tree_violation |= v.invariant == "I1" || v.invariant == "I2" || v.invariant == "I3";
  }
  EXPECT_TRUE(tree_violation) << r.audit.ToString();

  // The shrinker reduces the schedule and ends on a still-failing config
  // with a one-command repro.
  uint32_t attempts = 0;
  StormConfig shrunk = ShrinkStorm(config, &attempts);
  EXPECT_GT(attempts, 0u);
  EXPECT_LE(shrunk.rounds, config.rounds);
  EXPECT_LE(shrunk.users_per_kernel, config.users_per_kernel);
  StormResult replay = RunStorm(shrunk);
  EXPECT_FALSE(replay.ok) << "shrunk config no longer reproduces";
  // The repro line runs the same storm through the workload registry.
  std::istringstream repro(ReproCommand(shrunk));
  std::vector<std::string> args;
  for (std::string arg; repro >> arg;) {
    args.push_back(arg);
  }
  ASSERT_GE(args.size(), 2u);
  EXPECT_EQ(args.front(), "semperos_sim");
  args.erase(args.begin());
  EXPECT_EQ(args.front(), "chaos");  // the registry form, not a deprecated alias
  RegisterBuiltinWorkloads();
  WorkloadInvocation invocation = ParseWorkloadCli(args);
  ASSERT_TRUE(invocation.ok) << invocation.error;
  EXPECT_EQ(invocation.spec->name, "chaos");
  StormConfig parsed = ChaosStormConfig(invocation.params);
  EXPECT_EQ(ReproCommand(parsed), ReproCommand(shrunk));
}

}  // namespace
}  // namespace semperos
