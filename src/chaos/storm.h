// Seeded chaos scheduler: randomized fault/churn storms over a running
// workload, audited after every settle round.
//
// A storm takes an RNG seed and a workload shape and composes the
// platform's fault and churn primitives into adversarial schedules:
//
//   * kernel kills timed against in-flight capability exchanges (the armed
//     failure detector then has to detect, reach a quorum verdict, and
//     recover — or refuse, when the storm deliberately breaks quorum);
//   * live PE migrations launched while exchanges and revocations are in
//     flight (including migrations of PEs whose capabilities are mid-revoke);
//   * client churn: VPEs killed with operations outstanding;
//   * heartbeat-window perturbation: detector period/timeout drawn per
//     storm burst instead of fixed.
//
// Chaos stays inside configured safety envelopes: kills are clamped so a
// majority of the configured kernels survives (quorum must remain
// holdable) — except for the targeted double-kill schedule, whose entire
// point is that the survivors must REFUSE recovery.
//
// The workload under the storm is one of:
//   mixed     — the property-test op soup: random cross-group obtains,
//               delegates, revokes and derives;
//   nginx     — every client loops the Nginx per-request trace
//               (stat + open + read + close + compute) against a file-owner
//               client of the next group: obtain-heavy, shallow trees;
//   postmark  — every client replays its own PostMark instance trace
//               (paper Table 4): many small create/write/close/unlink
//               cycles, i.e. obtain/revoke churn on short-lived subtrees.
// Trace clients map filesystem ops to the capability operations the real
// m3fs path would issue (open = extent obtain, extent crossing = another
// obtain, close/unlink = revoke per handed extent, paper §5.3.1) and
// tolerate errors the way a crash-tolerant application would: a failed op
// abandons the file and the trace moves on.
//
// The run proceeds in rounds; every `settle_every` rounds the storm lets
// the platform run to quiescence and runs the global invariant auditor
// (src/audit). Any violation stops the storm and is reported with the
// exact StormConfig that reproduces it; ShrinkStorm() then reduces a
// failing config to a minimal one-command repro
// (`semperos_sim chaos --seed=N ...`).
//
// Everything is driven by one explicitly seeded Rng, and the driver only
// acts at exact-time barriers between simulation slices — so a storm is
// bit-identical across reruns AND across engine thread counts (asserted by
// the parallel equivalence suite).
#ifndef SEMPEROS_CHAOS_STORM_H_
#define SEMPEROS_CHAOS_STORM_H_

#include <cstdint>
#include <string>

#include "audit/cap_audit.h"
#include "core/kernel.h"
#include "system/platform.h"

namespace semperos {

enum class StormWorkload : uint8_t { kMixed, kNginx, kPostmark };

const char* StormWorkloadName(StormWorkload w);

struct StormConfig {
  uint64_t seed = 1;
  uint32_t kernels = 4;
  uint32_t users_per_kernel = 3;
  uint32_t rounds = 24;
  uint32_t settle_every = 6;  // settle + audit cadence, in rounds
  StormWorkload workload = StormWorkload::kMixed;

  // Safety envelopes: per-run maxima for each chaos event class. Kills are
  // additionally clamped so that a majority of the configured kernels
  // stays alive (the quorum stays holdable).
  uint32_t max_kills = 1;
  uint32_t max_migrations = 3;
  uint32_t max_churn = 2;
  // Draw the detector's heartbeat period and timeout per armed burst,
  // around FtConfig's defaults; off: those defaults.
  bool perturb_heartbeats = true;
  double op_rate = 0.7;            // per-client chance to act each round

  // Targeted adversarial schedules (deterministic preludes).
  bool force_migration_during_revoke = false;
  bool force_double_kill = false;  // breaks quorum: recovery must refuse

  // Injected protocol bug (FtConfig::bug_skip_orphan_revoke): recovery
  // leaves orphaned subtrees dangling. Exists so tests can prove the
  // auditor catches a real protocol omission.
  bool bug_skip_orphan_revoke = false;

  RunSetup setup;
};

struct StormResult {
  bool ok = false;  // ran to the end with every audit clean
  AuditReport audit;  // the failing audit, or the final clean one
  uint32_t rounds_run = 0;
  uint32_t audits_run = 0;

  // Work and chaos accounting.
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;
  uint32_t kills = 0;
  uint32_t migrations_started = 0;
  uint32_t migrations_ok = 0;
  uint32_t churn_kills = 0;
  bool recovery_refused = false;  // a no-quorum refusal was recorded

  // Modeled-result fingerprint for the determinism/equivalence guard.
  Cycles end_time = 0;
  uint64_t events = 0;  // engine total, boot included
  RunOutcome outcome;

  std::string Summary() const;  // one-paragraph human-readable outcome
};

// Runs one storm to completion (or to the first failing audit).
StormResult RunStorm(const StormConfig& config);

// Greedy schedule shrinking: starting from a failing config, repeatedly
// tries simpler variants (fewer rounds, fewer clients, event classes
// disabled) and keeps every mutation that still fails the audit. Returns
// the minimal failing config; `attempts` (optional) reports how many
// candidate runs were tried. The input config must fail (CHECKed). The
// candidate runs write no trace or timeline file.
StormConfig ShrinkStorm(const StormConfig& failing, uint32_t* attempts = nullptr);

// The one-command repro for a (typically shrunk) failing config:
// `semperos_sim chaos` and its arguments, which the workload registry
// parses back into the same config (ChaosStormConfig). A chaos corpus line
// is that argument list.
std::string ReproCommand(const StormConfig& config);

}  // namespace semperos

#endif  // SEMPEROS_CHAOS_STORM_H_
