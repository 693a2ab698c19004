// Global capability-forest invariant auditor.
//
// One library that walks the entire platform after quiescence and checks the
// structural invariants the paper's distributed capability protocols
// guarantee (Table 2 anomalies), plus the failover-era invariants added by
// src/ft. It replaces the per-test `VerifyForest`-style checkers that used
// to be copy-pasted across property_test, anomaly_sweep_test and
// failover_test, and it is what the chaos harness (src/chaos) runs after
// every settle round.
//
// Invariant catalogue (docs/testing.md has the narrative version):
//
//   I1  holder liveness & table consistency: every capability's holder VPE
//       exists and is alive, the holder's selector table points back at the
//       capability, every selector-table entry resolves to a capability,
//       and dead VPEs hold nothing;
//   I2  parent-edge symmetry: a capability's (possibly remote) parent
//       exists and lists it as a child — no child outlives its revoked
//       parent (anomaly "Invalid");
//   I3  child-edge symmetry: every listed child exists and names this
//       capability as its parent — no orphaned tree entries survive
//       (anomaly "Orphaned");
//   I4  no capability is left marked — every two-phase revocation that
//       started also finished (anomaly "Incomplete");
//   I5  quiescence is real: no suspended kernel operations, no parked
//       delegates, all kernel threads back in the pool, and zero messages
//       dropped anywhere in the fabric;
//   I6  failover safety: once a quorum verdict retired a kernel, every
//       survivor agrees (verdict kFailed, recovery completed), no
//       membership view — kernel or platform — still routes a partition to
//       it, and no user PE is stranded on a dead kernel.
//
// Dead kernels are frozen mid-flight by design, so their own state is not
// audited (only counted). A kernel that died but was NOT retired by a
// quorum (refused recovery, or no detector armed) legally leaves wedged
// state behind: partitions still route to the corpse and calls addressed to
// it never complete. The auditor detects that situation itself and reports
// such state as counters instead of violations.
//
// The auditor is a pure post-hoc walker: nothing in the simulator's hot
// paths calls it, so modeled results are bit-identical whether or not it
// ever runs.
#ifndef SEMPEROS_AUDIT_CAP_AUDIT_H_
#define SEMPEROS_AUDIT_CAP_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.h"
#include "core/ddl.h"

namespace semperos {

class Platform;

struct AuditViolation {
  std::string invariant;  // "I1".."I6"
  KernelId kernel = kInvalidKernel;
  DdlKey key;  // capability involved; null for kernel-level violations
  std::string detail;
};

struct AuditReport {
  std::vector<AuditViolation> violations;

  // Coverage counters: what the walk actually looked at.
  uint32_t kernels_audited = 0;
  uint32_t kernels_dead = 0;
  uint32_t kernels_unrecovered = 0;  // dead without a quorum verdict
  uint64_t caps_checked = 0;
  uint64_t vpes_checked = 0;
  uint64_t parent_edges_checked = 0;
  uint64_t child_edges_checked = 0;
  // Legal-but-wedged state on runs with an unrecovered dead kernel.
  uint64_t edges_into_dead = 0;
  // Asymmetric parent/child edges between LIVE kernels whose completing
  // handshake is itself wedged against the corpse.
  uint64_t edges_dangling_wedged = 0;
  uint64_t wedged_ops = 0;
  uint64_t stranded_pes = 0;
  // Marked caps whose revocation is parked against the corpse (I4 relaxed),
  // and caps stuck with a dead holder because the teardown revocation
  // wedged the same way (I1 relaxed).
  uint64_t caps_marked_wedged = 0;
  uint64_t dead_holder_caps = 0;

  bool ok() const { return violations.empty(); }
  // One line per violation plus a coverage summary; gtest-friendly:
  //   EXPECT_TRUE(report.ok()) << report.ToString();
  std::string ToString() const;
};

// Walks every live kernel's capability space, VPE table and membership view
// and returns the structured report. Deterministic: capabilities are
// visited in DDL-key order, so two audits of bit-identical platforms yield
// identical reports.
AuditReport AuditPlatform(Platform& platform);

}  // namespace semperos

#endif  // SEMPEROS_AUDIT_CAP_AUDIT_H_
