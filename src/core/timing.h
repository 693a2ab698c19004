// Kernel/service cycle-cost model.
//
// This is the calibration surface that replaces gem5's micro-architectural
// simulation. Every kernel handler charges its cost on the kernel PE's
// executor; the constants below are calibrated so that the four
// single-operation measurements of paper Table 3 are reproduced:
//
//     operation            scope      SemperOS   M3
//     exchange (obtain)    local      3597       3250   (+10.7%)
//     exchange (obtain)    spanning   6484       —
//     revoke               local      1997       1423   (+40.3%)
//     revoke               spanning   3876       —
//
// The structural difference between the M3 and SemperOS models is exactly
// what the paper describes: "SemperOS references parent and child
// capabilities via DDL keys instead of plain pointers. Analyzing the DDL key
// to determine the capability's owning kernel and VPE introduces overhead in
// the local case" — so the M3 model zeroes `ddl_decode` (and runs a single
// kernel); everything else is shared. Spanning operations add inter-kernel
// call costs and NoC round trips, roughly doubling latency as in the paper.
#ifndef SEMPEROS_CORE_TIMING_H_
#define SEMPEROS_CORE_TIMING_H_

#include "base/types.h"

namespace semperos {

enum class KernelMode : uint8_t {
  kSemperOSMulti,    // DDL-keyed capability links, multiple kernels
  kM3SingleKernel,   // baseline: plain pointers, one kernel for everything
};

struct TimingModel {
  // --- System call path ---
  Cycles syscall_dispatch = 380;  // receive, decode, validate caller
  Cycles syscall_reply = 220;     // build reply, send

  // --- Capability exchange (obtain/delegate) ---
  Cycles exchange_validate = 980;  // look up capability, rights check
  Cycles cap_create = 990;         // allocate capability, fill from parent
  Cycles tree_insert = 660;        // mapping-database child/parent linking
  Cycles ask_party = 700;          // the asked VPE/service decides (on its PE)

  // --- DDL (zero in M3 mode: plain pointers) ---
  // Charged once per key decoded: owner lookup, membership lookup, every
  // parent/child edge traversal. The exchange path decodes 3 keys and a
  // 2-capability revoke decodes 5, which yields the paper's +10.7% / +40.3%
  // overheads over M3 (Table 3).
  Cycles ddl_decode = 115;
  // Remote-DDL cache hit: re-resolving a hot remote partition from the
  // epoch-validated cache instead of a full decode + membership walk. Only
  // remote keys are cached; local decodes always pay ddl_decode.
  Cycles ddl_cache_hit = 10;

  // --- Revocation ---
  Cycles revoke_entry = 225;         // syscall-side setup of the revoke task
  Cycles revoke_mark_per_cap = 130;  // phase 1: mark, enumerate children
  Cycles revoke_sweep_per_cap = 100; // phase 2: unlink from tables, free
  Cycles revoke_finish = 118;        // completion bookkeeping / waking syscall
  // Cooperative-threading cost paid once per revocation that must wait for
  // remote children: pausing the syscall thread at its preemption point and
  // waking it when the last reply arrived (paper §4.2). Participants do not
  // pause (Algorithm 1), so chain slopes are unaffected.
  Cycles revoke_suspend = 653;
  Cycles revoke_resume = 1035;

  // --- Inter-kernel calls ---
  Cycles ikc_send = 500;            // marshal, flow-control check, DTU command
  Cycles ikc_dispatch = 850;        // receive-side decode, thread handoff
  Cycles ikc_reply_handle = 150;    // correlate reply, update counters
  Cycles ikc_exchange_extra = 1723;  // payload (un)marshalling for exchanges

  // Extra kernel work for *service-mediated* exchanges (session lookup,
  // opaque payload relay in both directions). The Table 3 microbenchmark
  // measures a bare VPE-to-VPE obtain, which does not pay this.
  Cycles session_exchange_extra = 2000;

  // --- Endpoint configuration ---
  Cycles ep_config = 240;      // building the privileged config packet
  Cycles ep_invalidate = 220;  // revoking an activated capability's endpoint

  // --- PE migration (dynamic PE-group membership; beyond the paper) ---
  // Not constrained by Table 3. Freeze/quiesce bookkeeping happens once per
  // migration; pack/install scale with the number of capabilities moved;
  // epoch_apply is the membership-table update every kernel pays per
  // EPOCH_UPDATE (one table write + service-directory fixup).
  Cycles migrate_freeze = 400;
  Cycles migrate_quiesce_poll = 2000;    // re-check interval while draining
  Cycles migrate_pack_per_cap = 140;     // serialize one capability record
  Cycles migrate_install_per_cap = 180;  // materialize one record at the dest
  Cycles epoch_apply = 90;

  // --- Fault tolerance (src/ft; beyond the paper) ---
  // Not constrained by Table 3; all of these are only paid in runs that arm
  // the failure detector. Heartbeat handling is deliberately tiny (send a
  // 16-byte ping / flip a timestamp); suspicion and decree bookkeeping are
  // one-off control work; takeover costs scale with adopted PEs, pruned
  // edges, and the local capability scan of the recovery pass.
  Cycles hb_process = 60;            // send or acknowledge one heartbeat
  Cycles ft_suspect = 300;           // raise a suspicion, marshal the vote
  Cycles ft_decree = 600;            // verdict bookkeeping per survivor
  Cycles ft_takeover_per_pe = 250;   // adopt one PE: VPE rebuild + EP retarget
  Cycles ft_scan_per_cap = 40;       // recovery scan of one local capability
  Cycles ft_prune_per_edge = 80;     // drop one tree edge into the dead range

  // --- Service-side handler costs (m3fs) ---
  // Not constrained by Table 3 (which measures kernel capability
  // operations); set to the magnitude of real m3fs handler work — path
  // walk, inode/extent bookkeeping — a few microseconds at 2 GHz.
  Cycles svc_open = 6000;      // path walk, open-file/session setup
  Cycles svc_exchange = 3500;  // locate extent, derive capability description
  Cycles svc_meta = 1800;      // stat/mkdir/unlink processing
  Cycles svc_close = 2500;     // file teardown bookkeeping

  // Number of DDL decodes on the hot path of each operation. In SemperOS
  // every parent/child traversal decodes a key; M3 follows pointers.
  static TimingModel SemperOs() { return TimingModel{}; }

  static TimingModel M3() {
    TimingModel t;
    t.ddl_decode = 0;
    return t;
  }

  static TimingModel For(KernelMode mode) {
    return mode == KernelMode::kM3SingleKernel ? M3() : SemperOs();
  }
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_TIMING_H_
