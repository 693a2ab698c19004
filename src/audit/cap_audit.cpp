#include "audit/cap_audit.h"

#include <algorithm>
#include <sstream>

#include "core/capability.h"
#include "core/kernel.h"
#include "system/platform.h"

namespace semperos {

namespace {

class Auditor {
 public:
  explicit Auditor(Platform& platform) : p_(platform) {}

  AuditReport Run() {
    for (KernelId k = 0; k < p_.kernel_count(); ++k) {
      if (p_.kernel(k)->dead()) {
        report_.kernels_dead++;
        if (!p_.KernelFailed(k)) {
          report_.kernels_unrecovered++;
        }
      }
    }
    // A dead kernel without a quorum verdict legally wedges the state that
    // points at it (the paper-faithful refusal semantics): relax I5/I6.
    relaxed_ = report_.kernels_unrecovered > 0;

    for (KernelId k = 0; k < p_.kernel_count(); ++k) {
      Kernel* kernel = p_.kernel(k);
      if (kernel->dead()) {
        continue;  // frozen mid-flight by design; nothing to audit
      }
      report_.kernels_audited++;
      AuditVpes(kernel);
      AuditForest(kernel);
      AuditQuiescence(kernel);
    }
    if (p_.TotalDrops() != 0) {
      Add("I5", kInvalidKernel, DdlKey(),
          std::to_string(p_.TotalDrops()) + " messages dropped in the fabric");
    }
    AuditFailover();
    return std::move(report_);
  }

 private:
  void Add(const char* invariant, KernelId kernel, DdlKey key, std::string detail) {
    report_.violations.push_back({invariant, kernel, key, std::move(detail)});
  }

  bool DeadKernel(KernelId k) const { return p_.kernel(k)->dead(); }

  // I1: selector tables and VPE liveness, both directions.
  void AuditVpes(Kernel* kernel) {
    KernelId k = kernel->id();
    kernel->vpes().ForEach([&](const VpeState& vpe) {
      report_.vpes_checked++;
      if (!vpe.alive && vpe.table.size() != 0) {
        if (relaxed_) {
          // The teardown revocation is parked against the corpse; the
          // leftover holdings are the wedge, not a protocol bug.
          report_.dead_holder_caps += vpe.table.size();
        } else {
          Add("I1", k, DdlKey(),
              "dead VPE " + std::to_string(vpe.id) + " still holds " +
                  std::to_string(vpe.table.size()) + " capabilities");
        }
      }
      vpe.table.ForEach([&](CapSel sel, DdlKey key) {
        Capability* cap = kernel->FindCap(key);
        if (cap == nullptr) {
          Add("I1", k, key,
              "VPE " + std::to_string(vpe.id) + " sel " + std::to_string(sel) +
                  " points at no capability");
        } else if (cap->holder() != vpe.id || cap->sel() != sel) {
          Add("I1", k, key,
              "VPE " + std::to_string(vpe.id) + " sel " + std::to_string(sel) +
                  " points at a capability held by VPE " + std::to_string(cap->holder()) +
                  " sel " + std::to_string(cap->sel()));
        }
      });
    });
  }

  // I1 (holder side), I2, I3, I4 over this kernel's capability space.
  void AuditForest(Kernel* kernel) {
    KernelId k = kernel->id();
    // CapSpace iterates in index order, not key order; sort so reports
    // list capabilities by key.
    std::vector<DdlKey> keys;
    keys.reserve(kernel->caps().size());
    kernel->caps().ForEach([&keys](DdlKey key, const Capability*) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end(),
              [](DdlKey a, DdlKey b) { return a.raw() < b.raw(); });

    for (DdlKey key : keys) {
      Capability* cap = kernel->FindCap(key);
      report_.caps_checked++;
      if (cap->key() != key) {
        Add("I1", k, key, "capability stored under a foreign DDL key");
        continue;
      }

      // I1: holder alive and table-consistent.
      const VpeState* holder = kernel->FindVpe(cap->holder());
      if (holder == nullptr) {
        Add("I1", k, key, "holder VPE " + std::to_string(cap->holder()) + " unknown");
      } else {
        if (!holder->alive && !relaxed_) {
          Add("I1", k, key,
              "capability held by dead VPE " + std::to_string(cap->holder()));
        }
        if (holder->table.Find(cap->sel()) != key) {
          Add("I1", k, key,
              "holder table does not point back (sel " + std::to_string(cap->sel()) + ")");
        }
      }

      // I2: parent symmetry across kernels.
      if (!cap->parent().IsNull()) {
        report_.parent_edges_checked++;
        KernelId pk = p_.membership().KernelOfKey(cap->parent());
        if (DeadKernel(pk)) {
          report_.edges_into_dead++;  // unrecovered corpse; legal wedge
        } else {
          Capability* parent = p_.kernel(pk)->FindCap(cap->parent());
          if (parent == nullptr) {
            if (relaxed_) {
              // Even between two live kernels, the handshake that would
              // have completed or unlinked this edge may itself be parked
              // against the corpse; only full quiescence makes symmetry
              // strict.
              report_.edges_dangling_wedged++;
            } else {
              Add("I2", k, key,
                  std::string("dangling parent edge (child outlived revoked parent): ") +
                      CapTypeName(cap->type()) + " holder=" + std::to_string(cap->holder()) +
                      " parent_key=" + std::to_string(cap->parent().raw()) +
                      " parent_kernel=" + std::to_string(pk));
            }
          } else {
            bool listed = false;
            for (DdlKey child : parent->children()) {
              listed |= child == key;
            }
            if (!listed) {
              if (relaxed_) {
                report_.edges_dangling_wedged++;
              } else {
                Add("I2", k, key,
                    "parent (kernel " + std::to_string(pk) + ") does not list child");
              }
            }
          }
        }
      }

      // I3: child symmetry — no orphaned entries.
      for (DdlKey child_key : cap->children()) {
        report_.child_edges_checked++;
        KernelId ck = p_.membership().KernelOfKey(child_key);
        if (DeadKernel(ck)) {
          report_.edges_into_dead++;
          continue;
        }
        Capability* child = p_.kernel(ck)->FindCap(child_key);
        if (child == nullptr) {
          if (relaxed_) {
            report_.edges_dangling_wedged++;  // see the I2 relaxation above
          } else {
            Add("I3", k, key,
                "orphaned child entry " + std::to_string(child_key.raw()) +
                    " (kernel " + std::to_string(ck) + ") survived quiescence");
          }
        } else if (child->parent() != key) {
          if (relaxed_) {
            report_.edges_dangling_wedged++;
          } else {
            Add("I3", k, key,
                "child " + std::to_string(child_key.raw()) + " names a different parent");
          }
        }
      }

      // I4: every revocation that started also finished. With an
      // unrecovered corpse in the system a mark phase can legally park
      // forever on a REVOKE_REQ the corpse will never answer.
      if (cap->marked()) {
        if (relaxed_) {
          report_.caps_marked_wedged++;
        } else {
          Add("I4", k, key,
              std::string("capability still marked (revocation never completed): ") +
                  CapTypeName(cap->type()));
        }
      }
    }
  }

  // I5: the kernel really went quiescent.
  void AuditQuiescence(Kernel* kernel) {
    KernelId k = kernel->id();
    size_t pending = kernel->PendingOps();
    uint32_t threads = kernel->stats().threads_in_use;
    if (relaxed_) {
      // Calls addressed to an unrecovered corpse never complete; their
      // suspended operations (and the threads they hold) are expected.
      report_.wedged_ops += pending;
      return;
    }
    if (pending != 0) {
      Add("I5", k, DdlKey(),
          std::to_string(pending) + " suspended operations at quiescence (" +
              kernel->PendingOpsBreakdown() + ")");
    }
    if (threads != 0) {
      Add("I5", k, DdlKey(),
          std::to_string(threads) + " kernel threads never released");
    }
  }

  // I6: failover safety.
  void AuditFailover() {
    bool any_retired = false;
    for (KernelId dead = 0; dead < p_.kernel_count(); ++dead) {
      if (!p_.KernelFailed(dead)) {
        continue;
      }
      any_retired = true;
      for (KernelId k = 0; k < p_.kernel_count(); ++k) {
        Kernel* kernel = p_.kernel(k);
        if (kernel->dead() || k == dead) {
          continue;
        }
        if (kernel->ft_verdict(dead) != FtVerdict::kFailed) {
          Add("I6", k, DdlKey(),
              "kernel " + std::to_string(dead) + " was quorum-retired but survivor's verdict is " +
                  FtVerdictName(kernel->ft_verdict(dead)));
        }
      }
    }
    if (any_retired) {
      for (KernelId k = 0; k < p_.kernel_count(); ++k) {
        Kernel* kernel = p_.kernel(k);
        if (!kernel->dead() && !kernel->ft_recovery_done()) {
          Add("I6", k, DdlKey(), "recovery incomplete at quiescence");
        }
      }
    }

    // Membership routing: no view — platform or survivor — may still route
    // a partition to a retired kernel, and at quiescence all views agree.
    for (NodeId node = 0; node < p_.membership().PeCount(); ++node) {
      KernelId owner = p_.membership().KernelOf(node);
      if (owner == kInvalidKernel) {
        continue;  // memory tiles are not managed by any kernel
      }
      if (p_.KernelFailed(owner)) {
        Add("I6", owner, DdlKey(),
            "platform still routes partition " + std::to_string(node) +
                " to the retired kernel");
      }
      for (KernelId k = 0; k < p_.kernel_count(); ++k) {
        Kernel* kernel = p_.kernel(k);
        if (kernel->dead()) {
          continue;
        }
        KernelId view = kernel->config().membership.KernelOf(node);
        if (view != kInvalidKernel && p_.KernelFailed(view)) {
          Add("I6", k, DdlKey(),
              "kernel view still routes partition " + std::to_string(node) +
                  " to retired kernel " + std::to_string(view));
        } else if (view != owner && !relaxed_) {
          Add("I6", k, DdlKey(),
              "membership views diverge at quiescence: partition " + std::to_string(node) +
                  " owned by " + std::to_string(owner) + " platform-side, " +
                  std::to_string(view) + " at kernel " + std::to_string(k));
        }
      }
    }

    // No stranded user PEs: every user partition's owner must be alive
    // (only an unrecovered corpse may legally keep its group).
    for (NodeId node : p_.user_nodes()) {
      KernelId owner = p_.membership().KernelOf(node);
      if (owner != kInvalidKernel && DeadKernel(owner)) {
        report_.stranded_pes++;
        if (!relaxed_) {
          Add("I6", owner, DdlKey(),
              "user PE " + std::to_string(node) + " stranded on dead kernel");
        }
      }
    }
  }

  Platform& p_;
  AuditReport report_;
  bool relaxed_ = false;  // unrecovered dead kernel: wedged state is legal
};

}  // namespace

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << (ok() ? "audit OK" : "audit FAILED") << ": " << violations.size() << " violations, "
     << kernels_audited << " kernels audited (" << kernels_dead << " dead, "
     << kernels_unrecovered << " unrecovered), " << caps_checked << " caps, " << vpes_checked
     << " VPEs, " << parent_edges_checked << "+" << child_edges_checked << " edges";
  if (edges_into_dead != 0 || edges_dangling_wedged != 0 || wedged_ops != 0 ||
      stranded_pes != 0 || caps_marked_wedged != 0 || dead_holder_caps != 0) {
    os << ", wedged-but-legal: " << edges_into_dead << " edges into dead range, "
       << edges_dangling_wedged << " dangling edges, " << wedged_ops << " suspended ops, "
       << stranded_pes << " stranded PEs, " << caps_marked_wedged << " marked caps, "
       << dead_holder_caps << " dead-holder caps";
  }
  for (const AuditViolation& v : violations) {
    os << "\n  [" << v.invariant << "] kernel " << (v.kernel == kInvalidKernel
                                                       ? std::string("-")
                                                       : std::to_string(v.kernel));
    if (!v.key.IsNull()) {
      os << " key=" << v.key.raw();
    }
    os << ": " << v.detail;
  }
  return os.str();
}

AuditReport AuditPlatform(Platform& platform) {
  return Auditor(platform).Run();
}

}  // namespace semperos
