// Capabilities and the mapping database (paper §3.4, §4.3).
//
// A capability references a kernel object, a holder VPE, and other
// capabilities: a parent and a list of children. SemperOS keeps this sharing
// information in a tree used for recursive revocation; tree edges may span
// kernels, in which case they are DDL keys pointing into another kernel's
// capability space (paper Figure 2).
#ifndef SEMPEROS_CORE_CAPABILITY_H_
#define SEMPEROS_CORE_CAPABILITY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/flat.h"
#include "base/log.h"
#include "base/types.h"
#include "core/ddl.h"
#include "core/protocol.h"

namespace semperos {

struct RevokeTask;

class Capability {
 public:
  Capability() = default;
  Capability(DdlKey key, CapType type, VpeId holder, CapSel sel)
      : key_(key), type_(type), holder_(holder), sel_(sel) {}

  DdlKey key() const { return key_; }
  CapType type() const { return type_; }
  VpeId holder() const { return holder_; }
  CapSel sel() const { return sel_; }

  DdlKey parent() const { return parent_; }
  void set_parent(DdlKey parent) { parent_ = parent; }

  const std::vector<DdlKey>& children() const { return children_; }
  void AddChild(DdlKey child) {
    children_.push_back(child);
  }
  bool RemoveChild(DdlKey child) {
    for (auto it = children_.begin(); it != children_.end(); ++it) {
      if (*it == child) {
        children_.erase(it);
        return true;
      }
    }
    return false;
  }

  // Resource description (what a child capability would inherit).
  CapPayload& payload() { return payload_; }
  const CapPayload& payload() const { return payload_; }

  // --- Revocation state (two-phase mark-and-sweep, paper §4.3.3) ---
  bool marked() const { return task_ != nullptr; }
  RevokeTask* task() const { return task_; }
  void Mark(RevokeTask* task) {
    CHECK(task_ == nullptr);
    task_ = task;
  }

  // The memory endpoints this capability was activated on, bit i for
  // user_ep::kMem0 + i; a revoke invalidates every one of them.
  uint8_t activated_eps() const { return activated_eps_; }
  void SetActivated(EpId ep) {
    CHECK(ep >= user_ep::kMem0 && ep - user_ep::kMem0 < user_ep::kNumMemEps) << "endpoint " << ep;
    activated_eps_ |= static_cast<uint8_t>(1u << (ep - user_ep::kMem0));
  }
  void set_activated_eps(uint8_t eps) { activated_eps_ = eps; }

 private:
  DdlKey key_;
  CapType type_ = CapType::kNone;
  VpeId holder_ = kInvalidVpe;
  CapSel sel_ = kInvalidSel;
  DdlKey parent_;
  std::vector<DdlKey> children_;
  CapPayload payload_;
  RevokeTask* task_ = nullptr;
  uint8_t activated_eps_ = 0;
  static_assert(user_ep::kNumMemEps <= 8, "one bit per memory endpoint");

 public:
  // CapSpace storage (RecordPool): the slot this record occupies, the
  // identity a fresh or recycled record takes on, and the reset applied
  // when it is recycled. Reset keeps the children list's capacity for the
  // next capability stored here.
  uint32_t pool_slot = 0;
  void Init(DdlKey key, CapType type, VpeId holder, CapSel sel) {
    key_ = key;
    type_ = type;
    holder_ = holder;
    sel_ = sel;
  }
  void Reset() {
    std::vector<DdlKey> children = std::move(children_);
    children.clear();
    uint32_t slot = pool_slot;
    *this = Capability();
    children_ = std::move(children);
    pool_slot = slot;
  }
};

// Selector -> capability key, for the live capabilities of one VPE.
// Selectors are allocated sequentially per VPE (VpeState::AllocSel) and
// never reused, so a table indexed by selector would keep a slot for every
// capability the VPE ever held: a traffic server carries one for every
// request it served. This table keeps only the live (selector, key) pairs,
// sorted by selector. A new capability takes the VPE's highest selector, so
// Set appends; Find binary-searches a few dozen entries (131 at most on the
// benchmark workloads), and Erase closes the gap. Memory follows the peak
// live count.
class CapTable {
 public:
  // Key at `sel`, or the null key if no live capability has that selector.
  DdlKey Find(CapSel sel) const {
    size_t i = Position(sel);
    return Holds(i, sel) ? entries_[i].key : DdlKey();
  }

  // Inserts or overwrites. Migration install and obtain completions may set
  // a selector below the highest live one.
  void Set(CapSel sel, DdlKey key) {
    CHECK(!key.IsNull());
    if (entries_.empty() || entries_.back().sel < sel) {
      entries_.push_back(Entry{sel, key});
      return;
    }
    size_t i = Position(sel);
    if (Holds(i, sel)) {
      entries_[i].key = key;
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i), Entry{sel, key});
    }
  }

  void Erase(CapSel sel) {
    size_t i = Position(sel);
    if (Holds(i, sel)) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  // Number of live entries.
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

  // Highest live selector, or kInvalidSel if the table is empty.
  CapSel LastSel() const { return entries_.empty() ? kInvalidSel : entries_.back().sel; }

  // Invokes fn(sel, key) for every live entry, in ascending selector order.
  // fn must not change the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.sel, e.key);
    }
  }

  // True if fn(sel, key) returns true for any live entry, in ascending
  // selector order; stops at the first hit.
  template <typename Fn>
  bool Any(Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (fn(e.sel, e.key)) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    CapSel sel;
    DdlKey key;
  };

  // Index of the first entry whose selector is not below `sel`.
  size_t Position(CapSel sel) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), sel,
                               [](const Entry& e, CapSel s) { return e.sel < s; });
    return static_cast<size_t>(it - entries_.begin());
  }
  bool Holds(size_t i, CapSel sel) const { return i < entries_.size() && entries_[i].sel == sel; }

  std::vector<Entry> entries_;  // ascending selector
};

// Kernel-side state of one VPE ("comparable to a single-threaded process",
// paper §2.2). One VPE per user PE; the VPE id is the PE's NodeId.
struct VpeState {
  VpeId id = kInvalidVpe;
  NodeId node = kInvalidNode;
  bool alive = true;
  bool is_service = false;
  // Frozen for migration: syscalls and exchanges touching this VPE are
  // denied with kVpeMigrating (retryable) until the handoff completes.
  bool migrating = false;
  CapSel next_sel = 1;
  // The capabilities themselves live in the kernel's CapSpace so they can
  // also be found by DDL key.
  CapTable table;

  CapSel AllocSel() { return next_sel++; }
};

// VPE id -> kernel-side VPE state, for the VPEs of one kernel's group.
// VPE ids are PE NodeIds, numbered over the whole platform, so a table
// indexed by id would give every kernel a slot for every PE (4,225 at the
// largest scale point, for its 65 VPEs). The states are owned by a vector
// sorted by id, which ForEach walks in ascending id order; the lookup every
// syscall dispatch performs goes through an open-addressed index (FlatIndex).
class VpeTable {
 public:
  VpeState* Find(VpeId id) { return index_.Find(Key(id)); }
  const VpeState* Find(VpeId id) const { return index_.Find(Key(id)); }

  VpeState& At(VpeId id) {
    VpeState* vpe = Find(id);
    CHECK(vpe != nullptr) << "unknown VPE " << id;
    return *vpe;
  }
  const VpeState& At(VpeId id) const {
    const VpeState* vpe = Find(id);
    CHECK(vpe != nullptr) << "unknown VPE " << id;
    return *vpe;
  }

  // Returns nullptr if `id` is already present (mirrors map::emplace).
  VpeState* Insert(VpeState&& vpe) {
    VpeId id = vpe.id;
    if (Find(id) != nullptr) {
      return nullptr;
    }
    auto state = std::make_unique<VpeState>(std::move(vpe));
    VpeState* raw = state.get();
    by_id_.insert(LowerBound(id), std::move(state));
    index_.Insert(Key(id), raw);
    return raw;
  }

  void Erase(VpeId id) {
    CHECK(index_.Erase(Key(id)) != nullptr) << "erase of unknown VPE " << id;
    by_id_.erase(LowerBound(id));
  }

  uint32_t size() const { return static_cast<uint32_t>(by_id_.size()); }

  // Invokes fn(const VpeState&) for every live VPE in ascending id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& vpe : by_id_) {
      fn(static_cast<const VpeState&>(*vpe));
    }
  }

 private:
  // FlatIndex keys are non-zero; VPE ids start at 0.
  static uint64_t Key(VpeId id) { return uint64_t{id} + 1; }

  std::vector<std::unique_ptr<VpeState>>::iterator LowerBound(VpeId id) {
    return std::lower_bound(
        by_id_.begin(), by_id_.end(), id,
        [](const std::unique_ptr<VpeState>& vpe, VpeId v) { return vpe->id < v; });
  }

  std::vector<std::unique_ptr<VpeState>> by_id_;  // ascending id
  FlatIndex<VpeState> index_;
};

// Per-kernel capability storage, indexed by DDL key. Capabilities live in
// recycled records (RecordPool), so a Capability* stays valid until the
// capability is erased, and are found through an open-addressed index
// (FlatIndex): creating and deleting capabilities at the request rate
// allocates nothing once the kernel reached its peak capability count.
class CapSpace {
 public:
  Capability* Create(DdlKey key, CapType type, VpeId holder, CapSel sel) {
    Capability* cap = pool_.New();
    cap->Init(key, type, holder, sel);
    index_.Insert(key.raw(), cap);
    return cap;
  }

  Capability* Find(DdlKey key) const { return index_.Find(key.raw()); }

  void Erase(DdlKey key) {
    Capability* cap = index_.Erase(key.raw());
    CHECK(cap != nullptr) << "erase of unknown DDL key";
    pool_.Delete(cap);
  }

  size_t size() const { return index_.size(); }

  // Invokes fn(DdlKey, Capability*) for every capability, in index order
  // (deterministic, not sorted: callers whose work reaches the model sort).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    index_.ForEach([&fn](uint64_t raw, Capability* cap) { fn(DdlKey(raw), cap); });
  }

 private:
  RecordPool<Capability> pool_;
  FlatIndex<Capability> index_;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_CAPABILITY_H_
