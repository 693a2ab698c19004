// Distributed Data Lookup (DDL): global capability addressing (paper §3.2).
//
// Every kernel object and capability that must be referable by other kernels
// gets a DDL key — a 64-bit global identifier split into regions:
//
//   [ PE id : 14 | VPE id : 14 | type : 8 | object id : 28 ]
//
// The PE-id region partitions the key space; the (replicated) membership
// table maps partitions to kernels, which defines the PE groups. Given any
// DDL key, any kernel can find the owning kernel with one table lookup —
// "a key enabler for our capability scheme" (paper Figure 2).
//
// Unlike the paper's implementation the mapping is NOT static after boot:
// the table is epoch-versioned, and kernels propagate partition
// reassignments with EPOCH_UPDATE inter-kernel calls (see kernel.h,
// "PE migration"). Kernels with a stale epoch keep routing to the previous
// owner, which forwards for the one settle round the update needs to reach
// everyone.
#ifndef SEMPEROS_CORE_DDL_H_
#define SEMPEROS_CORE_DDL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/log.h"
#include "base/types.h"

namespace semperos {

// Kinds of kernel objects / capabilities addressable through the DDL.
enum class CapType : uint8_t {
  kNone = 0,
  kVpe,       // control over a VPE
  kMem,       // byte-granular memory range
  kSendGate,  // right to send to a receive endpoint
  kRecvGate,  // a receive endpoint
  kService,   // a registered service (m3fs instance)
  kSession,   // a client's connection to a service
  kKernel,    // kernel-to-kernel control objects
};

const char* CapTypeName(CapType type);

class DdlKey {
 public:
  // The PE and VPE fields cap the platform size (VPE ids are numbered
  // globally, so both scale with the mesh); 14 bits covers the traffic
  // harness's 10k+-PE open-loop scale points. Widening them is safe for key
  // *ordering* — the field order (pe, vpe, type, obj) is what sorts — but
  // changes raw values, so nothing may depend on absolute keys.
  static constexpr int kPeBits = 14;
  static constexpr int kVpeBits = 14;
  static constexpr int kTypeBits = 8;
  static constexpr int kObjBits = 28;

  constexpr DdlKey() : raw_(0) {}
  constexpr explicit DdlKey(uint64_t raw) : raw_(raw) {}

  static DdlKey Make(NodeId pe, VpeId vpe, CapType type, uint64_t obj) {
    CHECK_LT(pe, 1u << kPeBits);
    CHECK_LT(vpe, 1u << kVpeBits);
    CHECK_LT(obj, 1ull << kObjBits);
    uint64_t raw = (static_cast<uint64_t>(pe) << (kVpeBits + kTypeBits + kObjBits)) |
                   (static_cast<uint64_t>(vpe) << (kTypeBits + kObjBits)) |
                   (static_cast<uint64_t>(type) << kObjBits) | obj;
    return DdlKey(raw);
  }

  constexpr uint64_t raw() const { return raw_; }
  constexpr bool IsNull() const { return raw_ == 0; }

  NodeId pe() const { return static_cast<NodeId>(raw_ >> (kVpeBits + kTypeBits + kObjBits)); }
  VpeId vpe() const {
    return static_cast<VpeId>((raw_ >> (kTypeBits + kObjBits)) & ((1u << kVpeBits) - 1));
  }
  CapType type() const {
    return static_cast<CapType>((raw_ >> kObjBits) & ((1u << kTypeBits) - 1));
  }
  uint64_t obj() const { return raw_ & ((1ull << kObjBits) - 1); }

  friend constexpr bool operator==(DdlKey a, DdlKey b) { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(DdlKey a, DdlKey b) { return a.raw_ != b.raw_; }

 private:
  uint64_t raw_;
};

}  // namespace semperos

// DdlKey can key unordered containers directly (tests and tools do; the
// kernel's own tables are flat, see base/flat.h).
template <>
struct std::hash<semperos::DdlKey> {
  size_t operator()(semperos::DdlKey key) const noexcept {
    // SplitMix64 finalizer: DDL keys are structured, so mix before bucketing.
    uint64_t z = key.raw() + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

namespace semperos {

// Membership table: partition (= PE id) -> kernel id. Present at every
// kernel (paper Figure 2, left). Boot-time assignments use Assign; runtime
// reassignments (PE migration, failover) go through Apply, which versions
// the table with an epoch so kernels can tell stale views from current ones.
//
// Copies share the mapping until one of them changes it (copy-on-write):
// every kernel reads the platform's boot-time table, one slot per PE,
// until a migration or failover reassigns a partition at that kernel. A
// table writes only a mapping it allocated itself and that no copy shares,
// so the copies that different shards of the parallel engine own need no
// synchronization. The epochs are each copy's own.
class MembershipTable {
 public:
  MembershipTable() : MembershipTable(0) {}
  explicit MembershipTable(uint32_t pe_count)
      : kernel_of_(std::make_shared<std::vector<KernelId>>(pe_count, kInvalidKernel)),
        owned_(true) {}

  // A copy shares the source's mapping; neither writes it from then on.
  MembershipTable(const MembershipTable& other)
      : kernel_of_(other.kernel_of_), pe_epoch_(other.pe_epoch_), epoch_(other.epoch_) {
    other.owned_ = false;
  }
  MembershipTable& operator=(const MembershipTable& other) {
    if (this != &other) {
      *this = MembershipTable(other);
    }
    return *this;
  }
  MembershipTable(MembershipTable&&) noexcept = default;
  MembershipTable& operator=(MembershipTable&&) noexcept = default;

  // Boot-time wiring; does not touch the epochs (every kernel starts at 0).
  void Assign(NodeId pe, KernelId kernel) { Mapping().at(pe) = kernel; }

  // Applies a reassignment learned from a peer kernel. Per-PE epochs gate
  // the mapping: back-to-back migrations of one PE broadcast from
  // different sources, and only pairwise FIFO is guaranteed, so a peer
  // can see the updates out of order — the newest epoch must win, and a
  // late stale broadcast must not roll the mapping back. (Successive
  // owners of a PE mint strictly increasing epochs: the destination
  // applies the incoming epoch at install, before it could re-migrate.)
  // The table-wide epoch merges monotonically for observers.
  void Apply(NodeId pe, KernelId kernel, uint64_t epoch) {
    if (epoch > PeEpochs().at(pe)) {
      Mapping()[pe] = kernel;
      pe_epoch_[pe] = epoch;
    }
    epoch_ = epoch > epoch_ ? epoch : epoch_;
  }

  uint64_t Epoch() const { return epoch_; }
  uint64_t PeEpoch(NodeId pe) const { return pe < pe_epoch_.size() ? pe_epoch_[pe] : 0; }

  KernelId KernelOf(NodeId pe) const { return kernel_of_->at(pe); }
  KernelId KernelOfKey(DdlKey key) const { return KernelOf(key.pe()); }

  uint32_t PeCount() const { return static_cast<uint32_t>(kernel_of_->size()); }

  // Whether this table and `other` read one shared mapping (for tests).
  bool SharesMappingWith(const MembershipTable& other) const {
    return kernel_of_ == other.kernel_of_;
  }

 private:
  // The mapping, for writing: copied first unless this table owns it.
  std::vector<KernelId>& Mapping() {
    if (!owned_) {
      kernel_of_ = std::make_shared<std::vector<KernelId>>(*kernel_of_);
      owned_ = true;
    }
    return *kernel_of_;
  }

  // Lazily sized: tables built with Assign alone never see runtime
  // reassignments until Apply runs.
  std::vector<uint64_t>& PeEpochs() {
    if (pe_epoch_.size() < kernel_of_->size()) {
      pe_epoch_.resize(kernel_of_->size(), 0);
    }
    return pe_epoch_;
  }

  std::shared_ptr<std::vector<KernelId>> kernel_of_;
  // Whether this table allocated kernel_of_ and no copy shares it. Copying
  // clears it on the source too.
  mutable bool owned_ = false;
  std::vector<uint64_t> pe_epoch_;    // last epoch applied per partition
  uint64_t epoch_ = 0;
};

// Epoch-invalidated cache of hot *remote* DDL lookups.
//
// Resolving a remote key costs a full decode + membership walk
// (TimingModel::ddl_decode) every time, even though the answer only
// changes when the partition is reassigned. Every reassignment — PE
// migration handoff or failover takeover — bumps the membership epoch, so
// the table-wide epoch is a complete invalidation signal: the cache
// remembers the epoch it was filled under and drops everything the moment
// the current epoch differs. Kernels additionally call Invalidate() from
// the paths that change ownership (ApplyMembershipUpdate, failover
// recovery), which covers learned-owner hints that arrive without an
// epoch bump visible at this kernel.
//
// The cache holds keys only (the lookup result is re-derived from the
// membership table; what the hit buys is the modeled decode cost), so a
// stale entry can never produce a wrong routing decision — only a wrong
// cost — and the epoch guard removes even that.
class DdlCache {
 public:
  // Bounded: a wholesale clear on overflow keeps the cache small. 4096 hot
  // keys comfortably covers the working set of the largest modeled
  // workloads' per-kernel remote traffic.
  static constexpr size_t kMaxEntries = 4096;

  // True if `key` was cached under the current epoch ("hit"); otherwise
  // inserts it and returns false. A changed epoch drops the whole cache
  // before probing.
  bool Lookup(DdlKey key, uint64_t current_epoch) {
    CHECK(!key.IsNull());
    if (current_epoch != epoch_seen_) {
      Invalidate();
      epoch_seen_ = current_epoch;
    }
    if (Contains(key.raw())) {
      return true;
    }
    if (size_ >= kMaxEntries) {
      Invalidate();
    }
    Insert(key.raw());
    return false;
  }

  void Invalidate() {
    if (size_ != 0) {
      std::fill(slots_.begin(), slots_.end(), uint64_t{0});
      size_ = 0;
    }
  }

  size_t size() const { return size_; }

 private:
  // Open-addressed key set: linear probing over a power-of-two table kept
  // at most half full, 0 marking an empty slot (the null key is never
  // cached). Entries are only ever dropped all at once, so there is no
  // per-key deletion; the table grows with the entry count up to
  // 2 * kMaxEntries slots and keeps its capacity across clears, so
  // steady-state lookups allocate nothing.
  size_t Home(uint64_t raw) const {
    return static_cast<size_t>((raw * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  bool Contains(uint64_t raw) const {
    if (size_ == 0) {
      return false;
    }
    size_t mask = slots_.size() - 1;
    for (size_t i = Home(raw); slots_[i] != 0; i = (i + 1) & mask) {
      if (slots_[i] == raw) {
        return true;
      }
    }
    return false;
  }

  void Insert(uint64_t raw) {
    if ((size_ + 1) * 2 > slots_.size()) {
      std::vector<uint64_t> old = std::move(slots_);
      slots_.assign(old.empty() ? 16 : old.size() * 2, uint64_t{0});
      shift_ = 64 - std::countr_zero(slots_.size());
      size_ = 0;
      for (uint64_t k : old) {
        if (k != 0) {
          Insert(k);
        }
      }
    }
    size_t mask = slots_.size() - 1;
    size_t i = Home(raw);
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = raw;
    ++size_;
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
  int shift_ = 64;
  uint64_t epoch_seen_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_DDL_H_
