// Per-type freelist recycling for hot-path message bodies.
//
// The kernels mint a shared_ptr message body for every syscall reply, IKC,
// exchange-ask and credit return — tens of millions of make_shared calls in
// one figure sweep, each a malloc/free pair for an object that lives a few
// simulated microseconds. NewMsg<T>() routes the combined object+control
// block through a per-type freelist instead: std::allocate_shared performs
// its single allocation via PoolAllocator, whose deallocate() parks the block
// for the next message of the same type. Steady-state message churn then
// allocates nothing; memory high-water marks at the peak in-flight count.
//
// The pools hold the run's high-water, not boot's. The boot handshake is
// the one moment every kernel has an IKC in flight to every peer, far more
// bodies than most runs ever have in flight again, so Platform::Boot()
// calls TrimMsgPools() once it settled and the pools regrow to what the
// run itself needs. A destroyed Platform trims them again once its members
// released their bodies, so nothing a finished run used stays parked.
//
// Configure with -DSEMPEROS_DISABLE_POOLS=ON (CMake option) to fall back to
// plain make_shared. The ASan/UBSan CI job builds that way so pooled blocks
// cannot mask use-after-free or lifetime bugs: with recycling on, a stale
// reference to a reused block reads plausible live data; with it off, the
// sanitizer sees the free.
//
// Freelists are thread_local, so platforms run on different threads of one
// process share no pool; see FreeList() below.
#ifndef SEMPEROS_DTU_MSG_POOL_H_
#define SEMPEROS_DTU_MSG_POOL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace semperos {

#ifndef SEMPEROS_DISABLE_POOLS

namespace pool_internal {

// One freelist per block type U (the control-block-plus-object type
// allocate_shared rebinds to), so every entry has exactly sizeof(U) bytes.
// thread_local: independent runs on different threads of one process each
// allocate and free from their own thread's lists, without locks. The
// holder's destructor releases parked blocks when a thread exits; without
// it each thread's peak in-flight message memory would leak. Every holder
// of a thread is listed in Holders(), so TrimMsgPools() can free them all.
struct FreeListHolder;

inline std::vector<FreeListHolder*>& Holders() {
  static thread_local std::vector<FreeListHolder*> holders;
  return holders;
}

struct FreeListHolder {
  std::vector<void*> blocks;

  // Holders() is constructed within the first holder's constructor, so it
  // outlives every holder of its thread.
  FreeListHolder() { Holders().push_back(this); }
  ~FreeListHolder() {
    Free();
    std::vector<FreeListHolder*>& holders = Holders();
    holders.erase(std::find(holders.begin(), holders.end(), this));
  }

  void Free() {
    for (void* p : blocks) {
      ::operator delete(p);
    }
    std::vector<void*>().swap(blocks);
  }
};

template <typename U>
std::vector<void*>& FreeList() {
  static thread_local FreeListHolder holder;
  return holder.blocks;
}

template <typename U>
struct PoolAllocator {
  using value_type = U;

  template <typename V>
  struct rebind {
    using other = PoolAllocator<V>;
  };

  PoolAllocator() = default;
  template <typename V>
  PoolAllocator(const PoolAllocator<V>&) {}  // NOLINT(google-explicit-constructor)

  U* allocate(size_t n) {
    std::vector<void*>& free_list = FreeList<U>();
    if (n == 1 && !free_list.empty()) {
      void* p = free_list.back();
      free_list.pop_back();
      return static_cast<U*>(p);
    }
    return static_cast<U*>(::operator new(n * sizeof(U)));
  }

  void deallocate(U* p, size_t n) {
    if (n == 1) {
      FreeList<U>().push_back(p);
    } else {
      ::operator delete(p);
    }
  }

  template <typename V>
  friend bool operator==(const PoolAllocator&, const PoolAllocator<V>&) {
    return true;
  }
};

}  // namespace pool_internal

// Allocates a message body of type T from T's freelist pool.
template <typename T, typename... Args>
std::shared_ptr<T> NewMsg(Args&&... args) {
  return std::allocate_shared<T>(pool_internal::PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

// Frees every block parked in the calling thread's freelists. Bodies in
// flight are untouched; they park again when released.
inline void TrimMsgPools() {
  for (pool_internal::FreeListHolder* holder : pool_internal::Holders()) {
    holder->Free();
  }
}

#else  // SEMPEROS_DISABLE_POOLS

template <typename T, typename... Args>
std::shared_ptr<T> NewMsg(Args&&... args) {
  return std::make_shared<T>(std::forward<Args>(args)...);
}

inline void TrimMsgPools() {}

#endif  // SEMPEROS_DISABLE_POOLS

}  // namespace semperos

#endif  // SEMPEROS_DTU_MSG_POOL_H_
