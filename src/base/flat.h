// Allocation-stable containers for per-event bookkeeping.
//
// The request path (a syscall's arrival at its kernel through the reply,
// with its asks, IKCs, endpoint configuration and m3fs work) creates and
// destroys bookkeeping on almost every simulated event: operation records,
// capabilities, queued messages. Node-based standard containers pay a heap
// allocation for each. The three containers here grow to the peak live
// count of whoever owns them and then recycle, so steady-state churn
// allocates nothing:
//
//  * RecordPool<T> — records whose address stays stable while they live;
//  * FlatIndex<T>  — an open-addressed map from a 64-bit key to a record;
//  * Ring<T>       — a FIFO that keeps its capacity.
//
// Each also has Trim(), which frees what it holds beyond its live content.
// The pools hold the run's high-water, not boot's: the boot handshake puts
// an IKC to every peer kernel in flight at once, a peak most runs never
// reach again, so the kernels trim theirs once boot settled (Kernel::Trim,
// called by Platform::Boot).
#ifndef SEMPEROS_BASE_FLAT_H_
#define SEMPEROS_BASE_FLAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/log.h"

namespace semperos {

// Recycled storage for records that are referenced by pointer while they
// live. Every record is its own heap block, so memory follows the peak live
// count rather than a chunk size. A deleted record is reset and parked on a
// free list for the next New(): reset drops what it references (message
// bodies, callbacks) but keeps the capacity its vectors grew. T needs a
// default constructor, a `uint32_t pool_slot` member the pool owns, and
// either a Reset() method or move assignment.
//
// With SEMPEROS_DISABLE_POOLS every New() is a fresh allocation and every
// Delete() frees it, so ASan sees any use of a deleted record.
template <typename T>
class RecordPool {
 public:
  T* New() {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(records_.size());
      records_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    std::unique_ptr<T>& rec = records_[slot];
    if (rec == nullptr) {
      rec = std::make_unique<T>();
      rec->pool_slot = slot;
    }
    ++live_;
    return rec.get();
  }

  void Delete(T* rec) {
    uint32_t slot = rec->pool_slot;
    CHECK(slot < records_.size() && records_[slot].get() == rec);
#ifdef SEMPEROS_DISABLE_POOLS
    records_[slot].reset();
#else
    if constexpr (requires { rec->Reset(); }) {
      rec->Reset();
    } else {
      *rec = T();
      rec->pool_slot = slot;
    }
#endif
    free_.push_back(slot);
    --live_;
  }

  size_t live() const { return live_; }

  // Frees every parked record, and the slot tables too when none is live.
  // New() allocates a fresh record for a slot whose record was freed.
  void Trim() {
    if (live_ == 0) {
      std::vector<std::unique_ptr<T>>().swap(records_);
      std::vector<uint32_t>().swap(free_);
      return;
    }
    for (uint32_t slot : free_) {
      records_[slot].reset();
    }
  }

 private:
  std::vector<std::unique_ptr<T>> records_;  // by slot; parked records stay
  std::vector<uint32_t> free_;               // slots ready for New()
  size_t live_ = 0;
};

// Open-addressed map from a non-zero 64-bit key (a token, a DDL key) to a
// record pointer. Linear probing over a power-of-two table kept at most
// half full; Erase shifts the rest of the probe run back instead of leaving
// tombstones, so probe runs stay short under churn. The table only grows,
// until Trim() frees an empty one.
//
// ForEach visits entries in table order, which depends on the keys and the
// insertion history but never on addresses: it is deterministic, yet not
// sorted. Anything whose order reaches the model must sort.
template <typename T>
class FlatIndex {
 public:
  T* Find(uint64_t key) const {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = Home(key);; i = (i + 1) & Mask()) {
      const Slot& s = slots_[i];
      if (s.key == key) {
        return s.value;
      }
      if (s.key == 0) {
        return nullptr;
      }
    }
  }

  // Inserts a new key; CHECK-fails on a duplicate.
  void Insert(uint64_t key, T* value) {
    CHECK_NE(key, uint64_t{0});
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    size_t i = Home(key);
    while (slots_[i].key != 0) {
      CHECK_NE(slots_[i].key, key) << "duplicate key";
      i = (i + 1) & Mask();
    }
    slots_[i] = Slot{key, value};
    ++size_;
  }

  // Removes `key` and returns its record, or nullptr if it was absent.
  T* Erase(uint64_t key) {
    if (size_ == 0) {
      return nullptr;
    }
    size_t i = Home(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == 0) {
        return nullptr;
      }
      i = (i + 1) & Mask();
    }
    T* value = slots_[i].value;
    // Backward-shift deletion: pull every later entry of the run whose home
    // is not between the hole and itself into the hole.
    for (size_t j = (i + 1) & Mask(); slots_[j].key != 0; j = (j + 1) & Mask()) {
      size_t home = Home(slots_[j].key);
      if (((j - home) & Mask()) >= ((j - i) & Mask())) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return value;
  }

  size_t size() const { return size_; }
  // Slots in the table, and the slot a key probes first (for tests).
  size_t capacity() const { return slots_.size(); }
  size_t HomeSlot(uint64_t key) const { return Home(key); }

  // Frees the table if it holds no entry; the next Insert starts over.
  void Trim() {
    if (size_ == 0) {
      std::vector<Slot>().swap(slots_);
      shift_ = 64;
    }
  }

  // Invokes fn(key, T*) for every entry, in table order. The callback must
  // not insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != 0) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;  // 0: empty
    T* value = nullptr;
  };

  size_t Mask() const { return slots_.size() - 1; }
  size_t Home(uint64_t key) const {
    // Fibonacci hashing: tokens are sequential and DDL keys differ mostly
    // in their low bits, so the multiply spreads both over the table.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    size_t capacity = old.empty() ? 8 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old) {
      if (s.key != 0) {
        size_t i = Home(s.key);
        while (slots_[i].key != 0) {
          i = (i + 1) & Mask();
        }
        slots_[i] = s;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

// FIFO queue over a power-of-two circular buffer. Growing doubles the
// buffer; only Trim() frees it, and only when the ring is empty, so once
// the ring reached its peak length pushes and pops never allocate. A popped slot is reset to T() at once,
// releasing whatever it referenced.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  T& front() { return buf_[head_]; }

  // Appends a default-constructed element and returns it for filling in.
  T& emplace_back() {
    if (size_ == buf_.size()) {
      Grow();
    }
    ++size_;
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void push_back(T value) { emplace_back() = std::move(value); }

  void pop_front() {
    buf_[head_] = T();
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    while (!empty()) {
      pop_front();
    }
  }

  // Frees the buffer if the ring is empty; the next push starts over.
  void Trim() {
    if (empty()) {
      std::vector<T>().swap(buf_);
      head_ = 0;
    }
  }

 private:
  void Grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_BASE_FLAT_H_
