// Streaming latency histogram (HDR-style log-linear buckets).
//
// The open-loop traffic harness records one latency sample per measured
// request — millions per scale point — so percentiles must come from a
// fixed-size streaming structure, not a sorted sample vector. Buckets are
// log-linear: values below 2^kSubBits cycles are exact; above that, each
// power-of-two octave is split into 2^kSubBits linear sub-buckets, bounding
// the relative quantization error by 2^-kSubBits (~3% at the default 5
// bits) at any magnitude. Everything is integer arithmetic on integer
// cycle counts, so histograms are bit-identical across reruns and
// compilers — the determinism tests compare them directly.
//
// Percentile definition (docs/benchmarks.md, "Open-loop methodology"):
// Percentile(q) is the upper edge of the bucket holding the nearest-rank
// sample ceil(q * count), clamped to the exact observed maximum. p0 is the
// exact minimum.
//
// Storage follows the samples: a histogram keeps the counts of the whole
// octaves from its smallest to its largest sample, and widens that range
// when a sample falls outside it, downward as well as upward. Request
// latencies of 40 us to 1 ms span five octaves, 1.25 KiB of counts; a
// range starting at bucket 0 needs 4.3 KiB, and its growth by doubling up
// to 6.5 KiB.
#ifndef SEMPEROS_TRAFFIC_HISTOGRAM_H_
#define SEMPEROS_TRAFFIC_HISTOGRAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/log.h"
#include "base/types.h"

namespace semperos {

class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBits = 5;  // 32 linear sub-buckets per octave
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;

  void Record(Cycles value) {
    uint32_t index = BucketOf(value);
    Cover(index, index + 1);
    buckets_[index - first_]++;
    count_++;
    sum_ += value;
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
  }

  uint64_t count() const { return count_; }
  Cycles min() const { return count_ == 0 ? 0 : min_; }
  Cycles max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  // Heap bytes the bucket counts hold (for tests and memory budgets).
  size_t heap_bytes() const { return buckets_.capacity() * sizeof(uint64_t); }

  // Nearest-rank percentile, in cycles. q in [0, 1].
  Cycles Percentile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    if (q <= 0.0) {
      return min_;
    }
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) {
      ++rank;  // ceil
    }
    if (rank < 1) {
      rank = 1;
    }
    if (rank > count_) {
      rank = count_;
    }
    uint64_t seen = 0;
    for (uint32_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) {
        Cycles upper = BucketUpper(first_ + i);
        return upper > max_ ? max_ : upper;
      }
    }
    return max_;
  }

  void Merge(const LatencyHistogram& other) {
    if (other.count_ == 0) {
      return;
    }
    Cover(other.first_, other.end());
    for (uint32_t i = 0; i < other.buckets_.size(); ++i) {
      buckets_[other.first_ + i - first_] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = other.min_ < min_ ? other.min_ : min_;
    max_ = other.max_ > max_ ? other.max_ : max_;
  }

  // Order-independent 64-bit digest of the full bucket contents (plus the
  // exact extremes), for determinism assertions: two histograms with equal
  // fingerprints recorded the same multiset of bucketed samples.
  uint64_t Fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over (index, count) pairs
    auto mix = [&h](uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
      }
    };
    for (uint32_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != 0) {
        mix(first_ + i);
        mix(buckets_[i]);
      }
    }
    mix(count_);
    mix(sum_);
    mix(min_ == UINT64_MAX ? 0 : min_);
    mix(max_);
    return h;
  }

  bool operator==(const LatencyHistogram& other) const {
    if (count_ != other.count_ || sum_ != other.sum_ || max_ != other.max_ ||
        min() != other.min()) {
      return false;
    }
    uint32_t lo = std::min(first_, other.first_);
    uint32_t hi = std::max(end(), other.end());
    for (uint32_t index = lo; index < hi; ++index) {
      if (CountAt(index) != other.CountAt(index)) {
        return false;
      }
    }
    return true;
  }

  // Bucket index of a value: identity below 2^kSubBits, log-linear above.
  static uint32_t BucketOf(Cycles value) {
    if (value < kSubBuckets) {
      return static_cast<uint32_t>(value);
    }
    uint32_t msb = 63 - static_cast<uint32_t>(__builtin_clzll(value));
    uint32_t shift = msb - kSubBits;
    uint32_t sub = static_cast<uint32_t>(value >> shift) - kSubBuckets;
    return (msb - kSubBits + 1) * kSubBuckets + sub;
  }

  // Largest value mapping to bucket `index` (inclusive upper edge).
  static Cycles BucketUpper(uint32_t index) {
    if (index < kSubBuckets) {
      return index;
    }
    uint32_t octave = index / kSubBuckets;      // >= 1
    uint32_t sub = index % kSubBuckets;
    uint32_t shift = octave - 1;                 // msb = octave + kSubBits - 1
    return ((static_cast<Cycles>(kSubBuckets + sub) + 1) << shift) - 1;
  }

 private:
  // One past the last stored bucket index.
  uint32_t end() const { return first_ + static_cast<uint32_t>(buckets_.size()); }

  uint64_t CountAt(uint32_t index) const {
    return index >= first_ && index < end() ? buckets_[index - first_] : 0;
  }

  // Widens the stored range to the whole octaves covering buckets
  // [lo, hi), reallocating to the exact new size.
  void Cover(uint32_t lo, uint32_t hi) {
    if (!buckets_.empty()) {
      if (lo >= first_ && hi <= end()) {
        return;
      }
      lo = std::min(lo, first_);
      hi = std::max(hi, end());
    }
    lo -= lo % kSubBuckets;
    hi += (kSubBuckets - hi % kSubBuckets) % kSubBuckets;
    std::vector<uint64_t> wider(hi - lo, 0);
    if (!buckets_.empty()) {
      std::copy(buckets_.begin(), buckets_.end(), wider.begin() + (first_ - lo));
    }
    buckets_.swap(wider);
    first_ = lo;
  }

  std::vector<uint64_t> buckets_;  // counts of buckets [first_, end())
  uint32_t first_ = 0;             // a multiple of kSubBuckets
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  Cycles min_ = UINT64_MAX;
  Cycles max_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_TRAFFIC_HISTOGRAM_H_
