#include "trace/trace.h"

#include <bit>
#include <cstring>
#include <functional>

#include "base/log.h"

namespace semperos {

namespace {

size_t VarintSize(uint64_t v) { return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7; }

uint8_t* PutVarint(uint8_t* out, uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

}  // namespace

TraceOp TraceOp::Compute(Cycles cycles) {
  TraceOp op;
  op.kind = TraceOpKind::kCompute;
  op.arg = cycles;
  return op;
}

uint32_t TracePaths::Intern(std::string_view path) {
  uint32_t hash = static_cast<uint32_t>(std::hash<std::string_view>{}(path));
  if (index_.empty()) {
    for (uint32_t i = 0; i < refs_.size(); ++i) {
      if (Matches(i, path, hash)) {
        return i;
      }
    }
  } else {
    size_t mask = index_.size() - 1;
    for (size_t slot = hash & mask; index_[slot] != 0; slot = (slot + 1) & mask) {
      if (Matches(index_[slot] - 1, path, hash)) {
        return index_[slot] - 1;
      }
    }
  }
  CHECK_LE(bytes_.size() + path.size(), UINT32_MAX) << "trace path table full";
  bytes_.append(path);
  refs_.push_back(Ref{static_cast<uint32_t>(bytes_.size()), hash});
  uint32_t added = static_cast<uint32_t>(refs_.size() - 1);
  if (refs_.size() > kScanPaths && index_.size() < 2 * refs_.size()) {
    index_.assign(index_.empty() ? 4 * kScanPaths : 2 * index_.size(), 0);
    for (uint32_t i = 0; i < refs_.size(); ++i) {
      Place(i);
    }
  } else if (!index_.empty()) {
    Place(added);
  }
  return added;
}

void TracePaths::Place(uint32_t index) {
  size_t mask = index_.size() - 1;
  size_t slot = refs_[index].hash & mask;
  while (index_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  index_[slot] = index + 1;
}

std::string_view TracePaths::operator[](uint32_t index) const {
  CHECK_LT(index, refs_.size());
  uint32_t begin = index == 0 ? 0 : refs_[index - 1].end;
  return std::string_view(bytes_).substr(begin, refs_[index].end - begin);
}

void TracePaths::clear() {
  bytes_.clear();
  refs_.clear();
  index_.clear();
}

void Trace::AddPathOp(TraceOpKind kind, std::string_view path, uint64_t arg, uint32_t flags) {
  TraceOp op;
  op.kind = kind;
  op.flags = static_cast<uint16_t>(flags);
  op.path = paths.Intern(path);
  op.arg = arg;
  ops.push_back(op);
}

void Trace::Open(std::string_view path, uint32_t flags) {
  AddPathOp(TraceOpKind::kOpen, path, 0, flags);
}
void Trace::Read(std::string_view path, uint64_t bytes) {
  AddPathOp(TraceOpKind::kRead, path, bytes);
}
void Trace::Write(std::string_view path, uint64_t bytes) {
  AddPathOp(TraceOpKind::kWrite, path, bytes);
}
void Trace::Seek(std::string_view path, uint64_t offset) {
  AddPathOp(TraceOpKind::kSeek, path, offset);
}
void Trace::Close(std::string_view path) { AddPathOp(TraceOpKind::kClose, path, 0); }
void Trace::Stat(std::string_view path) { AddPathOp(TraceOpKind::kStat, path, 0); }
void Trace::Mkdir(std::string_view path) { AddPathOp(TraceOpKind::kMkdir, path, 0); }
void Trace::Unlink(std::string_view path) { AddPathOp(TraceOpKind::kUnlink, path, 0); }
void Trace::ReadDir(std::string_view path) { AddPathOp(TraceOpKind::kReadDir, path, 0); }

PackedTrace::PackedTrace(const Trace& trace)
    : path_count_(static_cast<uint32_t>(trace.paths.size())) {
  // Sizes the block, then fills it: one allocation of exactly the bytes
  // the trace packs to.
  size_t path_bytes = 0;
  for (uint32_t i = 0; i < path_count_; ++i) {
    path_bytes += trace.paths[i].size();
  }
  ops_begin_ = path_count_ * sizeof(uint32_t) + path_bytes;
  size_ = ops_begin_;
  for (const TraceOp& op : trace.ops) {
    size_ += 1 + VarintSize(op.path) + VarintSize(op.arg);
  }
  if (size_ == 0) {
    return;
  }
  block_ = std::make_unique_for_overwrite<uint8_t[]>(size_);
  uint8_t* ends = block_.get();
  uint8_t* bytes = ends + path_count_ * sizeof(uint32_t);
  uint32_t end = 0;
  for (uint32_t i = 0; i < path_count_; ++i) {
    std::string_view path = trace.paths[i];
    std::memcpy(bytes + end, path.data(), path.size());
    end += static_cast<uint32_t>(path.size());  // TracePaths holds < 2^32 bytes
    std::memcpy(ends + i * sizeof(uint32_t), &end, sizeof(end));
  }
  uint8_t* out = block_.get() + ops_begin_;
  for (const TraceOp& op : trace.ops) {
    CHECK_LT(op.flags, 16u) << "open flags past four bits";
    *out++ = static_cast<uint8_t>(static_cast<uint8_t>(op.kind) | op.flags << 4);
    out = PutVarint(out, op.path);
    out = PutVarint(out, op.arg);
  }
}

std::string_view PackedTrace::Path(uint32_t index) const {
  CHECK_LT(index, path_count_);
  const uint8_t* ends = block_.get();
  uint32_t begin = 0;
  uint32_t end = 0;
  if (index > 0) {
    std::memcpy(&begin, ends + (index - 1) * sizeof(uint32_t), sizeof(begin));
  }
  std::memcpy(&end, ends + index * sizeof(uint32_t), sizeof(end));
  const char* bytes = reinterpret_cast<const char*>(ends + path_count_ * sizeof(uint32_t));
  return std::string_view(bytes + begin, end - begin);
}

}  // namespace semperos
