#include "trace/trace.h"

#include <functional>

#include "base/log.h"

namespace semperos {

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

void TracePaths::ShrinkToFit() {
  bytes_.shrink_to_fit();
  refs_.shrink_to_fit();
}

void Trace::ShrinkToFit() {
  ops.shrink_to_fit();
  paths.ShrinkToFit();
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

}  // namespace semperos
