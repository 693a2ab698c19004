#include "fs/fs_image.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace semperos {

namespace {

uint64_t RoundUpToExtent(uint64_t bytes) {
  if (bytes == 0) {
    return kFsExtentBytes;
  }
  return (bytes + kFsExtentBytes - 1) / kFsExtentBytes * kFsExtentBytes;
}

}  // namespace

std::string_view FsImage::ParentOf(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == 0 || pos == std::string_view::npos) {
    return "/";
  }
  return path.substr(0, pos);
}

FsImage::PathRef FsImage::Ref(std::string_view path) {
  return PathRef{path, std::hash<std::string_view>{}(path)};
}

void FsImage::Freeze() {
  auto merged = std::make_shared<PathMap>();
  merged->reserve(live_);
  if (base_ != nullptr) {
    for (const auto& [key, inode] : *base_) {
      // Promoted and tombstoned entries are settled by the overlay.
      if (!overlay_.contains(PathRef{key.path, key.hash})) {
        merged->emplace(key, inode);
      }
    }
  }
  for (const auto& [key, inode] : overlay_) {
    if (inode.ino != kTombstone) {
      merged->emplace(key, inode);
    }
  }
  CHECK_EQ(merged->size(), live_);
  base_ = std::move(merged);
  // A fresh map: clear() would keep the bucket array, and every copy of
  // this image would allocate one of its own.
  overlay_ = PathMap();
}

const Inode* FsImage::FindInBase(const PathRef& ref) const {
  if (base_ == nullptr) {
    return nullptr;
  }
  auto it = base_->find(ref);
  return it == base_->end() ? nullptr : &it->second;
}

const Inode* FsImage::Find(const PathRef& ref) const {
  auto it = overlay_.find(ref);
  if (it != overlay_.end()) {
    return it->second.ino == kTombstone ? nullptr : &it->second;
  }
  return FindInBase(ref);
}

Inode* FsImage::FindMutable(const PathRef& ref) {
  auto it = overlay_.find(ref);
  if (it != overlay_.end()) {
    return it->second.ino == kTombstone ? nullptr : &it->second;
  }
  const Inode* original = FindInBase(ref);
  if (original == nullptr) {
    return nullptr;
  }
  // Promote: first mutable access copies the inode into the overlay.
  return &overlay_.emplace(PathKey{std::string(ref.path), ref.hash}, *original).first->second;
}

Inode* FsImage::Add(const PathRef& ref, const Inode& inode) {
  ++live_;
  auto it = overlay_.find(ref);
  if (it != overlay_.end()) {
    it->second = inode;  // over a tombstone
    return &it->second;
  }
  return &overlay_.emplace(PathKey{std::string(ref.path), ref.hash}, inode).first->second;
}

Inode FsImage::NewFile(uint64_t size, uint64_t reserve) {
  Inode inode;
  inode.ino = next_ino_++;
  inode.is_dir = false;
  inode.size = size;
  inode.reserved = RoundUpToExtent(reserve > size ? reserve : size);
  inode.offset = next_offset_;
  next_offset_ += inode.reserved;
  return inode;
}

void FsImage::AddDir(std::string_view path) {
  PathRef ref = Ref(path);
  if (Find(ref) != nullptr) {
    return;
  }
  if (path != "/") {
    CHECK(Lookup(ParentOf(path)) != nullptr) << "parent of " << path << " missing";
  }
  Inode inode;
  inode.ino = next_ino_++;
  inode.is_dir = true;
  Add(ref, inode);
}

const Inode* FsImage::AddFile(std::string_view path, uint64_t size, uint64_t reserve) {
  PathRef ref = Ref(path);
  CHECK(Find(ref) == nullptr) << path << " exists";
  CHECK(Lookup(ParentOf(path)) != nullptr) << "parent of " << path << " missing";
  return Add(ref, NewFile(size, reserve));
}

const Inode* FsImage::Lookup(std::string_view path) const { return Find(Ref(path)); }

Inode* FsImage::LookupMutable(std::string_view path) { return FindMutable(Ref(path)); }

Inode* FsImage::Open(std::string_view path, bool create) {
  PathRef ref = Ref(path);
  Inode* inode = FindMutable(ref);
  if (inode != nullptr || !create || Lookup(ParentOf(path)) == nullptr) {
    return inode;
  }
  return Add(ref, NewFile(0, 0));
}

uint32_t FsImage::CountEntries(std::string_view dir) const {
  // Direct children start with `dir` plus a slash and hold no further one.
  size_t prefix = dir == "/" ? 1 : dir.size() + 1;
  auto direct_child = [dir, prefix](std::string_view path) {
    return path.size() > prefix && path.substr(0, dir.size()) == dir &&
           path[prefix - 1] == '/' && path.find('/', prefix) == std::string_view::npos;
  };
  uint32_t n = 0;
  for (const auto& [key, inode] : overlay_) {
    if (inode.ino != kTombstone && direct_child(key.path)) {
      ++n;
    }
  }
  if (base_ != nullptr) {
    for (const auto& [key, inode] : *base_) {
      // Promoted entries were counted through the overlay.
      if (direct_child(key.path) && !overlay_.contains(PathRef{key.path, key.hash})) {
        ++n;
      }
    }
  }
  return n;
}

bool FsImage::Unlink(std::string_view path) {
  PathRef ref = Ref(path);
  const Inode* original = FindInBase(ref);
  auto it = overlay_.find(ref);
  if (it != overlay_.end()) {
    if (it->second.ino == kTombstone || it->second.is_dir) {
      return false;  // already unlinked, or a directory
    }
    // Freed, not kept as a tombstone, so a stale Inode* is a use after free.
    overlay_.erase(it);
  } else if (original == nullptr || original->is_dir) {
    return false;
  }
  if (original != nullptr) {
    Inode tombstone;
    tombstone.ino = kTombstone;
    overlay_.emplace(PathKey{std::string(path), ref.hash}, tombstone);
  }
  --live_;
  return true;
}

Inode FsImage::Grown(const Inode& inode, uint64_t new_size) const {
  Inode grown = inode;
  if (new_size <= grown.size) {
    return grown;
  }
  if (new_size > grown.reserved) {
    // Relocate to the end of the log (m3fs-style append allocation).
    grown.reserved = RoundUpToExtent(new_size);
    grown.offset = next_offset_;
  }
  grown.size = new_size;
  return grown;
}

void FsImage::Grow(Inode* inode, uint64_t new_size) {
  CHECK(inode != nullptr);
  *inode = Grown(*inode, new_size);
  // Every reservation lies below the log end, so only a relocation moves it.
  next_offset_ = std::max(next_offset_, inode->offset + inode->reserved);
}

}  // namespace semperos
