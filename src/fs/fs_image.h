// In-memory filesystem image: superblock, inodes, directory tree, extents.
//
// m3fs is an in-memory filesystem (paper §2.2): file contents live in a
// contiguous memory region on a memory tile, and the service hands out
// memory capabilities to extent-sized ranges of that region. Every service
// instance owns its own copy of the image (paper §5.3.1).
//
// The image is a functional model: lookups, directory listings, creation,
// growth and unlinking all work; file *contents* are never materialized
// (data movement is pure timing, see Dtu::Read/Write).
//
// Storage is an immutable shared base plus a per-image overlay. The paper's
// "each service has its own copy" becomes: populate a template image once,
// Freeze() it, and hand every service a copy. A copy of a frozen image
// shares the base through a shared_ptr and starts with a fresh, empty
// overlay that owns no bucket array, so it allocates nothing that grows
// with the image; copies diverge through their overlays, which is
// observationally identical to a deep copy. Inodes promote into the
// overlay on first mutable access; unlinking a base entry leaves a
// tombstone in the overlay.
//
// Every call hashes its path once and probes the overlay, then the base,
// with that hash; keys keep their hash, so inserts and rehashes reuse it.
#ifndef SEMPEROS_FS_FS_IMAGE_H_
#define SEMPEROS_FS_FS_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/log.h"
#include "base/status.h"

namespace semperos {

// Extent size: the unit in which m3fs hands out memory capabilities. A
// client crossing an extent boundary must request an additional capability
// ("If the application exceeds this range ... it is provided with an
// additional memory capability to the next range", paper §5.3.1).
inline constexpr uint64_t kFsExtentBytes = 1024 * 1024;  // 1 MiB

struct Inode {
  uint64_t ino = 0;
  bool is_dir = false;
  uint64_t size = 0;    // current file size in bytes
  uint64_t offset = 0;  // byte offset of extent 0 inside the image region
  uint64_t reserved = 0;  // bytes reserved in the image (capacity)
};

class FsImage {
 public:
  FsImage() { AddDir("/"); }

  // Merges the overlay into a new immutable base. Copies taken afterwards
  // share that base; call once after populating a template image.
  void Freeze();

  // Creates a directory (parents must exist).
  void AddDir(std::string_view path);

  // Creates a file with `reserve` bytes of image space; `size` bytes are
  // considered written. Returns the inode.
  const Inode* AddFile(std::string_view path, uint64_t size, uint64_t reserve = 0);

  const Inode* Lookup(std::string_view path) const;
  // Pointers returned here stay valid across later image operations until
  // the path is unlinked: they always point into the overlay (node-based).
  Inode* LookupMutable(std::string_view path);
  // LookupMutable, but with `create` a missing file is created empty.
  // nullptr if the path is missing and either `create` is unset or its
  // parent does not exist.
  Inode* Open(std::string_view path, bool create);

  // Number of entries directly inside `dir`.
  uint32_t CountEntries(std::string_view dir) const;

  // Removes a file (not a directory). The image space is not reclaimed
  // (m3fs-style log allocation). Returns false if the path is unknown.
  bool Unlink(std::string_view path);

  // Grows `inode` to hold at least `new_size` bytes, extending the image
  // region if needed.
  void Grow(Inode* inode, uint64_t new_size);
  // `inode` as Grow(inode, new_size) would leave it, without growing it.
  Inode Grown(const Inode& inode, uint64_t new_size) const;

  // Total bytes of image space in use (the service's memory region size
  // must cover this; callers reserve headroom for growth).
  uint64_t bytes_used() const { return next_offset_; }

  size_t inode_count() const { return live_; }

  // The directory part of `path` ("/" for a top-level entry).
  static std::string_view ParentOf(std::string_view path);

 private:
  // A path with its hash: map keys own their bytes, probes view the
  // caller's. The maps take the hash from either, so no probe, insert or
  // rehash hashes a path again.
  struct PathKey {
    std::string path;
    size_t hash;
  };
  struct PathRef {
    std::string_view path;
    size_t hash;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const PathKey& k) const noexcept { return k.hash; }
    size_t operator()(const PathRef& r) const noexcept { return r.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.hash == b.hash && std::string_view(a.path) == std::string_view(b.path);
    }
  };
  // The one map type of the base and of the overlay.
  using PathMap = std::unordered_map<PathKey, Inode, KeyHash, KeyEq>;
  // An overlay inode with this number is a tombstone: the base entry of
  // that path is unlinked. Inode numbers start at 1.
  static constexpr uint64_t kTombstone = 0;

  static PathRef Ref(std::string_view path);
  const Inode* Find(const PathRef& ref) const;
  const Inode* FindInBase(const PathRef& ref) const;
  Inode* FindMutable(const PathRef& ref);
  // Puts `inode` at `ref` (absent) in the overlay, over a tombstone if
  // there is one.
  Inode* Add(const PathRef& ref, const Inode& inode);
  // A new file inode at the end of the image log.
  Inode NewFile(uint64_t size, uint64_t reserve);

  std::shared_ptr<const PathMap> base_;  // frozen snapshot, shared by copies
  PathMap overlay_;                      // local additions, promotions, tombstones
  size_t live_ = 0;                   // current inode count
  uint64_t next_ino_ = 1;
  uint64_t next_offset_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_FS_FS_IMAGE_H_
