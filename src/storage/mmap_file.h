#ifndef TSWARP_STORAGE_MMAP_FILE_H_
#define TSWARP_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace tswarp::storage {

/// Access-pattern hints forwarded to madvise(). Best-effort: advice
/// failures are ignored (the mapping stays correct either way).
enum class AccessHint {
  kNormal,
  kSequential,
  kRandom,
  kWillNeed,
};

/// A whole file mapped read-only into the address space. Move-only; the
/// mapping lives until destruction, so any pointer into bytes() is valid
/// for the lifetime of the MappedFile. Empty files map to an empty span
/// (no mmap call — mapping zero bytes is undefined).
///
/// This is the only place in the codebase that calls mmap / munmap /
/// madvise / mincore; everything above works with spans.
class MappedFile {
 public:
  static StatusOr<MappedFile> Open(const std::string& path);

  /// Writes `pieces` into a new, unnamed file (O_TMPFILE) in `dir`, never
  /// fsynced, and maps it: the last unmap or the process's end frees it.
  /// Falls back to WriteScratchUnlinked where O_TMPFILE is refused.
  static StatusOr<MappedFile> WriteScratch(
      const std::string& dir,
      std::initializer_list<std::span<const std::byte>> pieces);

  /// WriteScratch's fallback: a unique name, unlinked before any write.
  static StatusOr<MappedFile> WriteScratchUnlinked(
      const std::string& dir,
      std::initializer_list<std::span<const std::byte>> pieces);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data_), size_};
  }
  std::string_view view() const {
    return {static_cast<const char*>(data_), size_};
  }
  std::size_t size_bytes() const { return size_; }
  const std::string& path() const { return path_; }

  /// The `count` records of type T that start `offset` bytes into the
  /// mapping, valid for the MappedFile's lifetime. A file too short to
  /// hold them, or an offset that misaligns T, is Status::Corruption
  /// naming `what`, at open time instead of a SIGBUS mid-query.
  template <typename T>
  StatusOr<std::span<const T>> Records(std::uint64_t count,
                                       std::string_view what,
                                       std::uint64_t offset = 0) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset > size_ || offset % alignof(T) != 0 ||
        count > (size_ - offset) / sizeof(T)) {
      return Truncated(what, count, sizeof(T));
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(static_cast<const std::byte*>(data_) +
                                   offset),
        static_cast<std::size_t>(count));
  }

  /// Forwards `hint` to madvise over the whole mapping. Best-effort.
  void Advise(AccessHint hint) const;

  /// Bytes of the mapping currently resident in the page cache (via
  /// mincore). Best-effort: returns 0 if the probe fails or the file is
  /// empty. Cost is one syscall plus one byte per mapped page, so keep it
  /// off hot paths (stats endpoints only).
  std::uint64_t ResidentBytes() const;

 private:
  /// Writes `pieces` to `fd` (< 0: `path` failed to open), maps and closes.
  static StatusOr<MappedFile> WriteMapAndClose(
      int fd, std::string path,
      std::initializer_list<std::span<const std::byte>> pieces);

  void Reset();
  Status Truncated(std::string_view what, std::uint64_t count,
                   std::size_t record_size) const;

  std::string path_;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Creates (or truncates) `path`, writes `pieces` one after another with
/// sequential writes and fsyncs the file once before closing it. The one
/// durable file the library produces (a published bundle: its header and
/// sections straight from where they live) goes through here, so a short
/// write, a failed fsync or a failed close is an IOError instead of a
/// silently lost file. Scratch data goes through MappedFile::WriteScratch.
Status WriteFile(const std::string& path,
                 std::initializer_list<std::span<const std::byte>> pieces);

/// fsyncs a directory so a just-renamed file inside it survives power
/// loss. Linux requires this for durable renames; the rename itself only
/// orders the metadata, it does not persist it.
Status SyncDir(const std::string& dir);

}  // namespace tswarp::storage

#endif  // TSWARP_STORAGE_MMAP_FILE_H_
