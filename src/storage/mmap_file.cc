#include "storage/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace tswarp::storage {
namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

/// Writes `pieces` to `fd` one after another, resuming short writes.
Status WriteAll(int fd, const std::string& path,
                std::initializer_list<std::span<const std::byte>> pieces) {
  for (const std::span<const std::byte> piece : pieces) {
    const std::byte* data = piece.data();
    std::size_t left = piece.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return n < 0 ? ErrnoStatus("write", path)
                     : Status::IOError("short write to " + path);
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  return WriteMapAndClose(::open(path.c_str(), O_RDONLY | O_CLOEXEC), path,
                          {});
}

StatusOr<MappedFile> MappedFile::WriteScratch(
    const std::string& dir,
    std::initializer_list<std::span<const std::byte>> pieces) {
  const int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  // EOPNOTSUPP: no unnamed files on this filesystem; EISDIR: old kernel.
  if (fd < 0 && (errno == EOPNOTSUPP || errno == EISDIR)) {
    return WriteScratchUnlinked(dir, pieces);
  }
  return WriteMapAndClose(fd, "scratch file in " + dir, pieces);
}

StatusOr<MappedFile> MappedFile::WriteScratchUnlinked(
    const std::string& dir,
    std::initializer_list<std::span<const std::byte>> pieces) {
  std::string name = dir + "/.tswarp-scratch-XXXXXX";
  const int fd = ::mkostemp(name.data(), O_CLOEXEC);
  if (fd >= 0 && ::unlink(name.c_str()) != 0) {
    const Status s = ErrnoStatus("unlink", name);
    ::close(fd);
    return s;
  }
  return WriteMapAndClose(fd, "scratch file in " + dir, pieces);
}

StatusOr<MappedFile> MappedFile::WriteMapAndClose(
    int fd, std::string path,
    std::initializer_list<std::span<const std::byte>> pieces) {
  if (fd < 0) return ErrnoStatus("open", path);
  MappedFile file;
  file.path_ = std::move(path);
  Status status = WriteAll(fd, file.path_, pieces);
  struct stat st{};
  if (status.ok() && ::fstat(fd, &st) != 0) {
    status = ErrnoStatus("fstat", file.path_);
  }
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (status.ok() && file.size_ > 0) {
    file.data_ = ::mmap(nullptr, file.size_, PROT_READ, MAP_SHARED, fd, 0);
    if (file.data_ == MAP_FAILED) {
      file.data_ = nullptr;
      status = ErrnoStatus("mmap", file.path_);
    }
  }
  // The mapping keeps the file alive; the descriptor is no longer needed.
  ::close(fd);
  if (!status.ok()) return status;
  return file;
}

MappedFile::~MappedFile() { Reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_(std::move(other.path_)), data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    path_ = std::move(other.path_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::Reset() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  size_ = 0;
}

void MappedFile::Advise(AccessHint hint) const {
  if (data_ == nullptr) return;
  int advice = MADV_NORMAL;
  switch (hint) {
    case AccessHint::kNormal:
      advice = MADV_NORMAL;
      break;
    case AccessHint::kSequential:
      advice = MADV_SEQUENTIAL;
      break;
    case AccessHint::kRandom:
      advice = MADV_RANDOM;
      break;
    case AccessHint::kWillNeed:
      advice = MADV_WILLNEED;
      break;
  }
  // Best-effort: a kernel that rejects the advice still serves the pages.
  (void)::madvise(data_, size_, advice);
}

std::uint64_t MappedFile::ResidentBytes() const {
  if (data_ == nullptr) return 0;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t num_pages = (size_ + page - 1) / page;
  std::vector<unsigned char> residency(num_pages);
  if (::mincore(data_, size_, residency.data()) != 0) return 0;
  std::uint64_t resident = 0;
  for (std::size_t i = 0; i < num_pages; ++i) {
    if (residency[i] & 1u) {
      const std::size_t extent =
          (i + 1 == num_pages) ? size_ - i * page : page;
      resident += extent;
    }
  }
  return resident;
}

Status MappedFile::Truncated(std::string_view what, std::uint64_t count,
                             std::size_t record_size) const {
  return Status::Corruption("truncated " + std::string(what) +
                            " region in " + path_ + ": need " +
                            std::to_string(count) + " records of " +
                            std::to_string(record_size) + " bytes, file has " +
                            std::to_string(size_) + " bytes");
}

// ---------------------------------------------------------------------------
// WriteFile / SyncDir
// ---------------------------------------------------------------------------

Status WriteFile(const std::string& path,
                 std::initializer_list<std::span<const std::byte>> pieces) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("create", path);
  Status result = WriteAll(fd, path, pieces);
  if (result.ok() && ::fsync(fd) != 0) result = ErrnoStatus("fsync", path);
  if (::close(fd) != 0 && result.ok()) result = ErrnoStatus("close", path);
  return result;
}

Status SyncDir(const std::string& dir) {
  const std::string path = dir.empty() ? "." : dir;
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open dir", path);
  Status result = Status::OK();
  if (::fsync(fd) != 0) result = ErrnoStatus("fsync dir", path);
  ::close(fd);
  return result;
}

}  // namespace tswarp::storage
