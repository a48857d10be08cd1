#ifndef TSWARP_COMMON_STATUS_H_
#define TSWARP_COMMON_STATUS_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace tswarp {

/// Error category of a failed operation. Mirrors the usual database-library
/// status vocabulary (RocksDB / Arrow style) restricted to what tswarp needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kCorruption,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
};

/// Returns a stable human-readable name for `code` ("OK", "IOError", ...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation. tswarp is exception-free: every
/// operation that can fail returns a Status (or StatusOr<T>), and callers
/// are expected to check `ok()` before relying on side effects.
///
/// Status is cheap to copy in the OK case (no allocation) and carries a
/// message only on error.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type T or an error Status. Accessing the value of an
/// error StatusOr aborts the process (programming error).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or a Status keeps call sites terse:
  ///   StatusOr<int> F() { if (bad) return Status::IOError("..."); return 7; }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    if (status_.ok()) {
      Fail("StatusOr constructed from OK status without a value");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    EnsureOk();
    return *value_;
  }
  T& value() & {
    EnsureOk();
    return *value_;
  }
  T&& value() && {
    EnsureOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void EnsureOk() const {
    if (!status_.ok()) Fail(status_.ToString().c_str());
  }
  [[noreturn]] static void Fail(const char* what);

  Status status_;
  std::optional<T> value_;
};

namespace internal_status {
[[noreturn]] void DieStatusOr(const char* what);
}  // namespace internal_status

template <typename T>
void StatusOr<T>::Fail(const char* what) {
  internal_status::DieStatusOr(what);
}

/// Narrows `value` to a 32-bit id or offset, or returns OutOfRange naming
/// `what`. The largest accepted value is 2^32 - 2: 2^32 - 1 is the nil
/// sentinel of 32-bit node and occurrence ids, so no count or offset may
/// reach it.
inline StatusOr<std::uint32_t> CheckedU32(std::uint64_t value,
                                          const char* what) {
  if (value >= 0xFFFFFFFFull) {
    return Status::OutOfRange(std::string(what) + " " +
                              std::to_string(value) +
                              " does not fit a 32-bit id");
  }
  return static_cast<std::uint32_t>(value);
}

/// Propagates an error Status from a callee expression.
#define TSW_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::tswarp::Status tsw_status_tmp_ = (expr);      \
    if (!tsw_status_tmp_.ok()) return tsw_status_tmp_; \
  } while (false)

#define TSW_INTERNAL_CONCAT_IMPL(a, b) a##b
#define TSW_INTERNAL_CONCAT(a, b) TSW_INTERNAL_CONCAT_IMPL(a, b)

/// Assigns the value of a StatusOr expression or propagates its error.
#define TSW_ASSIGN_OR_RETURN(lhs, expr) \
  TSW_ASSIGN_OR_RETURN_IMPL(TSW_INTERNAL_CONCAT(tsw_statusor_, __LINE__), \
                            lhs, expr)

#define TSW_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

}  // namespace tswarp

#endif  // TSWARP_COMMON_STATUS_H_
