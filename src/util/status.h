#ifndef RDBSC_UTIL_STATUS_H_
#define RDBSC_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace rdbsc::util {

/// Error categories for fallible operations. The library does not use C++
/// exceptions; functions that can fail return a Status (or StatusOr<T>).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,
  kCancelled,
  kResourceExhausted,
};

/// A lightweight success-or-error value, in the style of RocksDB's Status.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The error category (kOk when ok()).
  StatusCode code() const { return code_; }

  /// Human-readable error message; empty when ok().
  const std::string& message() const { return message_; }

  /// "OK" or "<category>: <message>" for logging.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value-or-error union: holds T on success, a non-OK Status on failure.
/// Accessing value() on a failed StatusOr is a programming error (asserts).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from a value: success.
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit from a non-OK status: failure.
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// The contained value. Requires ok().
  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace rdbsc::util

#endif  // RDBSC_UTIL_STATUS_H_
