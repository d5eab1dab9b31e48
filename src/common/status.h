#ifndef SNOWPRUNE_COMMON_STATUS_H_
#define SNOWPRUNE_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace snowprune {

/// Error codes for fallible public APIs. The library does not throw across
/// its API boundary; operations that can fail return Status (or Result<T>).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kResourceExhausted,  ///< Admission rejection: a bounded queue is full.
  kUnavailable,        ///< The serving component is shutting down, or a
                       ///< transient (possibly injected) fault occurred.
  kCancelled,          ///< The caller cancelled the operation mid-flight.
  kDeadlineExceeded,   ///< The per-query deadline passed before completion.
};

/// True for transient failures worth retrying against an unchanged snapshot
/// (shard slice-scan faults, momentary resource exhaustion). Deterministic
/// errors — bad plans, internal invariant breaks, cancellation, expired
/// deadlines — are terminal: retrying cannot change the outcome.
inline bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}

/// A lightweight success-or-error carrier, modeled after the Status idiom
/// used by Arrow and Google C++ codebases.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad column".
  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "Unknown";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "InvalidArgument"; break;
      case StatusCode::kNotFound: name = "NotFound"; break;
      case StatusCode::kOutOfRange: name = "OutOfRange"; break;
      case StatusCode::kUnimplemented: name = "Unimplemented"; break;
      case StatusCode::kInternal: name = "Internal"; break;
      case StatusCode::kResourceExhausted:
        name = "ResourceExhausted";
        break;
      case StatusCode::kUnavailable: name = "Unavailable"; break;
      case StatusCode::kCancelled: name = "Cancelled"; break;
      case StatusCode::kDeadlineExceeded: name = "DeadlineExceeded"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error carrier for fallible factory-style APIs.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

}  // namespace snowprune

#endif  // SNOWPRUNE_COMMON_STATUS_H_
