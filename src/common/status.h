// Status: the library-wide error model.
//
// Following the Arrow / RocksDB convention, fallible operations return a
// Status (or Result<T>, see result.h) instead of throwing. Exceptions never
// escape library boundaries. Programmer errors (violated preconditions that
// indicate a bug, not bad input) use TARGAD_CHECK from logging.h instead.

#ifndef TARGAD_COMMON_STATUS_H_
#define TARGAD_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace targad {

/// Machine-readable error category carried by a non-OK Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kNotImplemented,
  kResourceExhausted,
};

/// Returns a human-readable name for a StatusCode ("InvalidArgument", ...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kIOError: return "IOError";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kNotImplemented: return "NotImplemented";
    case StatusCode::kResourceExhausted: return "ResourceExhausted";
  }
  return "Unknown";
}

/// Outcome of a fallible operation: either OK or a code plus message.
///
/// Cheap to copy in the OK case (no allocation). Use the factory helpers:
///   return Status::InvalidArgument("k must be positive, got ", k);
///
/// The class is [[nodiscard]]: ignoring a returned Status is a compile error
/// under the default -Werror build. A deliberately ignored status must be
/// spelled out with `(void)expr;` (or `std::ignore = expr;`).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status OK() { return Status(); }

  template <typename... Args>
  [[nodiscard]] static Status InvalidArgument(Args&&... args) {
    return Status(StatusCode::kInvalidArgument, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status NotFound(Args&&... args) {
    return Status(StatusCode::kNotFound, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status IOError(Args&&... args) {
    return Status(StatusCode::kIOError, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status FailedPrecondition(Args&&... args) {
    return Status(StatusCode::kFailedPrecondition, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status OutOfRange(Args&&... args) {
    return Status(StatusCode::kOutOfRange, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status Internal(Args&&... args) {
    return Status(StatusCode::kInternal, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status NotImplemented(Args&&... args) {
    return Status(StatusCode::kNotImplemented, Concat(std::forward<Args>(args)...));
  }
  template <typename... Args>
  [[nodiscard]] static Status ResourceExhausted(Args&&... args) {
    return Status(StatusCode::kResourceExhausted,
                  Concat(std::forward<Args>(args)...));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  template <typename... Args>
  static std::string Concat(Args&&... args) {
    std::string out;
    (AppendOne(&out, std::forward<Args>(args)), ...);
    return out;
  }
  static void AppendOne(std::string* out, const std::string& s) { *out += s; }
  static void AppendOne(std::string* out, std::string_view s) { *out += s; }
  static void AppendOne(std::string* out, const char* s) { *out += s; }
  static void AppendOne(std::string* out, char c) { *out += c; }
  template <typename T>
  static void AppendOne(std::string* out, const T& v) {
    *out += std::to_string(v);
  }

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK Status to the caller.
#define TARGAD_RETURN_NOT_OK(expr)                \
  do {                                            \
    ::targad::Status _st = (expr);                \
    if (!_st.ok()) return _st;                    \
  } while (0)

}  // namespace targad

#endif  // TARGAD_COMMON_STATUS_H_
