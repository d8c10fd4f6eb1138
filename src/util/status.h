// Status and Result<T>: exception-free error handling in the Arrow/RocksDB
// idiom.
#ifndef P2PDB_UTIL_STATUS_H_
#define P2PDB_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace p2pdb {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kParseError,
  kProtocolError,
  kUnsupported,
  kInternal,
  kResourceExhausted,
};

/// Returns a short human-readable name for a status code (e.g.
/// "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation that can fail. Cheap to copy when OK (no
/// allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

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
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ProtocolError(std::string msg) {
    return Status(StatusCode::kProtocolError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of type T or a failure Status. Must be checked before access.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from a non-OK status (failure).
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a failure status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Accesses the value; undefined if !ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& MoveValue() {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace p2pdb

/// Propagates a non-OK Status from an expression to the caller.
#define P2PDB_RETURN_IF_ERROR(expr)       \
  do {                                    \
    ::p2pdb::Status _st = (expr);         \
    if (!_st.ok()) return _st;            \
  } while (0)

/// Assigns the value of a Result expression to `lhs`, or propagates its Status.
#define P2PDB_ASSIGN_OR_RETURN(lhs, expr)     \
  auto P2PDB_CONCAT_(_res_, __LINE__) = (expr);             \
  if (!P2PDB_CONCAT_(_res_, __LINE__).ok())                 \
    return P2PDB_CONCAT_(_res_, __LINE__).status();         \
  lhs = P2PDB_CONCAT_(_res_, __LINE__).MoveValue()

#define P2PDB_CONCAT_(a, b) P2PDB_CONCAT_IMPL_(a, b)
#define P2PDB_CONCAT_IMPL_(a, b) a##b

#endif  // P2PDB_UTIL_STATUS_H_
