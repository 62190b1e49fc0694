/// \file result.h
/// Result<T>: a Status combined with a value, for fallible producers.

#ifndef DIEVENT_COMMON_RESULT_H_
#define DIEVENT_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace dievent {

/// Holds either a value of type T or a non-OK Status describing why the
/// value could not be produced.
///
/// Typical usage:
/// \code
///   Result<ImageRgb> img = ReadPpm(path);
///   if (!img.ok()) return img.status();
///   Use(img.value());
/// \endcode
/// [[nodiscard]] like Status: a dropped Result silently swallows both the
/// value and the error that explains its absence.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs from a value (implicit, so `return value;` works).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from an error status. Aborts in debug builds if `status` is
  /// OK — an OK Result must carry a value.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "OK Result must be built from a value");
  }

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Moves the value out, leaving the Result in a valid but unspecified
  /// state.
  T TakeValue() {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value or `fallback` when this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Assigns the value of a Result expression to `lhs`, or returns its error.
#define DIEVENT_ASSIGN_OR_RETURN(lhs, expr)          \
  auto DIEVENT_CONCAT_(_res_, __LINE__) = (expr);    \
  if (!DIEVENT_CONCAT_(_res_, __LINE__).ok())        \
    return DIEVENT_CONCAT_(_res_, __LINE__).status(); \
  lhs = DIEVENT_CONCAT_(_res_, __LINE__).TakeValue()

#define DIEVENT_CONCAT_(a, b) DIEVENT_CONCAT_IMPL_(a, b)
#define DIEVENT_CONCAT_IMPL_(a, b) a##b

}  // namespace dievent

#endif  // DIEVENT_COMMON_RESULT_H_
