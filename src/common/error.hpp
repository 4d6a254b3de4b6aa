// Error handling primitives for the vrpower library.
//
// The library follows the C++ Core Guidelines: errors that a caller can
// reasonably be expected to handle are reported with exceptions derived from
// vr::Error; programming errors (violated preconditions) abort via
// VR_REQUIRE in all build types so model code can never silently produce
// garbage power numbers.
#pragma once

#include <stdexcept>
#include <string>

namespace vr {

/// Base class of all exceptions thrown by the vrpower library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when user-supplied input (a table profile, a scenario
/// description, ...) is malformed or infeasible.
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// Thrown when a requested configuration does not fit the modelled device
/// (BRAM exhausted, I/O pins exceeded, ...).
class CapacityError : public Error {
 public:
  explicit CapacityError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void require_failed(const char* condition, const char* file,
                                 int line, const std::string& message);
}  // namespace detail

}  // namespace vr

/// Precondition check that is active in every build type. On failure prints
/// the condition and message to stderr and aborts.
#define VR_REQUIRE(cond, message)                                         \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::vr::detail::require_failed(#cond, __FILE__, __LINE__, (message)); \
    }                                                                     \
  } while (false)
