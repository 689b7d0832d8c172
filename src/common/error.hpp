#pragma once
/// \file error.hpp
/// \brief Error type and checked-invariant macros used across ADePT.
///
/// ADePT reports user-facing failures (bad input files, infeasible plans)
/// via ADEPT_CHECK, whose adept::Error carries only its message, and
/// programming errors via ADEPT_ASSERT, whose adept::Error also names the
/// failed expression and its source location.

#include <stdexcept>
#include <string>

namespace adept {

/// Exception thrown for all recoverable ADePT failures (parse errors,
/// invalid hierarchies, infeasible planning inputs...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Throws adept::Error whose what() is `message` alone.
[[noreturn]] void fail_check(const std::string& message);
/// Throws adept::Error naming `expr` and its file:line before `message`.
[[noreturn]] void fail_assert(const char* expr, const char* file, int line,
                              const std::string& message);
}  // namespace detail

}  // namespace adept

/// Validates a user-facing precondition; throws adept::Error whose what()
/// is exactly `msg`, so what a client sees does not depend on the source
/// text or the build location.
#define ADEPT_CHECK(expr, msg)                                              \
  do {                                                                      \
    if (!(expr)) ::adept::detail::fail_check((msg));                        \
  } while (false)

/// Internal invariant: a failure is a bug in ADePT, not bad input, so the
/// error also names the expression and its file:line.
#define ADEPT_ASSERT(expr, msg)                                             \
  do {                                                                      \
    if (!(expr))                                                            \
      ::adept::detail::fail_assert(#expr, __FILE__, __LINE__,               \
                                   std::string("internal: ") + (msg));      \
  } while (false)
