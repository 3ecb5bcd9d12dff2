// Lightweight contract macros in the spirit of the C++ Core Guidelines'
// Expects()/Ensures() (I.6, I.8). Violations indicate programmer error and
// terminate with a diagnostic; they are never used for recoverable
// conditions (those throw ihbd::ConfigError instead, see error.h).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace ihbd::detail {

// Cold and never inlined: a contract checked on a hot inline path costs
// one compare and branch there, with the report kept out of line.
[[noreturn, gnu::cold, gnu::noinline]] inline void contract_violation(
    const char* kind, const char* expr, const char* file, int line) {
  std::fprintf(stderr, "[ihbd] %s violation: (%s) at %s:%d\n", kind, expr,
               file, line);
  std::abort();
}

}  // namespace ihbd::detail

#define IHBD_EXPECTS(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ihbd::detail::contract_violation("precondition", #cond,          \
                                         __FILE__, __LINE__);            \
  } while (false)

#define IHBD_ENSURES(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ihbd::detail::contract_violation("postcondition", #cond,         \
                                         __FILE__, __LINE__);            \
  } while (false)
