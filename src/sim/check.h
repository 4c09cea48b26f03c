// Always-on invariant checks.
//
// `assert` compiles out under NDEBUG, which every optimised build defines, so
// an invariant the simulator's correctness rests on (causality: nothing is
// scheduled into the past) needs a check that survives Release builds.
// ACDC_CHECK costs one predictable branch on the hot path; the failure path
// is a cold out-of-line call that prints the condition, its location and a
// printf-style context message to stderr, then aborts.
#pragma once

namespace acdc::sim {

[[noreturn]] [[gnu::cold]] [[gnu::format(printf, 4, 5)]] void check_failed(
    const char* condition, const char* file, int line, const char* fmt, ...);

}  // namespace acdc::sim

#define ACDC_CHECK(condition, ...)                                        \
  do {                                                                    \
    if (__builtin_expect(!(condition), 0)) {                              \
      ::acdc::sim::check_failed(#condition, __FILE__, __LINE__,           \
                                __VA_ARGS__);                             \
    }                                                                     \
  } while (0)
