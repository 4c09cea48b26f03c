#include "sim/check.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace acdc::sim {

void check_failed(const char* condition, const char* file, int line,
                  const char* fmt, ...) {
  std::fprintf(stderr, "%s:%d: ACDC_CHECK(%s) failed: ", file, line,
               condition);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace acdc::sim
