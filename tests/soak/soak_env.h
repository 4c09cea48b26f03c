// Environment switches shared by the soak binaries.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace acdc::testlib {

// ACDC_SOAK_FULL=1 runs the nightly scale instead of skipping it.
inline bool full_soak_enabled() {
  const char* v = std::getenv("ACDC_SOAK_FULL");
  return v != nullptr && std::strcmp(v, "1") == 0;
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// CheckedRun artifact base `<ACDC_SOAK_TRACE_DIR>/<soak>_seed_<seed>_<engine>`
// for a failing run, or "" when ACDC_SOAK_TRACE_DIR is unset.
inline std::string soak_artifact_base(const char* soak, std::uint64_t seed,
                                      bool sharded) {
  const char* dir = std::getenv("ACDC_SOAK_TRACE_DIR");
  if (dir == nullptr) return "";
  return std::string(dir) + "/" + soak + "_seed_" + std::to_string(seed) +
         (sharded ? "_sharded" : "_serial");
}

}  // namespace acdc::testlib
