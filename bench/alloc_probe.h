// Heap-allocation probe for the perf driver: the matching alloc_probe.cc
// replaces the global operator new/delete with counting versions, so a bench
// can assert "this loop performed zero heap traffic" instead of guessing.
// Link alloc_probe.cc ONLY into acdc_perf — never into the library.
#pragma once

#include <cstdint>

namespace acdc::bench {

// Cumulative counters of the calling thread since it started.
std::uint64_t alloc_count();
std::uint64_t free_count();
std::uint64_t alloc_bytes();

// Convenience: allocation delta across a region of interest.
struct AllocWindow {
  std::uint64_t start_allocs = 0;
  std::uint64_t start_frees = 0;

  AllocWindow() : start_allocs(alloc_count()), start_frees(free_count()) {}
  std::uint64_t allocs() const { return alloc_count() - start_allocs; }
  std::uint64_t frees() const { return free_count() - start_frees; }
};

}  // namespace acdc::bench
