#include "alloc_probe.h"

#include <cstdlib>
#include <new>

namespace {

// Per-thread counters: a measured loop runs on one thread and reads its
// own, while the multi-threaded sections (parallel sweep) pay no shared
// cache line or locked add on every allocation.
thread_local std::uint64_t g_allocs = 0;
thread_local std::uint64_t g_frees = 0;
thread_local std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  g_bytes += size;
  return std::malloc(size ? size : 1);
}

}  // namespace

namespace acdc::bench {

std::uint64_t alloc_count() { return g_allocs; }
std::uint64_t free_count() { return g_frees; }
std::uint64_t alloc_bytes() { return g_bytes; }

}  // namespace acdc::bench

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  ++g_frees;
  std::free(p);
}

void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
