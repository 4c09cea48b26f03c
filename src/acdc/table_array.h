// Zero-initialized raw storage for one FlowTable lane: the slot-word index
// or a record pool.
//
// Two properties the per-packet path and the memory bound depend on
// (DESIGN.md §14):
//
//  * Raw memory, not constructed objects. The table placement-news a record
//    into the pool when it admits a flow, so allocating a lane never sweeps
//    a constructor over millions of entries. Zero bytes are the "empty
//    slot" encoding the probe and deref paths rely on (an all-zero slot
//    word), so a fresh index reads as an empty table with nothing written.
//
//  * Pages chosen by size alone. From 2 MB up a lane comes straight from
//    anonymous mmap with MADV_HUGEPAGE: at 1M+ flows the record pool spans
//    hundreds of MB, and with 4 KB pages nearly every random lookup pays a
//    TLB miss on top of the DRAM line — worse, x86 silently drops a
//    software prefetch whose translation misses the TLB, which defeats the
//    burst path's prefetch pass exactly at the occupancies it exists for.
//    2 MB pages put the whole table back inside the STLB. Between one page
//    and 2 MB a lane is mapped with MADV_NOHUGEPAGE and never memset: a
//    page never written reads as zeros, so it costs only the 4 KB pages
//    the table writes (a capped table's index is sized for its cap and may
//    never fill), and a host whose THP mode is `always` cannot turn each
//    first write into a 2 MB fault. Lanes under one page, and every lane on
//    non-Linux builds, come from zeroed heap memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace acdc::vswitch {

template <typename T>
class TableArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "lanes are reclaimed without destructor sweeps");

 public:
  TableArray() = default;

  explicit TableArray(std::size_t count) {
    if (count == 0) return;
    bytes_ = count * sizeof(T);
#if defined(__linux__)
    if (bytes_ >= kPageBytes && map()) return;
    // Small lanes, and any the kernel will not map, come from the heap.
#endif
    constexpr std::size_t kAlign =
        alignof(T) > alignof(std::max_align_t) ? alignof(T)
                                               : alignof(std::max_align_t);
    bytes_ = (bytes_ + kAlign - 1) & ~(kAlign - 1);
    void* p = std::aligned_alloc(kAlign, bytes_);
    if (p == nullptr) throw std::bad_alloc{};
    std::memset(p, 0, bytes_);
    data_ = static_cast<T*>(p);
  }

  TableArray(TableArray&& other) noexcept { swap(other); }
  TableArray& operator=(TableArray&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  TableArray(const TableArray&) = delete;
  TableArray& operator=(const TableArray&) = delete;
  ~TableArray() { release(); }

  // Shallow const, like unique_ptr<T[]>: the lane is the table's storage,
  // not part of its logical state.
  T& operator[](std::size_t i) const { return data_[i]; }
  T* data() const { return data_; }

 private:
  static constexpr std::size_t kPageBytes = std::size_t{4} << 10;
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

#if defined(__linux__)
  // Maps the lane from anonymous memory, which reads as zeros until it is
  // written: in 2 MB pages from 2 MB up, in 4 KB pages below. False when
  // the kernel refuses the mapping.
  bool map() {
    const bool huge = bytes_ >= kHugePageBytes;
    const std::size_t unit = huge ? kHugePageBytes : kPageBytes;
    const std::size_t bytes = (bytes_ + unit - 1) & ~(unit - 1);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
#if defined(MADV_HUGEPAGE) && defined(MADV_NOHUGEPAGE)
    ::madvise(p, bytes, huge ? MADV_HUGEPAGE : MADV_NOHUGEPAGE);
#endif
    data_ = static_cast<T*>(p);
    bytes_ = bytes;
    mapped_ = true;
    return true;
  }
#endif

  void release() noexcept {
    if (data_ == nullptr) return;
#if defined(__linux__)
    if (mapped_) {
      ::munmap(data_, bytes_);
    } else {
      std::free(data_);
    }
#else
    std::free(data_);
#endif
    data_ = nullptr;
    bytes_ = 0;
    mapped_ = false;
  }

  void swap(TableArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(bytes_, other.bytes_);
    std::swap(mapped_, other.mapped_);
  }

  T* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;
};

}  // namespace acdc::vswitch
