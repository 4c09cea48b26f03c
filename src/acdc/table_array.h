// Zero-initialized raw storage for one slot-indexed FlowTable lane.
//
// Two properties the per-packet path and the memory bound depend on
// (DESIGN.md §14):
//
//  * Raw memory, not constructed objects. The table placement-news a record
//    into a slot on occupy/rehash before its first read, so allocating a
//    lane never sweeps a constructor over millions of slots. Zero bytes are
//    the "vacant" encoding the probe/deref paths rely on (FlowHot::gen == 0).
//
//  * Pages chosen by how the lane fills (LaneFill). A dense lane is written
//    throughout as soon as it exists: a growth rehash leaves it at least
//    7/16 full, and the control lane is memset. From 2 MB up it comes
//    straight from anonymous mmap with MADV_HUGEPAGE: at 1M+ slots the hot
//    lane spans hundreds of MB, and with 4 KB pages nearly every random
//    lookup pays a TLB miss on top of the DRAM line — worse, x86 silently
//    drops a software prefetch whose translation misses the TLB, which
//    defeats the burst path's prefetch pass exactly at the occupancies it
//    exists for. 2 MB pages put the whole table back inside the STLB, and
//    every one of them would be touched anyway. A sparse lane is reserved
//    for a cap (FlowTable::set_limit) and fills one flow at a time, up to a
//    cap it may never reach: a service vSwitch reserves 16,384 slots for an
//    8,192-flow cap and holds about 2,000 flows. It is mapped with no memset
//    (a page never written reads as zeros, i.e. vacant) and MADV_NOHUGEPAGE,
//    so it costs only the 4 KB pages its flows write, and a host whose THP
//    mode is `always` cannot turn each first write into a 2 MB fault.
//    Smaller lanes (under 2 MB dense, under one page sparse) and non-Linux
//    builds use zeroed heap memory.
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

// How a lane's slots get written, which decides the pages behind it.
enum class LaneFill : std::uint8_t {
  kDense,   // all at once: by a growth rehash, or a memset
  kSparse,  // one flow at a time, up to a cap the table may never reach
};

template <typename T>
class TableArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "lanes are reclaimed without destructor sweeps");

 public:
  TableArray() = default;

  TableArray(std::size_t count, LaneFill fill) {
    if (count == 0) return;
    bytes_ = count * sizeof(T);
#if defined(__linux__)
    const bool sparse = fill == LaneFill::kSparse;
    if (bytes_ >= (sparse ? kPageBytes : kHugePageBytes) && map(sparse)) {
      return;
    }
    // Small lanes, and any the kernel will not map, come from the heap.
#else
    (void)fill;
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
  // written: in 4 KB pages when sparse, in 2 MB pages when dense. False
  // when the kernel refuses the mapping.
  bool map(bool sparse) {
    const std::size_t unit = sparse ? kPageBytes : kHugePageBytes;
    const std::size_t bytes = (bytes_ + unit - 1) & ~(unit - 1);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
#if defined(MADV_HUGEPAGE) && defined(MADV_NOHUGEPAGE)
    ::madvise(p, bytes, sparse ? MADV_NOHUGEPAGE : MADV_HUGEPAGE);
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
