// Sense-reversing spin barrier for the executor's round start and
// rendezvous. Phases can be short, so a futex/condvar barrier would dominate
// the run; this one is a single cache line of shared state and costs two
// atomic RMWs per thread per phase when cores are available.
// When the machine is oversubscribed (more workers than cores) arrivals
// degrade to sched_yield so a descheduled straggler is not spun against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sched.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace acdc::sim::par {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

class SpinBarrier {
 public:
  explicit SpinBarrier(int participants)
      : participants_(static_cast<std::uint32_t>(participants)) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  // Blocks until all participants arrive. Release/acquire on the phase word
  // makes every write before the call on one thread visible after it
  // returns on every other thread. Accumulates the wall time this thread
  // actually spent waiting into *wait_ns. The clock is read only on the
  // slow path (some participant had not arrived yet), so the last arriver —
  // and the uncontended fast path — pays nothing. Feeds the per-thread
  // barrier_wait_ns executor diagnostic.
  void arrive_and_wait_timed(std::uint64_t* wait_ns) {
    const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (++spins < kSpinLimit) {
        cpu_relax();
      } else {
#if defined(__unix__) || defined(__APPLE__)
        sched_yield();
#endif
      }
    }
    *wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

 private:
  // Low on purpose: with fewer cores than workers, spinning only delays the
  // thread whose arrival everyone is waiting for.
  static constexpr int kSpinLimit = 256;

  const std::uint32_t participants_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
};

}  // namespace acdc::sim::par
