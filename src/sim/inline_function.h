// A small-buffer-optimized, move-only callable for the event hot path.
//
// std::function's inline buffer (16 bytes on libstdc++) is too small for the
// timer lambdas this simulator schedules — an RTO re-arm capturing `this`
// plus a couple of values spills to the heap, which puts one allocation on
// every timer churn. InlineFunction stores callables up to kInlineBytes
// in-place; larger ones (rare: scenario-construction conveniences, test
// glue) fall back to a single heap cell so nothing breaks, it just isn't
// free. The event queue stores these out-of-line in slot storage, so heap
// sift operations never touch them.
//
// Nearly every scheduled closure captures only pointers and integers, so it
// is trivially copyable: moving one is a fixed-size memcpy of the buffer and
// destroying one does nothing, with no indirect call on either path. Only
// closures that own something (a std::function, a PacketPtr) pay for their
// move and destroy calls.
//
// A callable may also carry its event's tie key (see EventQueue): a
// `tie_key() const` member returning it. The queue calls it only when
// another keyed event shares the timestamp. And a callable that owns what
// only its run would release (a packet in flight, held by raw pointer so
// the closure stays trivially copyable) may carry a `drop() const` member:
// discard() calls it when the event dies unfired.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace acdc::sim {

inline constexpr std::size_t kInlineFunctionBytes = 48;

// A callable that can compute its own event's tie key.
template <typename F>
concept HasTieKey = requires(const F& f) {
  { f.tie_key() } -> std::convertible_to<std::uint64_t>;
};

// A callable that must release something when it is discarded unfired.
template <typename F>
concept HasDrop = requires(const F& f) { f.drop(); };

template <typename Signature,
          std::size_t InlineBytes = kInlineFunctionBytes>
class InlineFunction;

template <std::size_t InlineBytes>
class InlineFunction<void(), InlineBytes> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = &kInlineVtable<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vtable_ = &kHeapVtable<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() { vtable_->invoke(storage_); }

  explicit operator bool() const { return vtable_ != nullptr; }

  void reset() {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  // Destroys the callable without running it, calling its drop() first if
  // it has one. Empty: a no-op, like reset().
  void discard() {
    if (vtable_ != nullptr && vtable_->drop != nullptr) vtable_->drop(storage_);
    reset();
  }

  // True when the stored callable has a tie_key() member.
  bool has_tie_key() const {
    return vtable_ != nullptr && vtable_->tie_key != nullptr;
  }
  // The stored callable's tie_key(). Precondition: has_tie_key().
  std::uint64_t tie_key() const { return vtable_->tie_key(storage_); }

  // True when callables of type F avoid the heap fallback (used by tests to
  // pin down the allocation-free guarantee).
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

  // True when moving and destroying a stored F needs no call (a memcpy of
  // the buffer and nothing, respectively).
  template <typename F>
  static constexpr bool moves_by_copy() {
    return fits_inline<std::decay_t<F>>() &&
           std::is_trivially_copyable_v<std::decay_t<F>>;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Null when relocating the buffer's bytes is a valid move.
    void (*move)(void* dst, void* src);  // move-construct dst, destroy src
    // Null when destroying the stored object is a no-op.
    void (*destroy)(void*);
    // Null unless the callable has a tie_key() member.
    std::uint64_t (*tie_key)(const void*);
    // Null unless the callable has a drop() member.
    void (*drop)(void*);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= InlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* as(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static const Fn* as(const void* storage) {
    return std::launder(reinterpret_cast<const Fn*>(storage));
  }

  template <typename Fn, bool kOnHeap>
  static constexpr auto kTieKey = [] {
    std::uint64_t (*fn)(const void*) = nullptr;
    if constexpr (HasTieKey<Fn>) {
      fn = [](const void* s) -> std::uint64_t {
        if constexpr (kOnHeap) {
          return (*as<Fn*>(s))->tie_key();
        } else {
          return as<Fn>(s)->tie_key();
        }
      };
    }
    return fn;
  }();

  template <typename Fn, bool kOnHeap>
  static constexpr auto kDrop = [] {
    void (*fn)(void*) = nullptr;
    if constexpr (HasDrop<Fn>) {
      fn = [](void* s) {
        if constexpr (kOnHeap) {
          (*as<Fn*>(s))->drop();
        } else {
          as<Fn>(s)->drop();
        }
      };
    }
    return fn;
  }();

  template <typename Fn>
  static constexpr VTable kInlineVtable = [] {
    VTable vt{[](void* s) { (*as<Fn>(s))(); }, nullptr, nullptr,
              kTieKey<Fn, false>, kDrop<Fn, false>};
    if constexpr (!std::is_trivially_copyable_v<Fn>) {
      vt.move = [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*as<Fn>(src)));
        as<Fn>(src)->~Fn();
      };
      vt.destroy = [](void* s) { as<Fn>(s)->~Fn(); };
    }
    return vt;
  }();

  // The stored Fn* relocates by copy; only destroying it needs a call.
  template <typename Fn>
  static constexpr VTable kHeapVtable = {
      [](void* s) { (**as<Fn*>(s))(); },
      nullptr,
      [](void* s) { delete *as<Fn*>(s); },
      kTieKey<Fn, true>,
      kDrop<Fn, true>,
  };

  void steal(InlineFunction& other) noexcept {
    if (other.vtable_ != nullptr) {
      if (other.vtable_->move != nullptr) {
        other.vtable_->move(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, InlineBytes);
      }
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  const VTable* vtable_ = nullptr;
};

// The callback type every scheduled event carries.
using EventAction = InlineFunction<void()>;

}  // namespace acdc::sim
