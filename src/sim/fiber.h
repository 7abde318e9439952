// Cooperative fibers.
//
// The simulator runs every MPI rank as a fiber, switching between them in
// virtual-time order. A fiber is pinned to one OS thread for its entire
// life (the thread that runs its engine), so switches never migrate a
// live stack between threads, and a Fiber holds no cross-thread state.
//
// On x86-64 the switch is a handful of register moves in assembly
// (fiber_switch_x86_64.S); ucontext's swapcontext() costs an
// rt_sigprocmask syscall per switch, which dominates host time at the
// millions of switches a large run performs. Other architectures — and
// sanitizer builds, whose fake-stack/shadow-stack bookkeeping hooks
// swapcontext — keep the portable ucontext path.
//
// Every fiber stack is an mmap'd region with a PROT_NONE guard page below
// its lowest usable byte: overflow from deep recursion faults loudly
// instead of silently corrupting the adjacent fiber's stack (ISSUE 8).
#pragma once

#include <cstddef>
#include <functional>

#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define MCIO_FIBER_FAST_SWITCH 1
#endif
#else
#define MCIO_FIBER_FAST_SWITCH 1
#endif
#endif

#if !defined(MCIO_FIBER_FAST_SWITCH)
#include <ucontext.h>
#endif

namespace mcio::sim {

#if defined(MCIO_FIBER_FAST_SWITCH)
/// A suspended execution context: the saved stack pointer.
using FiberContext = void*;
#else
using FiberContext = ucontext_t;
#endif

/// An mmap'd fiber stack: usable bytes on top of a PROT_NONE guard page.
class FiberStack {
 public:
  FiberStack() = default;
  explicit FiberStack(std::size_t usable_bytes);
  ~FiberStack();

  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Lowest usable address (just above the guard page).
  char* base() const { return map_ + guard_bytes_; }
  /// One past the highest usable address.
  char* top() const { return map_ + map_bytes_; }
  std::size_t usable_bytes() const { return map_bytes_ - guard_bytes_; }

 private:
  char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t guard_bytes_ = 0;
};

class Fiber {
 public:
  /// Creates a fiber that will run `body` when first resumed. `link` is
  /// the context control returns to if `body` ever returns normally.
  /// The link pointer must stay valid for the fiber's lifetime (the
  /// engine points it at its scheduler context).
  Fiber(std::size_t stack_bytes, std::function<void()> body,
        FiberContext* link);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from `from` into this fiber. Must always be called from
  /// the same OS thread (fibers are thread-pinned, not migratable).
  void resume_from(FiberContext* from);

  /// Switches out of this fiber back into `to` (called from inside body).
  void yield_to(FiberContext* to);

 private:
#if defined(MCIO_FIBER_FAST_SWITCH)
  friend void run_fiber_trampoline(Fiber* self);
#else
  static void trampoline(unsigned hi, unsigned lo);
#endif

  FiberStack stack_;
  FiberContext ctx_{};
  FiberContext* link_ = nullptr;
  std::function<void()> body_;
};

}  // namespace mcio::sim
