// Capability-annotated mutex wrapper.
//
// libstdc++'s std::mutex carries no clang capability attribute, so fields
// guarded by a bare std::mutex are invisible to -Wthread-safety. All
// mutex members in the concurrent layers (src/verify, src/util, bench)
// are util::Mutex instead: the same std::mutex underneath, plus
// the annotations that let the analysis prove the lock discipline. The
// wrapper adds no state and every method is a single inlined forward.
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace mcio::util {

class MCIO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MCIO_ACQUIRE() { mu_.lock(); }
  void unlock() MCIO_RELEASE() { mu_.unlock(); }
  bool try_lock() MCIO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII guard over util::Mutex (the annotated std::lock_guard). Also a
/// BasicLockable, so std::condition_variable_any can drop and retake the
/// lock across a wait — from the analysis' point of view the capability
/// stays held across wait(), which matches how callers reason about it
/// (the predicate is re-checked under the lock after every wakeup).
class MCIO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MCIO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MCIO_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable (for std::condition_variable_any only; user code
  // should rely on the scoped acquisition).
  void lock() MCIO_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() MCIO_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

}  // namespace mcio::util
