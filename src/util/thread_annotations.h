// Clang thread-safety capability annotations (no-ops off-clang).
//
// The bench/fuzz host pools (DESIGN.md §12) share only explicitly guarded
// error slots and counters, plus the auditor's counter absorb, memtrack
// and the log sink. These macros let clang's -Wthread-safety analysis
// (enforced with -Werror in the clang-thread-safety CI job; see
// DESIGN.md §13) prove that every access to a guarded field happens
// under its capability — at compile time, before a race can reach the
// determinism tests.
//
// Discipline for new code: every mutex member is a util::Mutex (not a
// bare std::mutex — libstdc++'s std::mutex carries no capability
// attribute, so the analysis cannot track it); every field it protects
// is tagged MCIO_GUARDED_BY(mu_); every helper that assumes the lock is
// tagged MCIO_REQUIRES(mu_).
#pragma once

#if defined(__clang__)
#define MCIO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MCIO_THREAD_ANNOTATION(x)  // no-op: gcc has no capability analysis
#endif

/// Declares a type to be a capability ("mutex").
#define MCIO_CAPABILITY(x) MCIO_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires in its ctor, releases in its dtor.
#define MCIO_SCOPED_CAPABILITY MCIO_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be accessed while holding the given capability.
#define MCIO_GUARDED_BY(x) MCIO_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given capability.
#define MCIO_PT_GUARDED_BY(x) MCIO_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (and does not release it).
#define MCIO_ACQUIRE(...) \
  MCIO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define MCIO_RELEASE(...) \
  MCIO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; first arg is the success value.
#define MCIO_TRY_ACQUIRE(...) \
  MCIO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must already hold the capability.
#define MCIO_REQUIRES(...) \
  MCIO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself).
#define MCIO_EXCLUDES(...) MCIO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Documents a global acquisition order between two capabilities.
#define MCIO_ACQUIRED_BEFORE(...) \
  MCIO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define MCIO_ACQUIRED_AFTER(...) \
  MCIO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Tells the analysis the capability is held here even though it cannot
/// see the acquisition (a structural exclusion argument). Runtime
/// no-op; use only where the exclusion argument is written down.
#define MCIO_ASSERT_CAPABILITY(x) \
  MCIO_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define MCIO_RETURN_CAPABILITY(x) MCIO_THREAD_ANNOTATION(lock_returned(x))

/// Last resort: disables the analysis for one function. Prefer
/// MCIO_ASSERT_CAPABILITY with a written justification.
#define MCIO_NO_THREAD_SAFETY_ANALYSIS \
  MCIO_THREAD_ANNOTATION(no_thread_safety_analysis)
