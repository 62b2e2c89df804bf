#pragma once
// Clang Thread Safety Analysis shim: compile-time race detection for the
// mutex-striped concurrent modules (service/equivalence_cache,
// service/synthesis_service, core/astar, core/beam).
// Lock-protected fields are declared QSP_GUARDED_BY(their mutex), helper
// functions that expect the lock declare QSP_REQUIRES(it), and clang's
// `-Wthread-safety` (the QSP_THREAD_SAFETY CMake option, -Werror in CI)
// rejects any access that cannot be proven to hold the right lock. On GCC
// (no such analysis) every macro expands to nothing and the wrappers
// degenerate to the std primitives they hold, so annotation costs nothing
// on builds that cannot check it.
//
// The analysis only understands capability-annotated types, and
// libstdc++'s std::mutex carries no annotations — hence the thin Mutex /
// MutexLock / CondVar wrappers below. Discipline for annotated code:
//   * take locks through MutexLock (scoped) or Mutex::lock()/unlock(),
//   * never read a QSP_GUARDED_BY field inside a lambda handed to a
//     condition-variable predicate overload — the analysis checks lambda
//     bodies as separate lock-free functions. Write the wait loop out:
//         MutexLock lock(m);
//         while (!done) cv.wait(lock);
//   * post-join harvest reads are safe but unprovable; either take the
//     (uncontended) lock anyway or isolate them behind
//     QSP_NO_THREAD_SAFETY_ANALYSIS with a comment saying why.

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define QSP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef QSP_THREAD_ANNOTATION
#define QSP_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

#define QSP_CAPABILITY(x) QSP_THREAD_ANNOTATION(capability(x))
#define QSP_SCOPED_CAPABILITY QSP_THREAD_ANNOTATION(scoped_lockable)
#define QSP_GUARDED_BY(x) QSP_THREAD_ANNOTATION(guarded_by(x))
#define QSP_PT_GUARDED_BY(x) QSP_THREAD_ANNOTATION(pt_guarded_by(x))
#define QSP_REQUIRES(...) \
  QSP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define QSP_REQUIRES_SHARED(...) \
  QSP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define QSP_ACQUIRE(...) \
  QSP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define QSP_RELEASE(...) \
  QSP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define QSP_TRY_ACQUIRE(...) \
  QSP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define QSP_EXCLUDES(...) QSP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define QSP_ASSERT_CAPABILITY(x) \
  QSP_THREAD_ANNOTATION(assert_capability(x))
#define QSP_RETURN_CAPABILITY(x) QSP_THREAD_ANNOTATION(lock_returned(x))
#define QSP_NO_THREAD_SAFETY_ANALYSIS \
  QSP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace qsp {

/// std::mutex as a clang capability, so QSP_GUARDED_BY(mutex_) members
/// are checkable. Same size and cost as the raw mutex on every compiler.
class QSP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QSP_ACQUIRE() { mutex_.lock(); }
  void unlock() QSP_RELEASE() { mutex_.unlock(); }
  bool try_lock() QSP_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Scoped lock over Mutex (the annotated std::lock_guard/std::unique_lock
/// replacement). Also the lock token CondVar waits release and reacquire.
class QSP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) QSP_ACQUIRE(mutex) : lock_(mutex) {}
  ~MutexLock() QSP_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For CondVar only: the underlying lock a wait suspends on. The wait's
  /// release/reacquire is invisible to the analysis, which is the
  /// conservative right view — the lock is held at every point the
  /// caller's code actually runs.
  std::unique_lock<Mutex>& native() { return lock_; }

 private:
  std::unique_lock<Mutex> lock_;
};

/// Condition variable over Mutex. Deliberately offers no predicate
/// overloads: a predicate lambda is analyzed as a separate function that
/// holds no locks, so guarded reads inside it would defeat the analysis.
/// Callers write the standard `while (!condition) cv.wait(lock);` loop in
/// annotated scope instead.
class CondVar {
 public:
  void wait(MutexLock& lock) { cv_.wait(lock.native()); }

  template <class Rep, class Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock.native(), d);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace qsp
