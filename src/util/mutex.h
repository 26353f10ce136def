// Annotated mutex primitives: the project's only sanctioned locks.
//
// util::Mutex / util::MutexLock / util::CondVar wrap std::mutex,
// std::lock_guard and std::condition_variable with the Clang
// thread-safety-analysis attributes from util/thread_annotations.h, so
// every acquisition is visible to -Wthread-safety and every
// TAPO_GUARDED_BY member access is checked against it. tapo_lint's
// `lock-discipline` rule enforces the flip side: spelling std::mutex /
// std::lock_guard / std::unique_lock outside src/util/ is a finding, so
// new concurrent code cannot silently opt out of the analysis.
//
// CondVar deliberately exposes only the capability-aware shape:
//   while (!predicate) cv.wait(mu);   // inside a TAPO_REQUIRES(mu) scope
// rather than the std::condition_variable lambda-predicate overloads — a
// lambda body is a separate function to the analysis, so guarded reads
// inside one would need their own (unattachable) annotations. The
// explicit loop keeps every guarded access inside the annotated scope.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace tapo::util {

class CondVar;

/// std::mutex as a Clang thread-safety capability.
class TAPO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TAPO_ACQUIRE() { mu_.lock(); }
  void unlock() TAPO_RELEASE() { mu_.unlock(); }
  bool try_lock() TAPO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // wait() re-waits on the underlying handle
  std::mutex mu_;
};

/// RAII lock over a Mutex (std::lock_guard with a scoped capability).
class TAPO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TAPO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() TAPO_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex. wait() declares the
/// capability contract the analysis needs: the mutex is held on entry and
/// (again) on exit; the internal release/reacquire is invisible to the
/// caller's critical section, exactly as with std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  /// Spurious wakeups happen; always call from a `while (!pred)` loop.
  void wait(Mutex& mu) TAPO_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the annotated Mutex keeps it.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tapo::util
