// Annotated synchronization layer — the ONLY place raw std:: sync
// primitives may appear (clarens_lint rule raw-sync).
//
// Every lock in the tree is one of the wrappers below, so that under
// clang (-DCLARENS_THREAD_SAFETY=ON, the build-tidy preset) the whole
// server compiles with -Wthread-safety -Werror=thread-safety: guarded
// fields are declared with CLARENS_GUARDED_BY, private *_locked helpers
// carry CLARENS_REQUIRES, and a forgotten lock is a compile error rather
// than a TSan report on whichever path the tests happened to exercise.
// Under GCC all annotations expand to nothing and the wrappers are
// zero-cost forwarding shims.
//
// The lock *hierarchy* (which mutex may be acquired while holding which)
// has one source of truth — src/util/lock_levels.hpp. Every mutex names
// its level at construction; three layers then enforce the discipline:
//
//   * clarens_lint checks `// lock-order:` comments, nested guard scopes
//     and the merged global lock graph against the table (lock-order,
//     lock-cycle, undeclared-mutex rules);
//   * under CLARENS_LOCK_RANK_CHECK (on in the asan/tsan/lockrank legs,
//     compiled out in release) every acquisition is validated at runtime
//     against a thread-local held-lock stack and an upward or sideways
//     acquisition aborts with both lock names and a backtrace;
//   * the generated table in docs/CONCURRENCY.md is drift-checked.
//
// Same-rank nesting (e.g. core.vo.write -> core.vo.root_cache) is only
// legal with an explicit SameRankToken at the call site.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "util/lock_levels.hpp"

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros. GCC defines none of these, so the
// whole vocabulary expands to nothing there; clang performs the full
// capability analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
#if defined(__clang__)
#define CLARENS_TS_ATTR__(x) __attribute__((x))
#else
#define CLARENS_TS_ATTR__(x)
#endif

/// Declares a type to be a lockable capability ("mutex").
#define CLARENS_CAPABILITY(x) CLARENS_TS_ATTR__(capability(x))
/// Declares an RAII type that acquires in its constructor, releases in
/// its destructor.
#define CLARENS_SCOPED_CAPABILITY CLARENS_TS_ATTR__(scoped_lockable)
/// Field may only be read/written while holding the given mutex.
#define CLARENS_GUARDED_BY(x) CLARENS_TS_ATTR__(guarded_by(x))
/// Pointee (not the pointer itself) is guarded by the given mutex.
#define CLARENS_PT_GUARDED_BY(x) CLARENS_TS_ATTR__(pt_guarded_by(x))
/// Function requires the mutex(es) to be held on entry (does not
/// acquire or release) — the annotation for *_locked helpers.
#define CLARENS_REQUIRES(...) \
  CLARENS_TS_ATTR__(requires_capability(__VA_ARGS__))
#define CLARENS_REQUIRES_SHARED(...) \
  CLARENS_TS_ATTR__(requires_shared_capability(__VA_ARGS__))
/// Function acquires the mutex(es) and holds them on return.
#define CLARENS_ACQUIRE(...) CLARENS_TS_ATTR__(acquire_capability(__VA_ARGS__))
#define CLARENS_ACQUIRE_SHARED(...) \
  CLARENS_TS_ATTR__(acquire_shared_capability(__VA_ARGS__))
/// Function releases the mutex(es) held on entry.
#define CLARENS_RELEASE(...) CLARENS_TS_ATTR__(release_capability(__VA_ARGS__))
#define CLARENS_RELEASE_SHARED(...) \
  CLARENS_TS_ATTR__(release_shared_capability(__VA_ARGS__))
/// Function acquires the mutex iff it returns the given value.
#define CLARENS_TRY_ACQUIRE(...) \
  CLARENS_TS_ATTR__(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the mutex(es) — deadlock/lock-order documentation
/// the analysis enforces.
#define CLARENS_EXCLUDES(...) CLARENS_TS_ATTR__(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define CLARENS_RETURN_CAPABILITY(x) CLARENS_TS_ATTR__(lock_returned(x))
/// Opt a function out of the analysis (init/teardown special cases; every
/// use needs a comment saying why).
#define CLARENS_NO_THREAD_SAFETY_ANALYSIS \
  CLARENS_TS_ATTR__(no_thread_safety_analysis)

namespace clarens::util {

class CondVar;

/// Explicit opt-in for acquiring a lock at the SAME rank as one already
/// held (e.g. core.vo.write -> core.vo.root_cache, both rank 20). The
/// reason string documents why the pair cannot deadlock (a global
/// acquisition order between the two levels, or sharding by disjoint
/// keys). Without a token, a same-rank acquisition aborts under
/// CLARENS_LOCK_RANK_CHECK exactly like an upward one.
struct SameRankToken {
  const char* why;
};

#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK
namespace rank_check {
/// Validates `level` against this thread's held-lock stack and pushes it.
/// Aborts (after printing both lock names, the full held stack and a
/// backtrace) when the acquisition goes upward or sideways without a
/// token, or re-acquires a mutex this thread already holds.
void note_acquire(const void* mutex, LockLevel level, bool same_rank_ok);
/// Pops `mutex` from this thread's held-lock stack.
void note_release(const void* mutex);
/// Locks currently held by this thread (test hook).
int held_count();
}  // namespace rank_check
#define CLARENS_RANK_ACQUIRE__(mutex, level, same_rank_ok) \
  ::clarens::util::rank_check::note_acquire(mutex, level, same_rank_ok)
#define CLARENS_RANK_RELEASE__(mutex) \
  ::clarens::util::rank_check::note_release(mutex)
#else
#define CLARENS_RANK_ACQUIRE__(mutex, level, same_rank_ok) ((void)0)
#define CLARENS_RANK_RELEASE__(mutex) ((void)0)
#endif

/// std::mutex with the capability attribute and a mandatory hierarchy
/// level. Prefer LockGuard/UniqueLock over calling lock()/unlock()
/// directly.
class CLARENS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockLevel level) noexcept : level_(level) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CLARENS_ACQUIRE() {
    CLARENS_RANK_ACQUIRE__(this, level_, false);
    m_.lock();
  }
  void lock(SameRankToken) CLARENS_ACQUIRE() {
    CLARENS_RANK_ACQUIRE__(this, level_, true);
    m_.lock();
  }
  void unlock() CLARENS_RELEASE() {
    m_.unlock();
    CLARENS_RANK_RELEASE__(this);
  }
  bool try_lock() CLARENS_TRY_ACQUIRE(true) {
    // try_lock never blocks, so it cannot complete a deadlock cycle by
    // itself — but anything acquired while the try-lock is held is
    // checked against it, so it still joins the stack.
    if (!m_.try_lock()) return false;
    CLARENS_RANK_ACQUIRE__(this, level_, true);
    return true;
  }

  LockLevel level() const noexcept { return level_; }

 private:
  friend class UniqueLock;
  std::mutex m_;
  LockLevel level_;
};

/// std::shared_mutex with the capability attribute and a mandatory
/// hierarchy level: exclusive writers, concurrent readers. Use
/// WriteLock / ReadLock. Shared and exclusive acquisitions rank
/// identically — a reader can deadlock a writer just as well.
class CLARENS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockLevel level) noexcept : level_(level) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() CLARENS_ACQUIRE() {
    CLARENS_RANK_ACQUIRE__(this, level_, false);
    m_.lock();
  }
  void lock(SameRankToken) CLARENS_ACQUIRE() {
    CLARENS_RANK_ACQUIRE__(this, level_, true);
    m_.lock();
  }
  void unlock() CLARENS_RELEASE() {
    m_.unlock();
    CLARENS_RANK_RELEASE__(this);
  }
  void lock_shared() CLARENS_ACQUIRE_SHARED() {
    CLARENS_RANK_ACQUIRE__(this, level_, false);
    m_.lock_shared();
  }
  void lock_shared(SameRankToken) CLARENS_ACQUIRE_SHARED() {
    CLARENS_RANK_ACQUIRE__(this, level_, true);
    m_.lock_shared();
  }
  void unlock_shared() CLARENS_RELEASE_SHARED() {
    m_.unlock_shared();
    CLARENS_RANK_RELEASE__(this);
  }

  LockLevel level() const noexcept { return level_; }

 private:
  std::shared_mutex m_;
  LockLevel level_;
};

/// RAII exclusive lock over Mutex (std::lock_guard analogue).
class CLARENS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) CLARENS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  LockGuard(Mutex& mutex, SameRankToken token) CLARENS_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(token);
  }
  ~LockGuard() CLARENS_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII exclusive lock usable with CondVar::wait (std::unique_lock
/// analogue). Always holds the mutex from construction to destruction
/// from the analysis' point of view — condition-variable waits release
/// and reacquire internally, which both the static analysis and the
/// rank checker (correctly, for the code before/after the wait) treat
/// as continuously held.
class CLARENS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) CLARENS_ACQUIRE(mutex)
      : lock_(mutex.m_, std::defer_lock) {
#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK
    mutex_ = &mutex;
#endif
    // Validate before blocking, so a violating acquisition aborts even
    // when the deadlock it would cause is real.
    CLARENS_RANK_ACQUIRE__(&mutex, mutex.level_, false);
    lock_.lock();
  }
  UniqueLock(Mutex& mutex, SameRankToken) CLARENS_ACQUIRE(mutex)
      : lock_(mutex.m_, std::defer_lock) {
#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK
    mutex_ = &mutex;
#endif
    CLARENS_RANK_ACQUIRE__(&mutex, mutex.level_, true);
    lock_.lock();
  }
  ~UniqueLock() CLARENS_RELEASE() {
#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK
    CLARENS_RANK_RELEASE__(mutex_);
#endif
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK
  Mutex* mutex_ = nullptr;
#endif
};

/// RAII exclusive lock over SharedMutex.
class CLARENS_SCOPED_CAPABILITY WriteLock {
 public:
  explicit WriteLock(SharedMutex& mutex) CLARENS_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  WriteLock(SharedMutex& mutex, SameRankToken token) CLARENS_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(token);
  }
  ~WriteLock() CLARENS_RELEASE() { mutex_.unlock(); }

  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII shared (reader) lock over SharedMutex.
class CLARENS_SCOPED_CAPABILITY ReadLock {
 public:
  explicit ReadLock(SharedMutex& mutex) CLARENS_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ReadLock(SharedMutex& mutex, SameRankToken token) CLARENS_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared(token);
  }
  // Destructor releases generically (the analysis knows a scoped lock
  // releases whatever it acquired).
  ~ReadLock() CLARENS_RELEASE() { mutex_.unlock_shared(); }

  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable for UniqueLock. Predicate overloads are deliberately
/// absent: a predicate lambda is a separate function to the thread-safety
/// analysis and its guarded-field reads would escape checking. Write the
/// `while (!cond) cv.wait(lock);` loop in the annotated caller instead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& dur) {
    return cv_.wait_for(lock.lock_, dur);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      UniqueLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

 private:
  std::condition_variable cv_;
};

/// Joinable thread handle. Deliberately narrower than std::thread: there
/// is no detach() — every Clarens thread is joined by an owner
/// (clarens_lint's detach rule backs this up textually). Destruction
/// while joinable terminates, exactly like std::thread, so ownership
/// bugs fail loudly instead of leaking runaway threads.
class Thread {
 public:
  Thread() noexcept = default;
  /// Runs `fn` with SIGPIPE blocked: a peer reset must not kill the
  /// process, whatever the embedding program does with the signal.
  template <typename Fn>
  explicit Thread(Fn&& fn)
      : t_([fn = std::forward<Fn>(fn)]() mutable {
          block_sigpipe();
          fn();
        }) {}

  Thread(Thread&&) noexcept = default;
  Thread& operator=(Thread&& other) noexcept = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() = default;

  bool joinable() const noexcept { return t_.joinable(); }
  void join() { t_.join(); }
  std::thread::id get_id() const noexcept { return t_.get_id(); }

  static unsigned hardware_concurrency() noexcept {
    return std::thread::hardware_concurrency();
  }

 private:
  static void block_sigpipe() noexcept;

  std::thread t_;
};

}  // namespace clarens::util
