// Runtime lock-rank deadlock detector (CLARENS_LOCK_RANK_CHECK builds
// only; in release builds the detector compiles out and the hooks in
// sync.hpp compile to nothing), plus util::Thread's signal mask.
//
// Each thread keeps a stack of the locks it currently holds. Acquiring a
// lock whose rank is not strictly greater than every held rank — or
// equal without a SameRankToken at the call site — is a hierarchy
// violation: some interleaving of threads doing the same can deadlock,
// whether or not this run would have. The process aborts immediately
// with both lock names, the full held stack and a backtrace, which turns
// a latent deadlock TSan may never schedule into a deterministic test
// failure on the first violating acquisition.
#include "util/sync.hpp"

#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK

#include <cstdio>
#include <cstdlib>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace clarens::util::rank_check {

namespace {

struct Held {
  const void* mutex;
  LockLevel level;
};

// Fixed-capacity per-thread stack: no allocation on the lock path, and
// deeper nesting than this is a hierarchy bug in its own right.
constexpr int kMaxHeld = 16;

struct HeldStack {
  Held entries[kMaxHeld];
  int size = 0;
};

thread_local HeldStack t_held;

[[noreturn]] void die(const char* what, LockLevel level) {
  std::fprintf(stderr,
               "clarens: lock-rank violation: %s '%s' (rank %d)\n", what,
               lock_level_name(level), lock_level_rank(level));
  std::fprintf(stderr, "  held locks (outermost first):\n");
  for (int i = 0; i < t_held.size; ++i) {
    std::fprintf(stderr, "    %s (rank %d)\n",
                 lock_level_name(t_held.entries[i].level),
                 lock_level_rank(t_held.entries[i].level));
  }
  std::fprintf(stderr,
               "  the hierarchy lives in src/util/lock_levels.hpp; "
               "same-rank nesting requires util::SameRankToken\n");
#if defined(__GLIBC__)
  void* frames[32];
  int depth = ::backtrace(frames, 32);
  std::fprintf(stderr, "  acquisition backtrace:\n");
  ::backtrace_symbols_fd(frames, depth, 2);
#endif
  std::abort();
}

}  // namespace

void note_acquire(const void* mutex, LockLevel level, bool same_rank_ok) {
  HeldStack& held = t_held;
  int rank = lock_level_rank(level);
  for (int i = 0; i < held.size; ++i) {
    if (held.entries[i].mutex == mutex) {
      die("re-acquiring already-held lock", level);
    }
  }
  if (held.size > 0) {
    const Held& top = held.entries[held.size - 1];
    int top_rank = lock_level_rank(top.level);
    if (rank < top_rank || (rank == top_rank && !same_rank_ok)) {
      std::fprintf(stderr,
                   "clarens: lock-rank violation: acquiring '%s' (rank %d) "
                   "while holding '%s' (rank %d)\n",
                   lock_level_name(level), rank, lock_level_name(top.level),
                   top_rank);
      die("acquisition of", level);
    }
  }
  if (held.size == kMaxHeld) die("held-lock stack overflow acquiring", level);
  held.entries[held.size++] = {mutex, level};
}

void note_release(const void* mutex) {
  HeldStack& held = t_held;
  // Unlock order may legitimately differ from lock order (e.g. a guard
  // declared before another but destroyed after): erase wherever it is.
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.entries[i].mutex != mutex) continue;
    for (int j = i; j + 1 < held.size; ++j) {
      held.entries[j] = held.entries[j + 1];
    }
    --held.size;
    return;
  }
  // Releasing a lock we never saw acquired: possible only if lock() and
  // unlock() crossed a CLARENS_LOCK_RANK_CHECK boundary, which the
  // global compile definition rules out. Treat as corruption.
  std::fprintf(stderr,
               "clarens: lock-rank violation: releasing a lock this thread "
               "does not hold\n");
  std::abort();
}

int held_count() { return t_held.size; }

}  // namespace clarens::util::rank_check

#endif  // CLARENS_LOCK_RANK_CHECK

#include <signal.h>

namespace clarens::util {

void Thread::block_sigpipe() noexcept {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

}  // namespace clarens::util
