/// \file lock_ranks.h
/// The repo-wide lock-rank table and the debug-build lock-order tracker.
///
/// Every named mutex in the tree is assigned a `LockRank`. The discipline:
/// a thread may only acquire a mutex whose rank is *strictly greater* than
/// the rank of every ranked mutex it already holds. Because ranks form a
/// total order, any program that obeys the discipline is deadlock-free by
/// construction (a wait-for cycle would need a rank-decreasing edge).
///
/// The table is checked twice:
///  - statically, by `tools/lockrank_check.py`, which parses this enum,
///    matches it against `Mutex` declarations and acquisition sites, and
///    fails on cycles / unranked mutexes / rank-decreasing edges;
///  - dynamically, by the `lockrank` tracker below, which keeps a
///    per-thread stack of held ranks and aborts on the first out-of-order
///    acquisition. Enabled when `DIEVENT_LOCK_RANKS` is 1 (the CMake
///    option of the same name, default ON for test builds); compiles to
///    nothing when 0, so release/perf builds pay zero cost.
///
/// Picking a rank for a new mutex (see DESIGN.md section 14): find every
/// lock that can be held when yours is acquired (callers, clock-mediated
/// waits) and every lock your critical sections acquire (callees, logging),
/// then slot the new rank strictly between them. Ranks are spaced by 10 so
/// a new lock usually fits without renumbering. The `VirtualClock` waiter
/// protocol (`Wait`/`WaitUntil`/`NotifyAll(mu, cv, ...)` lock the clock's
/// own mutex while `mu` is held) means every mutex ever passed to the
/// clock must rank *below* `kClockWaiters`; the serialized log sink is
/// acquired by `DIEVENT_LOG`/`DIEVENT_CHECK` from arbitrary critical
/// sections, so it ranks above everything.

#ifndef DIEVENT_COMMON_LOCK_RANKS_H_
#define DIEVENT_COMMON_LOCK_RANKS_H_

#include <cstdio>
#include <cstdlib>

/// Tracker switch. The build system defines DIEVENT_LOCK_RANKS=0/1
/// explicitly (CMake option DIEVENT_LOCK_RANKS, default ON). When the
/// macro is absent (out-of-tree compile of a single header), fall back to
/// "on unless NDEBUG".
#if !defined(DIEVENT_LOCK_RANKS)
#if defined(NDEBUG)
#define DIEVENT_LOCK_RANKS 0
#else
#define DIEVENT_LOCK_RANKS 1
#endif
#endif

namespace dievent {

/// One rank per named mutex in the tree, lowest-first in acquisition
/// order. tools/lockrank_check.py parses this enum verbatim: keep the
/// `kName = value,` one-per-line format and the strictly-increasing
/// values.
enum class LockRank : int {
  /// Not part of the discipline. Test-local and scratch mutexes default
  /// here; the tracker ignores them except that acquiring one while a
  /// *ranked* mutex is held is fatal (an invisible lock under a ranked
  /// critical section could hide an ordering cycle).
  kUnranked = 0,

  /// TaskGroup::group_mutex_ — per-group completion barrier; never held
  /// across a pool submit (Submit closes its critical section first).
  kTaskGroup = 10,
  /// ThreadPool::mutex_ — pool queue; tasks run with it released.
  kThreadPool = 20,
  /// EventScheduler::mu_ — fleet state and its one pending list; the
  /// dispatcher and idle runners park on the clock (kClockWaiters) under
  /// it.
  kFleetScheduler = 30,
  /// EventCorpus::mu_ — shard manifest + repository cache. Never held
  /// across pool submits, store I/O, or TaskGroup::Wait; fleet job
  /// completion registers shards with no scheduler lock held, so the
  /// rank only has to sit above the locks held when workers touch the
  /// cache (none) and below nothing it acquires (it logs only outside
  /// its critical sections).
  kCorpus = 45,
  /// MultiCameraSource::PumpState::mutex — prefetch pump handshake.
  kPrefetchPump = 50,
  /// AcquisitionSupervisor::Reader::mutex — per-reader request/response
  /// handshake; interrupts a wedged source (kSourceInterrupt) under it.
  kAcqReader = 60,
  /// FaultyVideoSource::stall_mutex_ — cancellable-stall handshake,
  /// acquired by Interrupt() while a reader lock is held.
  kSourceInterrupt = 70,
  /// AcquisitionSupervisor::wait_mutex_ — response notify fence.
  kAcqWaitFence = 80,
  /// SimClock::sleep_mutex_ — parks SleepUntil callers; the self-call
  /// into WaitUntil then locks the clock's own mutex.
  kClockSleep = 90,
  /// SimClock::mu_ — the clock's waiter registry. Every mutex handed to
  /// the VirtualClock waiter protocol must rank below this.
  kClockWaiters = 100,
  /// LogSink::mutex_ — serialized log sink; DIEVENT_LOG/DIEVENT_CHECK
  /// acquire it from arbitrary critical sections, so it is the top rank.
  kLogSink = 110,
};

/// Human-readable rank name for tracker diagnostics.
inline const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kTaskGroup: return "kTaskGroup";
    case LockRank::kThreadPool: return "kThreadPool";
    case LockRank::kFleetScheduler: return "kFleetScheduler";
    case LockRank::kCorpus: return "kCorpus";
    case LockRank::kPrefetchPump: return "kPrefetchPump";
    case LockRank::kAcqReader: return "kAcqReader";
    case LockRank::kSourceInterrupt: return "kSourceInterrupt";
    case LockRank::kAcqWaitFence: return "kAcqWaitFence";
    case LockRank::kClockSleep: return "kClockSleep";
    case LockRank::kClockWaiters: return "kClockWaiters";
    case LockRank::kLogSink: return "kLogSink";
  }
  return "<invalid>";
}

#if DIEVENT_LOCK_RANKS

namespace lockrank {

/// Deepest legal ranked-lock nesting. The real tree nests at most four
/// deep (scheduler -> queue -> clock -> sink); 16 leaves headroom and
/// turns a runaway into a diagnosable abort instead of silent corruption.
inline constexpr int kMaxHeldLocks = 16;

struct HeldLock {
  LockRank rank;
  const void* mu;
};

struct ThreadLockStack {
  HeldLock held[kMaxHeldLocks];
  int depth = 0;
};

inline ThreadLockStack& Stack() {
  thread_local ThreadLockStack stack;
  return stack;
}

/// Fatal diagnostic. Deliberately fprintf+abort rather than DIEVENT_LOG:
/// the log sink itself is a ranked mutex, and a tracker failure may fire
/// while it is held. abort() also makes violations EXPECT_DEATH-testable.
[[noreturn]] inline void Fail(const char* what, LockRank acquiring,
                              LockRank top) {
  std::fprintf(stderr,
               "lockrank: fatal: %s (acquiring %s while innermost held "
               "rank is %s)\n",
               what, LockRankName(acquiring), LockRankName(top));
  std::fflush(stderr);
  std::abort();
}

/// Checks rank order, then records the acquisition. Called *before* the
/// underlying lock is taken so a violation aborts instead of deadlocking.
inline void NoteAcquire(LockRank rank, const void* mu) {
  ThreadLockStack& s = Stack();
  if (rank == LockRank::kUnranked) {
    if (s.depth > 0) {
      Fail("unranked mutex acquired while a ranked mutex is held "
           "(give it a rank in src/common/lock_ranks.h)",
           rank, s.held[s.depth - 1].rank);
    }
    return;  // unranked mutexes are invisible to the tracker
  }
  if (s.depth > 0) {
    const HeldLock& top = s.held[s.depth - 1];
    if (mu == top.mu) {
      Fail("recursive acquisition (self-deadlock)", rank, top.rank);
    }
    if (static_cast<int>(rank) <= static_cast<int>(top.rank)) {
      Fail("rank-decreasing acquisition (lock-order violation)", rank,
           top.rank);
    }
  }
  if (s.depth >= kMaxHeldLocks) {
    Fail("ranked-lock nesting exceeds kMaxHeldLocks", rank,
         s.held[s.depth - 1].rank);
  }
  s.held[s.depth++] = HeldLock{rank, mu};
}

/// Records a successful TryLock. No order check: a try-acquire cannot
/// deadlock (it fails instead of blocking), and opportunistic high-to-low
/// try patterns are legitimate. The lock still joins the held stack so
/// everything acquired *under* it is order-checked.
inline void NoteAcquireTry(LockRank rank, const void* mu) {
  ThreadLockStack& s = Stack();
  if (rank == LockRank::kUnranked) return;
  if (s.depth >= kMaxHeldLocks) {
    Fail("ranked-lock nesting exceeds kMaxHeldLocks", rank,
         s.held[s.depth - 1].rank);
  }
  s.held[s.depth++] = HeldLock{rank, mu};
}

/// Removes a held entry (innermost-first search, so the common LIFO
/// release is O(1) and out-of-order releases such as SimClock's
/// DeliverWakes fence stay legal).
inline void NoteRelease(LockRank rank, const void* mu) {
  if (rank == LockRank::kUnranked) return;
  ThreadLockStack& s = Stack();
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.held[i].mu != mu) continue;
    for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
    --s.depth;
    return;
  }
  Fail("release of a ranked mutex that is not held", rank, rank);
}

/// Asserts the condition-wait protocol: the waited mutex must be the
/// innermost held lock. CondVar::Wait releases and reacquires `mu`
/// internally; if another ranked lock were nested inside, the reacquire
/// would happen *under* it in wait-for order — a hidden rank decrease.
/// The rank stays on the stack across the wait: that is exactly the
/// guarantee the caller observes (held before, held after).
inline void NoteWait(LockRank rank, const void* mu) {
  ThreadLockStack& s = Stack();
  if (rank == LockRank::kUnranked) {
    if (s.depth > 0) {
      Fail("condition wait on an unranked mutex while ranked mutexes "
           "are held",
           rank, s.held[s.depth - 1].rank);
    }
    return;
  }
  if (s.depth == 0 || s.held[s.depth - 1].mu != mu) {
    Fail("condition wait on a mutex that is not the innermost held lock",
         rank, s.depth > 0 ? s.held[s.depth - 1].rank : LockRank::kUnranked);
  }
}

}  // namespace lockrank

#endif  // DIEVENT_LOCK_RANKS

}  // namespace dievent

#endif  // DIEVENT_COMMON_LOCK_RANKS_H_
