// Lock-rank tracker tests: the dynamic half of the lock-order discipline
// (src/common/lock_ranks.h, DESIGN.md section 14). Rank-increasing
// acquisition chains and the CondVar wait protocol are pinned as legal;
// out-of-order acquisition, unranked-under-ranked, recursive
// self-acquisition, and waiting on a non-innermost lock each abort with a
// diagnostic naming both ranks. With the tracker compiled out
// (DIEVENT_LOCK_RANKS=OFF) the fatal cases cannot fire, so those tests
// skip — the static checker (tools/lockrank_check.py) still gates order.

#include "common/lock_ranks.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread_annotations.h"

namespace dievent {
namespace {

TEST(LockRankTracker, RankIncreasingChainIsLegal) {
  Mutex low{LockRank::kFleetScheduler};
  Mutex mid{LockRank::kCorpus};
  Mutex high{LockRank::kLogSink};
  MutexLock a(low);
  MutexLock b(mid);
  MutexLock c(high);
}

TEST(LockRankTracker, ReacquisitionAfterReleaseIsLegal) {
  Mutex low{LockRank::kFleetScheduler};
  Mutex high{LockRank::kLogSink};
  for (int i = 0; i < 3; ++i) {
    MutexLock a(low);
    MutexLock b(high);
  }
  // High-then-release-then-low is not an inversion: nothing is held.
  { MutexLock b(high); }
  { MutexLock a(low); }
}

TEST(LockRankTracker, UnrankedMutexesAreInvisibleWhenNothingRankedIsHeld) {
  Mutex plain_outer;
  Mutex plain_inner;
  MutexLock a(plain_outer);
  MutexLock b(plain_inner);  // unranked nesting carries no order claim
  Mutex ranked{LockRank::kLogSink};
  MutexLock c(ranked);  // ranked under unranked is legal
}

TEST(LockRankTracker, EachThreadHasItsOwnHeldStack) {
  // A rank held on one thread must not constrain another.
  Mutex low{LockRank::kFleetScheduler};
  Mutex high{LockRank::kLogSink};
  MutexLock a(high);
  std::thread other([&] {
    MutexLock b(low);  // would be fatal on the first thread
  });
  other.join();
}

TEST(LockRankTracker, WaitOnInnermostRankedLockIsLegal) {
  Mutex mu{LockRank::kFleetScheduler};
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(cv.WaitFor(mu, std::chrono::milliseconds(1)),
            std::cv_status::timeout);
}

#if DIEVENT_LOCK_RANKS

// Death tests fork; the threadsafe style re-executes the binary so
// children start clean even when earlier tests spawned threads.
class ThreadsafeDeathStyle : public ::testing::Environment {
 public:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};
const ::testing::Environment* const kDeathStyle =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathStyle);

TEST(LockRankTrackerDeathTest, OutOfOrderAcquisitionAborts) {
  Mutex low{LockRank::kFleetScheduler};
  Mutex high{LockRank::kLogSink};
  EXPECT_DEATH(
      {
        MutexLock a(high);
        MutexLock b(low);
      },
      "lockrank: fatal: rank-decreasing acquisition.*"
      "acquiring kFleetScheduler while innermost held rank is kLogSink");
}

TEST(LockRankTrackerDeathTest, EqualRankAcquisitionAborts) {
  // Two locks of the same rank can deadlock against each other; the
  // discipline requires strict increase.
  Mutex one{LockRank::kAcqReader};
  Mutex two{LockRank::kAcqReader};
  EXPECT_DEATH(
      {
        MutexLock a(one);
        MutexLock b(two);
      },
      "lockrank: fatal: rank-decreasing acquisition");
}

TEST(LockRankTrackerDeathTest, UnrankedUnderRankedAborts) {
  Mutex ranked{LockRank::kFleetScheduler};
  Mutex plain;
  EXPECT_DEATH(
      {
        MutexLock a(ranked);
        MutexLock b(plain);
      },
      "lockrank: fatal: unranked mutex acquired while a ranked mutex "
      "is held");
}

TEST(LockRankTrackerDeathTest, RecursiveAcquisitionAborts) {
  Mutex mu{LockRank::kFleetScheduler};
  EXPECT_DEATH(
      {
        MutexLock a(mu);
        mu.Lock();  // self-deadlock without the tracker
      },
      "lockrank: fatal: recursive acquisition");
}

TEST(LockRankTrackerDeathTest, WaitOnNonInnermostLockAborts) {
  Mutex low{LockRank::kFleetScheduler};
  Mutex high{LockRank::kLogSink};
  CondVar cv;
  EXPECT_DEATH(
      {
        MutexLock a(low);
        MutexLock b(high);
        cv.WaitFor(low, std::chrono::milliseconds(1));
      },
      "lockrank: fatal: condition wait on a mutex that is not the "
      "innermost held lock");
}

#else  // !DIEVENT_LOCK_RANKS

TEST(LockRankTrackerDeathTest, TrackerCompiledOut) {
  GTEST_SKIP() << "DIEVENT_LOCK_RANKS=OFF: runtime tracking disabled; "
                  "lock order is still gated statically by "
                  "tools/lockrank_check.py";
}

#endif  // DIEVENT_LOCK_RANKS

}  // namespace
}  // namespace dievent
